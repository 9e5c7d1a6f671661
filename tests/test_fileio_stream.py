"""Bounded file I/O: what ``read_nifti`` accepts from a gzip stream, the exact bytes ``write_volume`` writes,
and how much memory each holds.

The gzip cases are judged against ``gzip.decompress``: a file it inflates reads as its plain payload, and a
file it rejects fails with ``corrupt gzip stream: `` and its own message.
"""

import gzip
import re
import struct
import sys
import threading
import time
import zlib

import numpy as np
import pytest

import c2fseg.fileio
import c2fseg.parallel
from c2fseg import FormatError, Mask3D, Spacing, Volume3D, read_nifti, write_volume
from data import random_mask_data, random_volume_data
from test_fileio import build_nifti, traced_peak
from test_hostile_files import rvol_bytes

CHUNK = c2fseg.fileio._CHUNK

FTEXT, FHCRC, FEXTRA, FNAME, FCOMMENT = 1, 2, 4, 8, 16


def member(data: bytes, flags: int = 0) -> bytes:
    """One gzip member of ``data``, with the optional header fields that ``flags`` names."""
    head = struct.pack("<BBBBIBB", 0x1F, 0x8B, 8, flags, 0, 0, 255)
    if flags & FEXTRA:
        head += struct.pack("<H", 5) + b"xtra!"
    if flags & FNAME:
        head += b"case.nii\x00"
    if flags & FCOMMENT:
        head += b"a comment\x00"
    if flags & FHCRC:
        head += struct.pack("<H", zlib.crc32(head) & 0xFFFF)
    deflate = zlib.compressobj(6, zlib.DEFLATED, -zlib.MAX_WBITS)
    body = deflate.compress(data) + deflate.flush()
    return head + body + struct.pack("<II", zlib.crc32(data), len(data) & 0xFFFFFFFF)


RAW = build_nifti(dims=(4, 3, 5), scl_slope=0.5, scl_inter=-2.0)
CUT = len(RAW) - 37  # inside the payload
ZIPPED = gzip.compress(RAW, mtime=0)


def flip(blob: bytes, pos: int) -> bytes:
    return blob[:pos] + bytes([blob[pos] ^ 0x40]) + blob[pos + 1 :]


GZIP_CASES = {
    "one_member": ZIPPED,
    "two_members_split_mid_payload": gzip.compress(RAW[:CUT], mtime=0) + gzip.compress(RAW[CUT:], mtime=0),
    "split_inside_the_header": gzip.compress(RAW[:100], mtime=0) + gzip.compress(RAW[100:], mtime=0),
    "empty_member_first": gzip.compress(b"", mtime=0) + ZIPPED,
    "zero_padding_after_a_member": ZIPPED + b"\x00" * 3000,
    "zero_padding_between_members": gzip.compress(RAW[:CUT], mtime=0) + b"\x00" * 7 + gzip.compress(RAW[CUT:], mtime=0),
    "every_optional_header_field": member(RAW, FTEXT | FHCRC | FEXTRA | FNAME | FCOMMENT),
    "trailing_non_gzip_bytes": ZIPPED + b"trailing junk",
    "trailing_byte_after_padding": ZIPPED + b"\x00\x00\x1f",
    "second_member_bad_method": ZIPPED + b"\x1f\x8b\x07" + bytes(7),
    "second_member_cut_in_its_header": ZIPPED + b"\x1f\x8b\x08\x00",
    "cut_in_the_trailer": ZIPPED[:-3],
    "cut_after_the_deflate_stream": ZIPPED[:-8],
    "bad_crc": flip(ZIPPED, len(ZIPPED) - 8),
    "bad_length": flip(ZIPPED, len(ZIPPED) - 2),
    "bad_crc_in_a_later_member": ZIPPED + flip(ZIPPED, len(ZIPPED) - 6),
    "cut_in_an_extra_field": member(RAW, FEXTRA)[:13],
}


class TestGzipAsDecompress:
    @pytest.mark.parametrize("name", GZIP_CASES)
    def test_read_as_gzip_decompress_treats_it(self, tmp_path, name):
        blob = GZIP_CASES[name]
        path = tmp_path / "x.nii.gz"
        path.write_bytes(blob)
        try:
            plain = gzip.decompress(blob)
        except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
            with pytest.raises(FormatError, match=f"^{re.escape(f'corrupt gzip stream: {exc}')}$"):
                read_nifti(path)
            return
        assert plain == RAW
        got = read_nifti(path)
        want = np.arange(60, dtype=np.float32).reshape(5, 3, 4) * np.float32(0.5) - np.float32(2.0)
        assert isinstance(got, Volume3D) and got.data.tobytes() == want.tobytes()

    def test_a_corrupt_stream_is_reported_before_a_bad_header(self, tmp_path):
        blob = flip(gzip.compress(b"\x00" * 400, mtime=0), -8)  # sizeof_hdr 0 and a bad CRC
        path = tmp_path / "x.nii.gz"
        path.write_bytes(blob)
        with pytest.raises(FormatError, match="^corrupt gzip stream: CRC check failed$"):
            read_nifti(path)

    def test_a_corrupt_stream_is_reported_before_a_short_payload(self, tmp_path):
        path = tmp_path / "x.nii.gz"
        path.write_bytes(gzip.compress(RAW[:-10], mtime=0) + b"junk")
        with pytest.raises(FormatError, match="^corrupt gzip stream: Not a gzipped file"):
            read_nifti(path)


class TestTruncationMessage:
    """``payload truncated`` names the bytes the file holds, once inflated, whether or not the output was allocated."""

    @pytest.mark.parametrize("zipped", [False, True], ids=["plain", "gzip"])
    @pytest.mark.parametrize("dims", [(4, 3, 5), (2000, 2000, 2000)], ids=["short_payload", "beyond_the_file"])
    def test_exact_sizes(self, tmp_path, zipped, dims):
        raw = build_nifti(dims=dims, payload=bytes(100))
        path = tmp_path / "t.nii"
        path.write_bytes(gzip.compress(raw, mtime=0) + b"\x00" * 5000 if zipped else raw)  # zero padding is not payload
        need = 352 + 2 * dims[0] * dims[1] * dims[2]
        has = len(raw)
        with pytest.raises(FormatError, match=f"^payload truncated: need {need} bytes, file has {has}$"):
            read_nifti(path)

    def test_no_output_is_allocated_beyond_what_a_gzip_file_can_hold(self, tmp_path):
        path = tmp_path / "t.nii.gz"
        path.write_bytes(gzip.compress(build_nifti(dims=(1024, 1024, 512), payload=bytes(4000)), mtime=0))
        assert path.stat().st_size * 1032 < 2 * 1024 * 1024 * 512  # the header asks for more than it can hold

        def read(p):
            with pytest.raises(FormatError, match="^payload truncated"):
                read_nifti(p)

        assert traced_peak(read, path) < 8 * CHUNK


class TestWriteVolumeBytes:
    def test_volume(self, rng, tmp_path):
        v = Volume3D(random_volume_data(rng, (3, 4, 5)), Spacing(3.0, 0.7816, 0.7816))
        write_volume(v, tmp_path / "v.rvol")
        want = rvol_bytes(v.dims, 0, v.data.astype("<f4").tobytes(), v.spacing.as_tuple())
        assert (tmp_path / "v.rvol").read_bytes() == want

    def test_mask(self, rng, tmp_path):
        m = Mask3D(random_mask_data(rng, (4, 2, 3)), Spacing(2.0, 1.5, 1.0))
        write_volume(m, tmp_path / "m.rvol")
        want = rvol_bytes(m.dims, 1, m.data.tobytes(), m.spacing.as_tuple())
        assert (tmp_path / "m.rvol").read_bytes() == want


class TestBoundedMemory:
    """Each reader and writer holds its output, or nothing beyond the caller's volume, plus a few chunks."""

    def test_gzipped_scaled_int16_read_peak_is_the_output_plus_a_few_chunks(self, tmp_path):
        dims = (256, 256, 48)  # stored (x, y, z): output 48x256x256 float32, 12.6 MB
        n = dims[0] * dims[1] * dims[2]
        payload = np.random.default_rng(4).integers(-1000, 3000, size=n, dtype="<i2").tobytes()
        path = tmp_path / "ct.nii.gz"
        path.write_bytes(gzip.compress(build_nifti(dims=dims, payload=payload, scl_slope=0.001, scl_inter=-1.0), 1))
        out_bytes = 4 * n
        peak = traced_peak(read_nifti, path)
        assert peak < out_bytes + 8 * CHUNK, f"peak {peak / out_bytes:.2f}x the output"

    def test_a_small_gzip_bomb_is_read_in_a_few_chunks(self, tmp_path):
        path = tmp_path / "bomb.nii.gz"
        path.write_bytes(gzip.compress(build_nifti(dims=(4, 4, 4)) + bytes(40 << 20), mtime=0))
        assert path.stat().st_size < 100_000
        assert read_nifti(path).data[3, 3, 3] == 63  # still accepted: bytes past the payload are ignored
        peak = traced_peak(read_nifti, path)
        assert peak < 8 * CHUNK, f"peak {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("kind", ["volume", "mask"])
    def test_write_peak_is_well_below_one_payload(self, rng, tmp_path, kind):
        dims = (16, 256, 256)
        if kind == "volume":
            vol = Volume3D(random_volume_data(rng, dims), Spacing(1, 1, 1))
        else:
            vol = Mask3D(random_mask_data(rng, dims), Spacing(1, 1, 1))
        path = tmp_path / "w.rvol"
        peak = traced_peak(lambda p: write_volume(vol, p), path)
        assert peak < vol.data.nbytes / 8, f"peak {peak / vol.data.nbytes:.2f}x the payload"


def pipe_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith("c2fseg-pipe")]


class TestPipelined:
    """``parallel.pipelined``: item k is consumed on a second thread while item k+1 is made."""

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_the_read_is_the_same_on_one_or_two_cpus(self, tmp_path, monkeypatch, cpus, n_cpus):
        rng = np.random.default_rng(6)
        stored = rng.integers(-3000, 3000, size=(7, 9, 11), dtype="<i2")
        path = tmp_path / "s.nii.gz"
        raw = build_nifti(dims=(11, 9, 7), payload=stored.tobytes(), scl_slope=0.37, scl_inter=5.5)
        path.write_bytes(gzip.compress(raw))
        want = stored.astype(np.float32) * np.float32(0.37) + np.float32(5.5)
        monkeypatch.setattr(c2fseg.fileio, "_CHUNK", 64)  # 22 chunks of 32 values
        cpus(n_cpus)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = read_nifti(path)
        finally:
            sys.setswitchinterval(interval)
        assert got.data.tobytes() == want.tobytes()
        assert pipe_threads() == []

    def test_every_item_is_consumed_in_order(self, cpus):
        cpus(2)
        consumed = []
        c2fseg.parallel.pipelined(iter(range(50)), lambda k: (time.sleep(0.001 * (k % 3)), consumed.append(k)))
        assert consumed == list(range(50)) and pipe_threads() == []

    def test_an_error_of_the_items_waits_for_the_item_in_flight(self, cpus):
        cpus(2)
        consumed = []

        def items():
            yield 0
            yield 1
            raise OSError("the disk went away")

        def consume(k):
            time.sleep(0.05)
            consumed.append(k)

        with pytest.raises(OSError, match="disk"):
            c2fseg.parallel.pipelined(items(), consume)
        assert consumed == [0, 1] and pipe_threads() == []

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_an_error_of_consume_is_raised(self, cpus, n_cpus):
        cpus(n_cpus)
        made = []

        def items():
            for k in range(5):
                made.append(k)
                yield k

        def consume(k):
            if k == 1:
                raise ValueError("bad item 1")

        with pytest.raises(ValueError, match="bad item 1"):
            c2fseg.parallel.pipelined(items(), consume)
        assert made == ([0, 1] if n_cpus == 1 else [0, 1, 2]) and pipe_threads() == []
