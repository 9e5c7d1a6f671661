"""Bounded file I/O: what ``read_nifti`` accepts from a gzip stream, which files the three readers refuse, the
exact bytes ``write_volume`` writes, and how much memory each holds.

The gzip cases are judged against ``gzip.decompress``: a file it inflates reads as its plain payload, and a
file it rejects fails with ``corrupt gzip stream: `` and its own message.
"""

import gzip
import os
import re
import struct
import subprocess
import sys
import threading
import zlib
from pathlib import Path

import numpy as np
import pytest

import c2fseg
import c2fseg.fileio
from c2fseg import FormatError, Mask3D, Spacing, Volume3D, read_nifti, write_volume
from data import random_mask_data, random_volume_data
from test_fileio import build_nifti, traced_peak
from test_hostile_files import READERS, rvol_bytes

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


def mutate(rng, blob: bytes) -> bytes:
    """``blob`` with one seeded flip, cut, insertion, deletion or tail, always after its two magic bytes."""
    pos = int(rng.integers(2, len(blob) + 1))
    some = rng.integers(0, 256, size=int(rng.integers(1, 12)), dtype=np.uint8).tobytes()
    kind = rng.integers(5)
    if kind == 0 and pos < len(blob):
        return blob[:pos] + bytes([blob[pos] ^ int(rng.integers(1, 256))]) + blob[pos + 1 :]
    if kind == 1:
        return blob[:pos]
    if kind == 2:
        return blob[:pos] + some + blob[pos:]
    if kind == 3:
        return blob[:pos] + blob[pos + len(some) :]
    return blob + (bytes(len(some)) if rng.integers(2) else some)


def read_all(path, rng) -> bytes:
    """Every byte ``_FileBytes`` gives for ``path``, asked for in seeded pieces of 1 to 600 bytes."""
    with open(path, "rb") as f:
        stream = c2fseg.fileio._FileBytes(f)
        parts = []
        while part := stream.read(int(rng.integers(1, 601))):
            parts.append(part)
    assert stream.total == sum(map(len, parts))
    return b"".join(parts)


MUTATED_BASES = {
    "one_member": ZIPPED,
    "two_members": GZIP_CASES["two_members_split_mid_payload"],
    "zero_padding_after": GZIP_CASES["zero_padding_after_a_member"][: len(ZIPPED) + 9],
    "junk_after": GZIP_CASES["trailing_non_gzip_bytes"],
}


class TestGzipMutations:
    """Seeded mutations of a few gzip files: each reads as ``gzip.decompress`` takes it, bytes or message."""

    @pytest.mark.parametrize("base", MUTATED_BASES)
    def test_each_mutation_reads_as_gzip_decompress_treats_it(self, tmp_path, base):
        rng = np.random.default_rng(3100 + list(MUTATED_BASES).index(base))
        path = tmp_path / "m.gz"
        outcomes = set()
        for _ in range(100):
            blob = mutate(rng, MUTATED_BASES[base])
            path.write_bytes(blob)
            try:
                want = gzip.decompress(blob)
            except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
                with pytest.raises(FormatError) as err:
                    read_all(path, rng)
                assert str(err.value) == f"corrupt gzip stream: {exc}", blob
                outcomes.add(type(exc).__name__)
                continue
            assert read_all(path, rng) == want, blob
            outcomes.add("read")
        assert len(outcomes) >= 3, outcomes  # the mutations reach more than one way to fail


class TestNonRegularFiles:
    """A pipe's or a device's size bounds nothing, so each reader rejects it before it reads a byte.

    Every test runs once per reader of ``READERS``: ``kind`` names it, here ``read_nifti`` and in the subclasses
    below ``read_volume`` and ``load_weights``.
    """

    kind = "nifti"

    def read(self, path):
        return READERS[self.kind](path)

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero on this platform")
    def test_an_endless_device_is_a_format_error(self):
        with pytest.raises(FormatError, match="^not a regular file: "):
            self.read("/dev/zero")  # read to its end, it would never return

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd on this platform")
    @pytest.mark.parametrize("zipped", [False, True], ids=["plain", "gzip"])
    def test_a_pipe_is_a_format_error(self, zipped):
        blob = build_nifti(dims=(4, 3, 5))
        r, w = os.pipe()
        with open(w, "wb") as sink:
            sink.write(gzip.compress(blob, mtime=0) if zipped else blob)
        try:
            with pytest.raises(FormatError, match="^not a regular file: "):
                self.read(f"/dev/fd/{r}")
        finally:
            os.close(r)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
    def test_a_fifo_without_a_writer_is_a_format_error(self, tmp_path):
        """Read in a child under a timeout, so an ``open`` that waits for a writer fails this test, not the suite."""
        fifo = tmp_path / f"case.{self.kind}"
        os.mkfifo(fifo)
        reader = READERS[self.kind].__name__
        probe = f"import sys\nfrom c2fseg import FormatError, {reader}\ntry: {reader}(sys.argv[1])\nexcept FormatError as e: print(e)"
        env = dict(os.environ, PYTHONPATH=str(Path(c2fseg.__file__).parent.parent))
        proc = subprocess.run([sys.executable, "-c", probe, str(fifo)], capture_output=True, text=True, env=env, timeout=60)
        assert proc.stdout.startswith("not a regular file: "), proc.stderr


class TestNonRegularRvolFiles(TestNonRegularFiles):
    kind = "rvol"


class TestNonRegularWeightFiles(TestNonRegularFiles):
    kind = "weights"


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


class TestSerialRead:
    """The payload is read and converted on the caller's thread, one chunk at a time."""

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
        started = []
        start = threading.Thread.start

        def record(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", record)
        got = read_nifti(path)
        assert got.data.tobytes() == want.tobytes()
        assert started == []
