import gzip
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from c2fseg import FormatError, Mask3D, Spacing, Volume3D, read_nifti, read_volume, write_volume
from data import random_mask_data, random_volume_data


class TestRvolRoundTrip:
    def test_volume_bit_exact(self, rng, tmp_path, reference_spacing):
        v = Volume3D(random_volume_data(rng, (3, 4, 5)), reference_spacing)
        path = tmp_path / "v.rvol"
        write_volume(v, path)
        back = read_volume(path)
        assert isinstance(back, Volume3D)
        assert np.array_equal(back.data, v.data)
        assert back.spacing == v.spacing

    def test_mask_bit_exact(self, rng, tmp_path):
        m = Mask3D(random_mask_data(rng, (4, 4, 4)), Spacing(2, 1, 1))
        path = tmp_path / "m.rvol"
        write_volume(m, path)
        back = read_volume(path)
        assert isinstance(back, Mask3D)
        assert np.array_equal(back.data, m.data)
        assert back.spacing == m.spacing


class TestRvolRejection:
    @pytest.fixture
    def volume_file(self, rng, tmp_path):
        v = Volume3D(random_volume_data(rng, (2, 3, 4)), Spacing(1, 1, 1))
        path = tmp_path / "v.rvol"
        write_volume(v, path)
        return path

    def test_bad_magic(self, volume_file):
        raw = bytearray(volume_file.read_bytes())
        raw[:4] = b"LOVR"
        volume_file.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="magic"):
            read_volume(volume_file)

    def test_bad_version(self, volume_file):
        raw = bytearray(volume_file.read_bytes())
        raw[4:8] = struct.pack("<I", 7)
        volume_file.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version"):
            read_volume(volume_file)

    def test_corrupted_crc(self, volume_file):
        raw = bytearray(volume_file.read_bytes())
        raw[40] ^= 0x01  # payload byte
        volume_file.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="checksum mismatch"):
            read_volume(volume_file)

    def test_length_mismatch(self, volume_file):
        volume_file.write_bytes(volume_file.read_bytes()[:-6])
        with pytest.raises(FormatError, match="length"):
            read_volume(volume_file)

    @pytest.mark.parametrize("length", [29, 30, 31, 32])
    def test_truncated_header(self, volume_file, length):
        volume_file.write_bytes(volume_file.read_bytes()[:length])
        with pytest.raises(FormatError, match="header truncated"):
            read_volume(volume_file)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
    def test_bad_spacing(self, volume_file, bad):
        raw = bytearray(volume_file.read_bytes())
        struct.pack_into("<f", raw, 24, bad)  # spacing.h
        body = bytes(raw[:-4])
        volume_file.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
        with pytest.raises(FormatError, match="invalid spacing"):
            read_volume(volume_file)

    def test_mask_with_nonbinary_byte(self, rng, tmp_path):
        m = Mask3D(random_mask_data(rng, (2, 2, 2)), Spacing(1, 1, 1))
        path = tmp_path / "m.rvol"
        write_volume(m, path)
        raw = bytearray(path.read_bytes())
        raw[33] = 2  # first payload voxel
        body = bytes(raw[:-4])
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
        with pytest.raises(FormatError, match="non-binary byte 2"):
            read_volume(path)


def build_nifti(
    dims=(2, 2, 2),
    pixdim=(0.7816, 0.7816, 3.0),
    datatype=4,
    payload=None,
    scl_slope=0.0,
    scl_inter=0.0,
    vox_offset=352.0,
    magic=b"n+1\x00",
    byte_order="<",
    ndim=3,
) -> bytes:
    """Byte-by-byte minimal single-file NIfTI-1 volume (348-byte header + pad)."""
    nx, ny, nz = dims
    hdr = bytearray(348)
    struct.pack_into(byte_order + "i", hdr, 0, 348)  # sizeof_hdr
    dim = [ndim, nx, ny, nz, 1, 1, 1, 1]
    struct.pack_into(byte_order + "8h", hdr, 40, *dim)
    struct.pack_into(byte_order + "h", hdr, 70, datatype)
    bitpix = {2: 8, 4: 16, 16: 32, 64: 64}[datatype]
    struct.pack_into(byte_order + "h", hdr, 72, bitpix)
    pd = [1.0, pixdim[0], pixdim[1], pixdim[2], 0, 0, 0, 0]
    struct.pack_into(byte_order + "8f", hdr, 76, *pd)
    struct.pack_into(byte_order + "f", hdr, 108, vox_offset)
    struct.pack_into(byte_order + "f", hdr, 112, scl_slope)
    struct.pack_into(byte_order + "f", hdr, 116, scl_inter)
    hdr[344:348] = magic
    if payload is None:
        np_dtype = {2: "u1", 4: "i2", 16: "f4", 64: "f8"}[datatype]
        payload = np.arange(nx * ny * nz, dtype=byte_order + np_dtype).tobytes()
    return bytes(hdr) + b"\x00" * 4 + payload


def traced_peak(read, path) -> int:
    """Peak bytes traced while ``read(path)`` runs."""
    tracemalloc.start()
    try:
        read(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


class TestBinaryCheckMemory:
    """Testing a payload for 0/1 holds no voxel-size temporary beside the file's bytes and the returned array."""

    DIMS = (32, 256, 256)
    N = DIMS[0] * DIMS[1] * DIMS[2]

    def test_rvol_mask_read_peak_within_2_5x_voxels(self, tmp_path):
        path = tmp_path / "m.rvol"
        write_volume(Mask3D((np.arange(self.N) % 3 == 0).reshape(self.DIMS).astype(np.uint8), Spacing(1, 1, 1)), path)
        peak = traced_peak(read_volume, path)
        assert peak < 2.5 * self.N, f"peak {peak / self.N:.2f}x the voxel count"

    def test_int16_nifti_mask_read_peak_within_3_5x_voxels(self, tmp_path):
        path = tmp_path / "m.nii"
        payload = (np.arange(self.N) % 3 == 0).astype("<i2").tobytes()
        path.write_bytes(build_nifti(dims=self.DIMS[::-1], payload=payload))
        peak = traced_peak(read_nifti, path)
        assert peak < 3.5 * self.N, f"peak {peak / self.N:.2f}x the voxel count"


class TestReadNifti:
    def test_golden_int16_axis_mapping(self, tmp_path):
        """2x2x2 int16 with values 0..7: value = i + 2j + 4k in stored order."""
        path = tmp_path / "g.nii"
        path.write_bytes(build_nifti())
        vol = read_nifti(path)
        assert vol.dims == (2, 2, 2)
        # depth = slowest axis (k): voxel (d, h, w) holds i + 2j + 4k = w + 2h + 4d
        for d in range(2):
            for h in range(2):
                for w in range(2):
                    assert vol.data[d, h, w] == w + 2 * h + 4 * d

    def test_pixdim_maps_to_dhw_spacing(self, tmp_path):
        path = tmp_path / "g.nii"
        path.write_bytes(build_nifti(pixdim=(0.7816, 0.7816, 3.0)))
        vol = read_nifti(path)
        assert vol.spacing == Spacing(3.0, 0.7816, 0.7816)

    def test_gzip_identical(self, tmp_path):
        raw = build_nifti()
        plain, zipped = tmp_path / "a.nii", tmp_path / "a.nii.gz"
        plain.write_bytes(raw)
        zipped.write_bytes(gzip.compress(raw))
        a, b = read_nifti(plain), read_nifti(zipped)
        assert np.array_equal(a.data, b.data) and a.spacing == b.spacing

    def test_scaling_applied(self, tmp_path):
        path = tmp_path / "s.nii"
        path.write_bytes(build_nifti(scl_slope=2.0, scl_inter=-1.0))
        vol = read_nifti(path)
        assert isinstance(vol, Volume3D)
        assert vol.data[0, 0, 1] == 2.0 * 1 - 1.0

    def test_uint8_binary_becomes_mask(self, tmp_path):
        payload = np.array([0, 1, 1, 0, 0, 1, 0, 1], dtype=np.uint8).tobytes()
        path = tmp_path / "m.nii"
        path.write_bytes(build_nifti(datatype=2, payload=payload))
        vol = read_nifti(path)
        assert isinstance(vol, Mask3D)
        assert vol.data.sum() == 4

    def test_uint8_nonbinary_stays_volume(self, tmp_path):
        payload = np.arange(8, dtype=np.uint8).tobytes()
        path = tmp_path / "v.nii"
        path.write_bytes(build_nifti(datatype=2, payload=payload))
        assert isinstance(read_nifti(path), Volume3D)

    def test_big_endian_parsed(self, tmp_path):
        path = tmp_path / "be.nii"
        path.write_bytes(build_nifti(byte_order=">"))
        vol = read_nifti(path)
        assert vol.data[1, 1, 1] == 7

    def test_depth_axis_fastest_override(self, tmp_path):
        path = tmp_path / "g.nii"
        path.write_bytes(build_nifti(dims=(2, 3, 4), pixdim=(1.0, 2.0, 3.0)))
        slowest = read_nifti(path, depth_axis="slowest")
        fastest = read_nifti(path, depth_axis="fastest")
        assert slowest.dims == (4, 3, 2)
        assert fastest.dims == (2, 3, 4)
        assert fastest.spacing == Spacing(1.0, 2.0, 3.0)
        assert np.array_equal(fastest.data, slowest.data.transpose(2, 1, 0))

    def test_unsupported_dtype_rejected_with_header_dump(self, tmp_path):
        path = tmp_path / "f8.nii"
        path.write_bytes(build_nifti(datatype=64))
        with pytest.raises(FormatError, match="datatype.*64|unsupported datatype 64"):
            read_nifti(path)
        with pytest.raises(FormatError, match="pixdim"):
            read_nifti(path)  # the header dump names fields

    def test_multi_frame_rejected(self, tmp_path):
        raw = bytearray(build_nifti())
        struct.pack_into("<8h", raw, 40, 4, 2, 2, 2, 3, 1, 1, 1)  # dim[4] = 3 frames
        path = tmp_path / "t.nii"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="single-frame"):
            read_nifti(path)

    def test_two_file_form_rejected(self, tmp_path):
        path = tmp_path / "pair.nii"
        path.write_bytes(build_nifti(magic=b"ni1\x00"))
        with pytest.raises(FormatError, match="n\\+1"):
            read_nifti(path)

    def test_truncated_payload_rejected(self, tmp_path):
        raw = build_nifti()
        path = tmp_path / "t.nii"
        path.write_bytes(raw[:-4])
        with pytest.raises(FormatError, match="truncated"):
            read_nifti(path)

    @pytest.mark.parametrize("depth_axis", ["slowest", "fastest"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
    def test_bad_pixdim_rejected(self, tmp_path, bad, depth_axis):
        path = tmp_path / "p.nii"
        path.write_bytes(build_nifti(pixdim=(0.7816, bad, 3.0)))
        with pytest.raises(FormatError, match="invalid pixdim"):
            read_nifti(path, depth_axis=depth_axis)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["vox_offset", "scl_slope", "scl_inter"])
    def test_non_finite_header_field_rejected(self, tmp_path, field, bad):
        fields = {"scl_slope": 2.0, field: bad}  # scl_inter is read only under a nonzero slope
        path = tmp_path / "h.nii"
        path.write_bytes(build_nifti(**fields))
        with pytest.raises(FormatError, match=f"non-finite {field}"):
            read_nifti(path)

    def test_scl_inter_ignored_under_zero_slope(self, tmp_path):
        path = tmp_path / "z.nii"
        path.write_bytes(build_nifti(scl_slope=0.0, scl_inter=float("nan")))
        assert read_nifti(path).data[0, 0, 1] == 1

    @pytest.mark.parametrize(
        "damage",
        [
            lambda z: z[: len(z) // 2],  # truncated: EOFError from gzip
            lambda z: z[:2] + b"not a deflate stream",  # bad header: gzip.BadGzipFile
            lambda z: z[:10] + b"\xff" * 20,  # bad deflate block: zlib.error
        ],
        ids=["truncated", "garbage_after_magic", "bad_block"],
    )
    def test_corrupt_gzip_rejected(self, tmp_path, damage):
        path = tmp_path / "c.nii.gz"
        path.write_bytes(damage(gzip.compress(build_nifti())))
        with pytest.raises(FormatError, match="corrupt gzip"):
            read_nifti(path)

    def test_not_nifti_rejected(self, tmp_path):
        path = tmp_path / "x.nii"
        path.write_bytes(b"\x00" * 400)
        with pytest.raises(FormatError, match="sizeof_hdr"):
            read_nifti(path)
