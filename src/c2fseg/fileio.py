"""On-disk volume formats.

RVOL is the native format (little-endian): magic ``RVOL``, version u32 = 1,
dims u32 x 3 (D, H, W), spacing f32 x 3 (d, h, w) mm, dtype code u8
(0 = float32 intensity, 1 = uint8 mask), row-major payload, CRC32 (u32) of
every preceding byte. Every violation is rejected with a distinct cause.

NIfTI-1 single-file volumes (optionally gzipped) are read-only inputs.
"""

from __future__ import annotations

import gzip
import math
import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import FormatError
from .volume import AnyVolume, Mask3D, Spacing, Volume3D

RVOL_MAGIC = b"RVOL"
RVOL_VERSION = 1
_DTYPE_F32 = 0
_DTYPE_MASK = 1


def write_volume(vol: AnyVolume, path) -> None:
    is_mask = isinstance(vol, Mask3D)
    header = (
        struct.pack("<I", RVOL_VERSION)
        + struct.pack("<3I", *vol.dims)
        + struct.pack("<3f", *vol.spacing.as_tuple())
        + struct.pack("<B", _DTYPE_MASK if is_mask else _DTYPE_F32)
    )
    payload = vol.data.astype("<u1" if is_mask else "<f4", copy=False).tobytes()
    body = RVOL_MAGIC + header + payload
    Path(path).write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))


def _construct(cls, what: str, *args):
    """``cls(*args)``, with the constructor's ValueError raised as a FormatError naming ``what``."""
    try:
        return cls(*args)
    except ValueError as exc:
        raise FormatError(f"invalid {what}: {exc}") from None


def read_volume(path) -> AnyVolume:
    raw = Path(path).read_bytes()
    if len(raw) < 4 or raw[:4] != RVOL_MAGIC:
        raise FormatError(f"bad magic {raw[:4]!r}, expected {RVOL_MAGIC!r}")
    if len(raw) < 33:
        raise FormatError(f"header truncated: file is {len(raw)} bytes")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != RVOL_VERSION:
        raise FormatError(f"unsupported version {version}")
    dims = struct.unpack_from("<3I", raw, 8)
    spacing = struct.unpack_from("<3f", raw, 20)
    dtype_code = raw[32]
    if dtype_code not in (_DTYPE_F32, _DTYPE_MASK):
        raise FormatError(f"unknown dtype code {dtype_code}")
    if min(dims) < 1:
        raise FormatError(f"invalid dims {dims}")
    n = math.prod(dims)  # Python ints: dims from the file cannot overflow it
    itemsize = 1 if dtype_code == _DTYPE_MASK else 4
    expected = 33 + n * itemsize + 4
    if len(raw) != expected:
        raise FormatError(f"payload length mismatch: file is {len(raw)} bytes, expected {expected}")
    body_end = len(raw) - 4
    (stored_crc,) = struct.unpack_from("<I", raw, body_end)
    actual_crc = zlib.crc32(memoryview(raw)[:body_end]) & 0xFFFFFFFF  # no copy of the body
    if stored_crc != actual_crc:
        raise FormatError(f"checksum mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}")
    sp = _construct(Spacing, f"spacing {spacing}", *spacing)
    if dtype_code == _DTYPE_MASK:
        data = np.frombuffer(raw, dtype="<u1", count=n, offset=33).reshape(dims)
        if data.max() > 1:
            bad = data[data > 1][0]
            raise FormatError(f"mask payload contains non-binary byte {bad}")
        return Mask3D(data, sp)
    data = np.frombuffer(raw, dtype="<f4", count=n, offset=33).reshape(dims)
    return _construct(Volume3D, "volume payload", data, sp)


# --- NIfTI-1 ---------------------------------------------------------------

_NIFTI_DTYPES = {2: np.uint8, 4: np.int16, 16: np.float32}
_HDR_SIZE = 348


def _read_maybe_gzip(path) -> bytes:
    raw = Path(path).read_bytes()
    if raw[:2] == b"\x1f\x8b":
        try:
            return gzip.decompress(raw)
        except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
            raise FormatError(f"corrupt gzip stream: {exc}") from None
    return raw


def _parse_header(raw: bytes) -> dict:
    if len(raw) < _HDR_SIZE:
        raise FormatError(f"file too short for a NIfTI-1 header ({len(raw)} bytes)")
    for order in ("<", ">"):
        (sizeof_hdr,) = struct.unpack_from(order + "i", raw, 0)
        if sizeof_hdr == _HDR_SIZE:
            break
    else:
        raise FormatError(f"sizeof_hdr is {struct.unpack_from('<i', raw, 0)[0]}, expected 348")
    hdr = {
        "byte_order": order,
        "dim": struct.unpack_from(order + "8h", raw, 40),
        "datatype": struct.unpack_from(order + "h", raw, 70)[0],
        "bitpix": struct.unpack_from(order + "h", raw, 72)[0],
        "pixdim": struct.unpack_from(order + "8f", raw, 76),
        "vox_offset": struct.unpack_from(order + "f", raw, 108)[0],
        "scl_slope": struct.unpack_from(order + "f", raw, 112)[0],
        "scl_inter": struct.unpack_from(order + "f", raw, 116)[0],
        "magic": raw[344:348],
    }
    return hdr


def _header_dump(hdr: dict) -> str:
    keys = ("magic", "dim", "datatype", "bitpix", "pixdim", "vox_offset", "scl_slope", "scl_inter")
    return ", ".join(f"{k}={hdr[k]!r}" for k in keys)


def read_nifti(path, depth_axis: str = "slowest") -> AnyVolume:
    """Read a single-frame NIfTI-1 volume (optionally gzip-compressed).

    ``depth_axis`` picks which stored axis becomes the axial index: the
    default "slowest" treats the slowest-varying stored axis as depth (so
    dims map to (D, H, W) = (dim[3], dim[2], dim[1]) and spacing to
    (pixdim[3], pixdim[2], pixdim[1])); "fastest" transposes that choice.
    Integer payloads that hold only {0, 1} and carry no scaling come back
    as a Mask3D, everything else as a Volume3D.
    """
    if depth_axis not in ("slowest", "fastest"):
        raise ValueError(f"depth_axis must be 'slowest' or 'fastest', got {depth_axis!r}")
    raw = _read_maybe_gzip(path)
    hdr = _parse_header(raw)
    if hdr["magic"] != b"n+1\x00":
        raise FormatError(
            f"unsupported magic {hdr['magic']!r} (only single-file 'n+1' volumes); header: {_header_dump(hdr)}"
        )
    dim = hdr["dim"]
    ndim = dim[0]
    if ndim < 3 or ndim > 7 or any(d > 1 for d in dim[4 : ndim + 1]):
        raise FormatError(f"not a single-frame 3D volume; header: {_header_dump(hdr)}")
    if hdr["datatype"] not in _NIFTI_DTYPES:
        raise FormatError(f"unsupported datatype {hdr['datatype']}; header: {_header_dump(hdr)}")
    nx, ny, nz = dim[1], dim[2], dim[3]
    if min(nx, ny, nz) < 1:
        raise FormatError(f"invalid dims; header: {_header_dump(hdr)}")

    np_dtype = np.dtype(_NIFTI_DTYPES[hdr["datatype"]]).newbyteorder(hdr["byte_order"])
    if not math.isfinite(hdr["vox_offset"]):
        raise FormatError(f"non-finite vox_offset; header: {_header_dump(hdr)}")
    offset = int(hdr["vox_offset"])
    if offset < _HDR_SIZE:
        raise FormatError(f"vox_offset {offset} overlaps the header; header: {_header_dump(hdr)}")
    n = nx * ny * nz
    if len(raw) < offset + n * np_dtype.itemsize:
        raise FormatError(
            f"payload truncated: need {offset + n * np_dtype.itemsize} bytes, file has {len(raw)}"
        )
    arr = np.frombuffer(raw, dtype=np_dtype, count=n, offset=offset).reshape(nz, ny, nx)

    slope, inter = hdr["scl_slope"], hdr["scl_inter"]
    scaled = slope != 0.0 and not (slope == 1.0 and inter == 0.0)
    if scaled:  # a zero slope means "unscaled", and scl_inter is then ignored
        for field, value in (("scl_slope", slope), ("scl_inter", inter)):
            if not math.isfinite(value):
                raise FormatError(f"non-finite {field}; header: {_header_dump(hdr)}")

    if depth_axis == "slowest":
        data = arr
        pixdim = hdr["pixdim"][3:0:-1]
    else:
        data = arr.transpose(2, 1, 0)
        pixdim = hdr["pixdim"][1:4]
    spacing = _construct(Spacing, f"pixdim {pixdim}", *pixdim)

    if scaled:
        with np.errstate(over="ignore"):  # an overflow is non-finite, rejected by the constructor
            data = data.astype(np.float32) * np.float32(slope) + np.float32(inter)
        what = f"payload scaled by scl_slope={slope!r}, scl_inter={inter!r}"
        return _construct(Volume3D, what, data, spacing)
    if np.issubdtype(np_dtype.base, np.integer) and data.min() >= 0 and data.max() <= 1:
        return Mask3D(data.astype(np.uint8), spacing)
    return _construct(Volume3D, "payload", data.astype(np.float32), spacing)
