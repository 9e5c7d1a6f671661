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
import os
import stat
import struct
import zlib

import numpy as np

from .errors import FormatError
from .volume import AnyVolume, Mask3D, Spacing, Volume3D

RVOL_MAGIC = b"RVOL"
RVOL_VERSION = 1
_DTYPE_F32 = 0
_DTYPE_MASK = 1


def write_volume(vol: AnyVolume, path) -> None:
    """Write ``vol`` as RVOL straight from its array: no copy of the payload is made."""
    is_mask = isinstance(vol, Mask3D)
    code = _DTYPE_MASK if is_mask else _DTYPE_F32
    head = RVOL_MAGIC + struct.pack("<I3I3fB", RVOL_VERSION, *vol.dims, *vol.spacing.as_tuple(), code)
    payload = np.ascontiguousarray(vol.data, dtype="<u1" if is_mask else "<f4")  # on a little-endian host: vol.data
    with open(path, "wb") as f:
        f.write(head)
        f.write(payload)
        f.write(struct.pack("<I", zlib.crc32(payload, zlib.crc32(head))))


def _construct(cls, what: str, *args):
    """``cls(*args)``, with the constructor's ValueError raised as a FormatError naming ``what``."""
    try:
        return cls(*args)
    except ValueError as exc:
        raise FormatError(f"invalid {what}: {exc}") from None


def open_regular(path):
    """``path`` opened for binary reading; a ``FormatError`` if it is not a regular file.

    Only a regular file's size bounds what a read of it allocates, so a pipe or a device is rejected before a
    byte is read. A FIFO is opened without waiting for a writer, so one that has none is rejected too.
    """
    # With O_NONBLOCK a FIFO opens at once, to be rejected below; a regular file ignores the flag.
    f = open(path, "rb", opener=lambda p, flags: os.open(p, flags | getattr(os, "O_NONBLOCK", 0)))
    if not stat.S_ISREG(os.fstat(f.fileno()).st_mode):
        f.close()
        raise FormatError("not a regular file: only a regular file's size bounds what the read allocates")
    return f


def read_volume(path) -> AnyVolume:
    with open_regular(path) as f:
        raw = f.read()
    if raw[:4] != RVOL_MAGIC:
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
    actual_crc = zlib.crc32(memoryview(raw)[:body_end])  # no copy of the body
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

# Bytes read, inflated or converted at a time.
_CHUNK = 1 << 18

# Deflate emits at most 1032 bytes per byte it reads (zlib's FAQ), so a gzip
# file of s bytes inflates to fewer than 1032 * s.
_DEFLATE_MAX_RATIO = 1032

_GZIP_MAGIC = b"\x1f\x8b"


class _FileBytes:
    """A regular file's bytes, front to back; inflated by ``gzip.GzipFile`` if the file starts with the gzip magic.

    A gzip file is accepted as ``gzip.decompress`` accepts it, and rejected with ``FormatError("corrupt gzip
    stream: <why>")`` and its reason. ``read(n)`` holds a chunk or two beside the n bytes it returns. ``total``
    counts the bytes returned so far; ``bound`` is more than the file can hold.
    """

    def __init__(self, f):
        size = os.fstat(f.fileno()).st_size
        zipped = f.peek(2)[:2] == _GZIP_MAGIC
        self._f = gzip.GzipFile(fileobj=f) if zipped else f
        self.bound = size * _DEFLATE_MAX_RATIO if zipped else size
        self.total = 0

    def read(self, n: int) -> bytes:
        """The next ``n`` bytes; fewer only where the file ends."""
        try:
            out = self._f.read(n)
        except (gzip.BadGzipFile, EOFError, zlib.error) as exc:
            why = "CRC check failed" if str(exc).startswith("CRC check failed") else exc  # as gzip.decompress words it
            raise FormatError(f"corrupt gzip stream: {why}") from None
        self.total += len(out)
        return out

    def drain(self) -> None:
        """Read to the end of the file, ``_CHUNK`` bytes at a time, checking every gzip member on the way."""
        while self.read(_CHUNK):
            pass


def _parse_header(raw: bytes) -> dict:
    """The header's fields, checked as far as the header alone allows, and the payload's ``dtype`` and ``offset``."""
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
    if min(dim[1:4]) < 1:
        raise FormatError(f"invalid dims; header: {_header_dump(hdr)}")
    if not math.isfinite(hdr["vox_offset"]):
        raise FormatError(f"non-finite vox_offset; header: {_header_dump(hdr)}")
    hdr["offset"] = int(hdr["vox_offset"])
    if hdr["offset"] < _HDR_SIZE:
        raise FormatError(f"vox_offset {hdr['offset']} overlaps the header; header: {_header_dump(hdr)}")
    hdr["dtype"] = np.dtype(_NIFTI_DTYPES[hdr["datatype"]]).newbyteorder(order)
    return hdr


def _header_dump(hdr: dict) -> str:
    keys = ("magic", "dim", "datatype", "bitpix", "pixdim", "vox_offset", "scl_slope", "scl_inter")
    return ", ".join(f"{k}={hdr[k]!r}" for k in keys)


def _read_payload(stream: _FileBytes, skip: int, dtype: np.dtype, n: int, scale) -> np.ndarray:
    """The ``n`` values of ``dtype`` that follow ``skip`` bytes of ``stream``, as one flat array.

    With ``scale`` None they come as stored; with ``scale`` = (slope, inter)
    as float32 ``value * slope + inter``, the bytes of ``astype(float32) *
    slope + inter``. The stream is read one chunk at a time, and each chunk
    is converted straight into its slice of the output. Where the stream
    ends early the rest of the output is left unset.
    """
    while skip > 0 and (got := len(stream.read(min(skip, _CHUNK)))):
        skip -= got
    out = np.empty(n, dtype=np.float32 if scale is not None else dtype)
    step = max(1, _CHUNK // dtype.itemsize)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result or scale is rejected once read
        for lo in range(0, n, step):
            size = min(step, n - lo) * dtype.itemsize
            raw = stream.read(size)
            if len(raw) < size:
                break
            src, dst = np.frombuffer(raw, dtype), out[lo : lo + step]
            if scale is None:
                dst[...] = src
            else:
                np.multiply(src, scale[0], out=dst, dtype=np.float32)
                np.add(dst, scale[1], out=dst)
    return out


def read_nifti(path, depth_axis: str = "slowest") -> AnyVolume:
    """Read a single-frame NIfTI-1 volume (optionally gzip-compressed).

    ``depth_axis`` picks which stored axis becomes the axial index: the
    default "slowest" treats the slowest-varying stored axis as depth (so
    dims map to (D, H, W) = (dim[3], dim[2], dim[1]) and spacing to
    (pixdim[3], pixdim[2], pixdim[1])); "fastest" transposes that choice.
    Integer payloads that hold only {0, 1} and carry no scaling come back
    as a Mask3D, everything else as a Volume3D.

    The file is read once, front to back, ``_CHUNK`` bytes at a time on the
    caller's thread, and a gzip file is inflated by ``gzip.GzipFile``: the
    reader holds the payload's array and a few chunks, never the whole file.
    It reads to the end even past the payload, so every gzip member is
    checked, and a corrupt gzip stream is reported before any error in the
    header. The payload's array is allocated only if the file can hold it,
    so the file must be a regular one (``open_regular``).
    """
    if depth_axis not in ("slowest", "fastest"):
        raise ValueError(f"depth_axis must be 'slowest' or 'fastest', got {depth_axis!r}")
    with open_regular(path) as f:
        stream = _FileBytes(f)
        head = stream.read(_HDR_SIZE)
        try:
            hdr = _parse_header(head)
        except FormatError:
            stream.drain()  # a corrupt gzip stream is reported before a bad header
            raise
        _, nx, ny, nz = hdr["dim"][:4]
        n, np_dtype = nx * ny * nz, hdr["dtype"]
        need = hdr["offset"] + n * np_dtype.itemsize
        slope, inter = hdr["scl_slope"], hdr["scl_inter"]
        scaled = slope != 0.0 and not (slope == 1.0 and inter == 0.0)
        scale = (np.float32(slope), np.float32(inter)) if scaled else None
        arr = _read_payload(stream, hdr["offset"] - _HDR_SIZE, np_dtype, n, scale) if need <= stream.bound else None
        stream.drain()
    if stream.total < need:
        raise FormatError(f"payload truncated: need {need} bytes, file has {stream.total}")
    arr = arr.reshape(nz, ny, nx)

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
        what = f"payload scaled by scl_slope={slope!r}, scl_inter={inter!r}"
        return _construct(Volume3D, what, data, spacing)
    if np.issubdtype(np_dtype.base, np.integer) and data.min() >= 0 and data.max() <= 1:
        return Mask3D(data.astype(np.uint8, copy=False), spacing)
    return _construct(Volume3D, "payload", data.astype(np.float32, copy=False), spacing)
