"""Named parameter sets and their binary file format.

File layout (little-endian): magic ``C2FW``, version u32 = 1, parameter
count u32, then per parameter: name length u16 + UTF-8 name, rank u8,
dims u32 x rank, raw float32 data; finally a CRC32 (u32) of every
preceding byte.
"""

from __future__ import annotations

import math
import struct
import zlib
from pathlib import Path

import numpy as np

from ..errors import FormatError
from ..fileio import open_regular

MAGIC = b"C2FW"
VERSION = 1


class ModelWeights:
    """An ordered, read-only mapping of parameter name -> float32 array."""

    def __init__(self, params: dict[str, np.ndarray]):
        items: dict[str, np.ndarray] = {}
        for name, arr in params.items():
            if not name:
                raise ValueError("parameter names must be non-empty")
            a = np.ascontiguousarray(arr, dtype=np.float32)
            if not np.all(np.isfinite(a)):
                raise ValueError(f"parameter {name!r} contains non-finite values")
            a.flags.writeable = False
            items[name] = a
        self._params = items

    def __getitem__(self, name: str) -> np.ndarray:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModelWeights):
            return NotImplemented
        if self.names() != other.names():
            return False
        return all(
            a.shape == other[n].shape and np.array_equal(a, other[n], equal_nan=False)
            for n, a in self.items()
        )


def save_weights(w: ModelWeights, destination) -> None:
    """Serialize weights; ``load_weights(save_weights(w)) == w`` bit-exactly."""
    chunks = [MAGIC, struct.pack("<II", VERSION, len(w))]
    for name, arr in w.items():
        nb = name.encode("utf-8")
        if len(nb) > 0xFFFF:
            raise ValueError(f"parameter name too long: {name!r}")
        chunks.append(struct.pack("<H", len(nb)))
        chunks.append(nb)
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.astype("<f4", copy=False).tobytes())
    body = b"".join(chunks)
    Path(destination).write_bytes(body + struct.pack("<I", zlib.crc32(body)))


def load_weights(source) -> ModelWeights:
    """Parse a weight file, rejecting any malformed or truncated content and any file that is not a regular one."""
    with open_regular(source) as f:
        raw = f.read()
    if len(raw) < 12:
        raise FormatError(f"weight file too short ({len(raw)} bytes)")
    if raw[:4] != MAGIC:
        raise FormatError(f"bad magic {raw[:4]!r}, expected {MAGIC!r}")
    version, count = struct.unpack_from("<II", raw, 4)
    if version != VERSION:
        raise FormatError(f"unsupported weight file version {version}")

    view = memoryview(raw)
    off, end = 12, len(raw) - 4  # the body ends where the CRC trailer starts

    def take(n: int) -> memoryview:
        """The next ``n`` body bytes of parameter ``k``, without copying them."""
        nonlocal off
        if off + n > end:
            raise FormatError(f"truncated at parameter {k}")
        off += n
        return view[off - n : off]

    params: dict[str, np.ndarray] = {}
    for k in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        name_bytes = take(name_len)
        (rank,) = take(1)
        try:
            name = str(name_bytes, "utf-8")
        except UnicodeDecodeError as e:
            raise FormatError(f"parameter {k} name is not UTF-8: {e}") from None
        dims = struct.unpack(f"<{rank}I", take(4 * rank))
        n = math.prod(dims)  # Python ints: dims from the file cannot overflow it
        data = np.frombuffer(take(4 * n), dtype="<f4").reshape(dims)
        if name in params:
            raise FormatError(f"duplicate parameter name {name!r}")
        params[name] = data.copy()
    if off > end:  # only a parameter-free file reaches here without room for the checksum
        raise FormatError(f"weight file too short ({len(raw)} bytes)")
    if off != end:
        raise FormatError(f"{end - off} unexpected trailing bytes before checksum")
    (stored_crc,) = struct.unpack_from("<I", raw, end)
    actual_crc = zlib.crc32(view[:end])
    if stored_crc != actual_crc:
        raise FormatError(f"checksum mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}")
    try:
        return ModelWeights(params)
    except ValueError as exc:
        raise FormatError(f"invalid parameter data: {exc}") from None
