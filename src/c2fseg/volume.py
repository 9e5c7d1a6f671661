"""Volumetric data model: 3D scalar grids with physical voxel spacing.

Axis order is fixed as (depth, height, width). Axial slices are
(height, width) planes indexed by depth; sagittal slices are
(depth, height) planes indexed by width. Intensities are held as 32-bit
floats regardless of source dtype; mask voxels are strictly {0, 1}.

All containers are immutable after construction (the backing numpy arrays
are marked read-only), so they can be shared freely across threads. A
constructor takes ownership of an input array that needs no copy (already
C-contiguous and of the container's dtype) and marks it read-only; pass a
copy to keep writing to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Union

import numpy as np

from .errors import GeometryError

Plane = Literal["axial", "sagittal"]

_PLANES = ("axial", "sagittal")


@dataclass(frozen=True)
class Spacing:
    """Physical voxel size in millimetres along (depth, height, width).

    Components are canonicalized to 32-bit float precision so that spacing
    survives the on-disk formats (which store f32) bit-exactly.
    """

    d: float
    h: float
    w: float

    def __post_init__(self):
        for name in ("d", "h", "w"):
            v = float(np.float32(getattr(self, name)))
            if not (np.isfinite(v) and v > 0):
                raise ValueError(f"spacing.{name} must be positive and finite, got {getattr(self, name)!r}")
            object.__setattr__(self, name, v)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.d, self.h, self.w)


def _freeze(arr: np.ndarray, dtype) -> np.ndarray:
    """A read-only C-contiguous array of ``dtype``: a copy if one is needed, else ``arr`` itself made read-only."""
    arr = np.ascontiguousarray(arr, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Volume3D:
    """A (D, H, W) grid of float32 intensities with physical spacing."""

    data: np.ndarray
    spacing: Spacing

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim != 3:
            raise GeometryError(f"volume data must be 3D, got shape {arr.shape}")
        if min(arr.shape) < 1:
            raise GeometryError(f"volume dims must be positive, got {arr.shape}")
        arr = _freeze(arr, np.float32)
        if not np.all(np.isfinite(arr)):
            raise ValueError("volume data contains non-finite values")
        object.__setattr__(self, "data", arr)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape


@dataclass(frozen=True)
class Mask3D:
    """A (D, H, W) grid of binary labels (uint8, values 0 or 1)."""

    data: np.ndarray
    spacing: Spacing

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim != 3:
            raise GeometryError(f"mask data must be 3D, got shape {arr.shape}")
        if min(arr.shape) < 1:
            raise GeometryError(f"mask dims must be positive, got {arr.shape}")
        by_max = arr.dtype in (np.uint8, np.bool_)  # binary iff max <= 1: a reduction, no mask-size temporary
        if arr.max() > 1 if by_max else ((arr != 0) & (arr != 1)).any():
            bad = arr[(arr != 0) & (arr != 1)].ravel()[0]
            raise ValueError(f"mask data must be binary, found value {bad}")
        object.__setattr__(self, "data", _freeze(arr, np.uint8))

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape

    def foreground_count(self) -> int:
        return int(self.data.sum(dtype=np.int64))


def _check_plane(plane: str) -> None:
    if plane not in _PLANES:
        raise ValueError(f"plane must be one of {_PLANES}, got {plane!r}")


AnyVolume = Union[Volume3D, Mask3D]


def extract_slices(vol: AnyVolume, plane: Plane) -> np.ndarray:
    """A volume's planes along an anatomical plane, in order, as one read-only stack.

    Axial gives (D, H, W), sagittal (W, D, H); both are views of ``vol.data``, not copies.
    """
    _check_plane(plane)
    return vol.data if plane == "axial" else vol.data.transpose(2, 0, 1)


def compose_slices(stack: np.ndarray, plane: Plane, dims: tuple[int, int, int], spacing: Spacing) -> Volume3D:
    """Reassemble a stack of planes into a 3D float32 volume of ``dims``.

    ``compose_slices(extract_slices(v), ...)`` reproduces ``v.data`` bit-exactly.
    """
    _check_plane(plane)
    nd, nh, nw = dims
    expected = (nd, nh, nw) if plane == "axial" else (nw, nd, nh)
    if stack.shape != expected:
        raise GeometryError(f"{plane} composition of dims {dims} needs a stack of shape {expected}, got {stack.shape}")
    return Volume3D(stack if plane == "axial" else stack.transpose(1, 2, 0), spacing)


def voxel_volume_ml(spacing: Spacing, n_voxels: int) -> float:
    """Physical volume in millilitres of ``n_voxels`` voxels at ``spacing``."""
    if n_voxels < 0:
        raise ValueError(f"n_voxels must be non-negative, got {n_voxels}")
    return n_voxels * spacing.d * spacing.h * spacing.w / 1000.0


def binarize(prob: Volume3D, threshold: float = 0.5) -> Mask3D:
    """Threshold a probability volume to a mask: 1 where value >= threshold, else 0."""
    if not (0.0 < threshold < 1.0):
        raise ValueError(f"threshold must lie strictly inside (0, 1), got {threshold}")
    return Mask3D((prob.data >= threshold).astype(np.uint8), prob.spacing)
