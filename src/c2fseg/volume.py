"""Volumetric data model: 3D grids with physical voxel spacing.

Axis order is fixed as (depth, height, width). Axial slices are
(height, width) planes indexed by depth; sagittal slices are
(depth, height) planes indexed by width. Three containers share one base
that checks for 3D data with positive dims and gives each ``check_grid``,
the one same-dims-and-spacing test: ``Volume3D`` (float32 intensities of
any source dtype), ``Mask3D`` (voxels strictly in {0, 1}) and
``LabelMap3D`` (int32 component ids).

All containers are immutable after construction (the backing numpy arrays
are marked read-only), so they can be shared freely across threads. A
constructor takes ownership of an input array that needs no copy (already
C-contiguous and of the container's dtype) and marks it read-only; pass a
copy to keep writing to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Literal, Union

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
class _Grid:
    """A read-only (D, H, W) array with spacing; each subclass's ``_own(arr)`` checks ``arr`` and freezes it."""

    data: np.ndarray
    spacing: Spacing
    _names: ClassVar[tuple[str, str]]  # how errors name the data and its dims

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim != 3:
            raise GeometryError(f"{self._names[0]} must be 3D, got shape {arr.shape}")
        if min(arr.shape) < 1:
            raise GeometryError(f"{self._names[1]} must be positive, got {arr.shape}")
        object.__setattr__(self, "data", self._own(arr))

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape

    def check_grid(self, other: _Grid, what: str) -> None:
        """Raise ``GeometryError`` naming ``what`` unless ``other`` has this grid's dims and spacing."""
        if other.dims != self.dims or other.spacing != self.spacing:
            raise GeometryError(f"{what} grid {other.dims}/{other.spacing} does not match {self.dims}/{self.spacing}")


@dataclass(frozen=True)
class Volume3D(_Grid):
    """A (D, H, W) grid of float32 intensities with physical spacing."""

    _names = ("volume data", "volume dims")

    def _own(self, arr):
        arr = _freeze(arr, np.float32)
        if not np.all(np.isfinite(arr)):
            raise ValueError("volume data contains non-finite values")
        return arr


@dataclass(frozen=True)
class Mask3D(_Grid):
    """A (D, H, W) grid of binary labels (uint8, values 0 or 1)."""

    _names = ("mask data", "mask dims")

    def _own(self, arr):
        by_max = arr.dtype in (np.uint8, np.bool_)  # binary iff max <= 1: a reduction, no mask-size temporary
        if arr.max() > 1 if by_max else ((arr != 0) & (arr != 1)).any():
            bad = arr[(arr != 0) & (arr != 1)].ravel()[0]
            raise ValueError(f"mask data must be binary, found value {bad}")
        return _freeze(arr, np.uint8)

    def foreground_count(self) -> int:
        return int(self.data.sum(dtype=np.int64))


@dataclass(frozen=True)
class LabelMap3D(_Grid):
    """Per-voxel component ids; 0 is background, ids 1..n_components contiguous."""

    n_components: int
    _names = ("label map", "label map dims")

    def _own(self, arr):
        return _freeze(arr, np.int32)


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
