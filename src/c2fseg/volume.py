"""Volumetric data model: 3D scalar grids with physical voxel spacing.

Axis order is fixed as (depth, height, width). Axial slices are
(height, width) planes indexed by depth; sagittal slices are
(depth, height) planes indexed by width. Intensities are held as 32-bit
floats regardless of source dtype; mask voxels are strictly {0, 1}.

All containers are immutable after construction (the backing numpy arrays
are marked read-only), so they can be shared freely across threads.
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


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
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
        arr = arr.astype(np.float32, copy=not (arr.dtype == np.float32 and arr.flags.c_contiguous))
        if not np.all(np.isfinite(arr)):
            raise ValueError("volume data contains non-finite values")
        object.__setattr__(self, "data", _freeze(arr))

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
        if ((arr != 0) & (arr != 1)).any():
            bad = arr[(arr != 0) & (arr != 1)].ravel()[0]
            raise ValueError(f"mask data must be binary, found value {bad!r}")
        arr = arr.astype(np.uint8, copy=not (arr.dtype == np.uint8 and arr.flags.c_contiguous))
        object.__setattr__(self, "data", _freeze(arr))

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape

    def foreground_count(self) -> int:
        return int(self.data.sum(dtype=np.int64))


def _check_plane(plane: str) -> None:
    if plane not in _PLANES:
        raise ValueError(f"plane must be one of {_PLANES}, got {plane!r}")


@dataclass(frozen=True)
class Slice2D:
    """A 2D plane extracted from a volume.

    ``pixel_spacing`` is (mm per row step, mm per column step).
    """

    data: np.ndarray
    pixel_spacing: tuple[float, float]

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim != 2 or min(arr.shape) < 1:
            raise GeometryError(f"slice data must be 2D and non-empty, got shape {arr.shape}")
        arr = arr.astype(np.float32, copy=not (arr.dtype == np.float32 and arr.flags.c_contiguous))
        if not np.all(np.isfinite(arr)):
            raise ValueError("slice data contains non-finite values")
        ps = tuple(float(s) for s in self.pixel_spacing)
        if len(ps) != 2 or any(not (np.isfinite(s) and s > 0) for s in ps):
            raise ValueError(f"pixel_spacing must be two positive floats, got {self.pixel_spacing!r}")
        object.__setattr__(self, "data", _freeze(arr))
        object.__setattr__(self, "pixel_spacing", ps)

    @property
    def dims(self) -> tuple[int, int]:
        return self.data.shape


AnyVolume = Union[Volume3D, Mask3D]


def extract_slices(vol: AnyVolume, plane: Plane) -> list[Slice2D]:
    """Split a volume into ordered 2D slices along an anatomical plane.

    Axial yields D slices of (H, W) with pixel spacing (h, w); sagittal
    yields W slices of (D, H) with pixel spacing (d, h).
    """
    _check_plane(plane)
    d, h, w = vol.spacing.as_tuple()
    data = vol.data
    if plane == "axial":
        return [Slice2D(data[k, :, :], (h, w)) for k in range(data.shape[0])]
    return [Slice2D(data[:, :, k], (d, h)) for k in range(data.shape[2])]


def compose_slices(
    slices: list[Slice2D],
    plane: Plane,
    dims: tuple[int, int, int],
    spacing: Spacing,
) -> Volume3D:
    """Reassemble 2D slices into a 3D float32 volume.

    ``compose_slices(extract_slices(v), ...)`` reproduces ``v.data`` bit-exactly.
    """
    _check_plane(plane)
    nd, nh, nw = dims
    expected_count = nd if plane == "axial" else nw
    expected_dims = (nh, nw) if plane == "axial" else (nd, nh)
    if len(slices) != expected_count:
        raise GeometryError(
            f"{plane} composition of dims {dims} needs {expected_count} slices, got {len(slices)}"
        )
    for k, s in enumerate(slices):
        if s.data.shape != expected_dims:
            raise GeometryError(
                f"slice {k} has dims {s.data.shape}, expected {expected_dims} for {plane} dims {dims}"
            )
    out = np.empty(dims, dtype=np.float32)
    if plane == "axial":
        for k, s in enumerate(slices):
            out[k, :, :] = s.data
    else:
        for k, s in enumerate(slices):
            out[:, :, k] = s.data
    return Volume3D(out, spacing)


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
