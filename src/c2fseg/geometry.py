"""Spatial transforms of the pipeline, each paired with an exact inverse.

Four transforms: whole-volume spacing resample, slice resize to a canonical
image size (pixel size floats), fixed-pixel-size crop, and the zero-padding
inverses of the latter two. The slice transforms take one plane or a stack
of planes and do the same to every plane, with one record for all of them.

Sampling conventions, fixed so round-trip tests are stable:

- output sample i reads source coordinate ``i * step_ratio``, edge-clamped
  to the source extent (voxel 0 centres of source and target coincide)
- linear interpolation uses the ``v0 + f * (v1 - v0)`` form, so constant
  inputs come back exactly
- resampling is separable and runs one (H, W) plane at a time: each input
  plane gets its W then H pass in float64, then each output plane is
  lerped in D from its two resampled input planes and cast to float32 once
  (at most two resampled planes are held per chunk of output planes, so the
  peak stays near the output's size); this is bit-identical to blending the
  4 (2D) or 8 (3D) surrounding corners in the order W, H, D
- nearest-neighbour picks ``floor(coord + 0.5)``
- output dims under a spacing resample are round-half-up, minimum 1
- crop windows start at ``center - dim // 2``; for odd window dims the
  top/left side holds the smaller half
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from . import parallel
from .errors import GeometryError
from .volume import AnyVolume, Mask3D, Spacing

InterpMode = Literal["trilinear", "nearest"]
ResizeMode = Literal["bilinear", "nearest"]


@dataclass(frozen=True)
class ResizeRecord:
    """What a resize did, sufficient to map a prediction back."""

    original_dims: tuple[int, int]
    target_dims: tuple[int, int]


@dataclass(frozen=True)
class CropRecord:
    """Where a fixed-size window sits on its source: the one owner of the window arithmetic.

    The window starts at ``center - patch_dims // 2``. The centre must lie
    inside the source, so the window always overlaps it; ``pad`` and
    ``windows`` describe the overlap.
    """

    center: tuple[int, int]
    patch_dims: tuple[int, int]
    source_dims: tuple[int, int]

    def __post_init__(self):
        cr, cc = int(self.center[0]), int(self.center[1])
        rows, cols = int(self.source_dims[0]), int(self.source_dims[1])
        if not (0 <= cr < rows and 0 <= cc < cols):
            raise GeometryError(f"center {self.center} outside source dims {(rows, cols)}")
        pr, pc = int(self.patch_dims[0]), int(self.patch_dims[1])
        if pr < 1 or pc < 1:
            raise ValueError(f"patch dims must be positive, got {self.patch_dims}")
        object.__setattr__(self, "center", (cr, cc))
        object.__setattr__(self, "patch_dims", (pr, pc))
        object.__setattr__(self, "source_dims", (rows, cols))

    @property
    def _start(self) -> tuple[int, int]:
        """The window's top-left pixel on the source grid; negative where it starts outside."""
        return self.center[0] - self.patch_dims[0] // 2, self.center[1] - self.patch_dims[1] // 2

    @property
    def pad(self) -> tuple[int, int, int, int]:
        """(top, bottom, left, right) pixel counts of the window outside the source, zero in the patch."""
        (r0, c0), (pr, pc), (rows, cols) = self._start, self.patch_dims, self.source_dims
        return max(0, -r0), max(0, r0 + pr - rows), max(0, -c0), max(0, c0 + pc - cols)

    @property
    def windows(self) -> tuple[tuple[slice, slice], tuple[slice, slice]]:
        """The (rows, cols) slices of the window's in-source part: in the source, then in the patch."""
        (r0, c0), (pr, pc), (top, bottom, left, right) = self._start, self.patch_dims, self.pad
        source = (slice(r0 + top, r0 + pr - bottom), slice(c0 + left, c0 + pc - right))
        return source, (slice(top, pr - bottom), slice(left, pc - right))


def _axis(n_src: int, n_out: int, step_ratio: float, linear: bool):
    """Per output index along one axis: the source index (nearest), or (i0, i1, f) (linear)."""
    x = np.arange(n_out, dtype=np.float64) * step_ratio
    np.clip(x, 0.0, float(n_src - 1), out=x)  # edge-clamped source coordinates
    if not linear:
        return np.clip(np.floor(x + 0.5).astype(np.intp), 0, n_src - 1)
    i0 = np.minimum(np.floor(x).astype(np.intp), n_src - 1)
    return i0, np.minimum(i0 + 1, n_src - 1), x - i0


def _lerp(v0: np.ndarray, v1: np.ndarray, f) -> np.ndarray:
    """``v0 + f * (v1 - v0)`` in float64, in one fresh array."""
    d = np.subtract(v1, v0, dtype=np.float64)
    d *= f
    d += v0
    return d


def _resample_plane(plane: np.ndarray, rows, cols, linear: bool) -> np.ndarray:
    """The W then H pass over one (H, W) plane; linear results stay float64."""
    for ax, table in ((1, cols), (0, rows)):
        if linear:
            i0, i1, f = table
            plane = _lerp(np.take(plane, i0, axis=ax), np.take(plane, i1, axis=ax), f if ax else f[:, None])
        else:
            plane = np.take(plane, table, axis=ax)
    return plane


def _resample_axes(data: np.ndarray, out_dims, ratios, linear: bool) -> np.ndarray:
    """Resample the last ``len(out_dims)`` axes of ``data``, one (H, W) plane at a time.

    Each input plane gets a W then an H pass. A 3D resample then lerps each
    output plane from its two resampled input planes in D; for a plane or a
    stack, output plane k is input plane k. That is the order in which the
    2^n-corner blend lerps, so the result is bit-identical to that blend.
    Linear passes run in float64 and each output plane is cast to float32
    once. An axis with ratio 1 is still lerped (``f = 0``): the blend lerps
    it too, which turns a ``-0.0`` next to a positive value into ``+0.0``.
    The output planes go through ``parallel.split_planes`` in contiguous
    chunks, each with its own two-plane cache, so an input plane on a chunk
    boundary may be resampled twice, to the same bytes.
    """
    planes = data.reshape((-1,) + data.shape[-2:])  # a single plane is a stack of one
    rows, cols = (_axis(n, m, r, linear) for n, m, r in zip(data.shape[-2:], out_dims[-2:], ratios[-2:]))
    lo = hi = np.arange(len(planes))
    f = None
    if len(out_dims) == 3:
        src = _axis(len(planes), out_dims[0], ratios[0], linear)
        lo, hi, f = src if linear else (src, src, None)
    out = np.empty((len(lo),) + tuple(out_dims[-2:]), np.float32 if linear else data.dtype)
    lo, hi = lo.tolist(), hi.tolist()

    def chunk(first: int, stop: int) -> None:  # output planes first..stop-1
        kept: dict[int, np.ndarray] = {}  # resampled input planes; the D indices only rise, so two suffice
        for k in range(first, stop):
            i0, i1 = lo[k], hi[k]
            for i in sorted({i0, i1} - kept.keys()):
                if len(kept) == 2:
                    del kept[min(kept)]
                kept[i] = _resample_plane(planes[i], rows, cols, linear)
            out[k] = kept[i0] if f is None else _lerp(kept[i0], kept[i1], f[k])

    parallel.split_planes(len(out), chunk)
    return out if data.ndim == 3 else out[0]


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def resample_volume(
    vol: AnyVolume,
    target: Spacing,
    mode: InterpMode | None = None,
    target_dims: tuple[int, int, int] | None = None,
) -> AnyVolume:
    """Resample a volume or mask onto a grid with the given voxel spacing.

    Output dims default to round-half-up(dim * src_spacing / target_spacing)
    per axis (minimum 1); pass ``target_dims`` to force an exact output grid
    (used to map results back onto a native grid). Intensities interpolate
    trilinearly, masks use nearest neighbour and stay binary; ``mode``
    defaults accordingly and trilinear is rejected for masks. A volume
    already on the target grid is returned as it is.
    """
    is_mask = isinstance(vol, Mask3D)
    if mode is None:
        mode = "nearest" if is_mask else "trilinear"
    if mode not in ("trilinear", "nearest"):
        raise ValueError(f"unknown resample mode {mode!r}")
    if is_mask and mode == "trilinear":
        raise ValueError("trilinear resampling would break mask binarity; use nearest")

    src = vol.spacing.as_tuple()
    dst = target.as_tuple()
    if target_dims is None:
        out_dims = tuple(
            max(1, _round_half_up(n * s / t)) for n, s, t in zip(vol.dims, src, dst)
        )
    else:
        out_dims = tuple(int(n) for n in target_dims)
        if min(out_dims) < 1:
            raise GeometryError(f"target dims must be positive, got {target_dims}")

    if out_dims == vol.dims and dst == src:
        return vol

    ratios = tuple(t / s for s, t in zip(src, dst))
    out = _resample_axes(vol.data, out_dims, ratios, linear=(mode == "trilinear"))
    return type(vol)(out, target)


def _slice_array(s) -> np.ndarray:
    """``s`` as an array, if it is a non-empty (H, W) plane or (N, H, W) stack."""
    arr = np.asarray(s)
    if arr.ndim not in (2, 3) or arr.size == 0:
        raise GeometryError(f"slice data must be a non-empty 2D plane or 3D stack, got shape {arr.shape}")
    return arr


def resize_slice(
    s: np.ndarray, target_dims: tuple[int, int], mode: ResizeMode = "bilinear"
) -> tuple[np.ndarray, ResizeRecord]:
    """Resize a plane or stack to a fixed image size.

    Use ``mode="nearest"`` for label slices so they stay binary.
    """
    s = _slice_array(s)
    if mode not in ("bilinear", "nearest"):
        raise ValueError(f"unknown resize mode {mode!r}")
    tr, tc = int(target_dims[0]), int(target_dims[1])
    if tr < 1 or tc < 1:
        raise ValueError(f"target dims must be positive, got {target_dims}")
    rec = ResizeRecord(s.shape[-2:], (tr, tc))
    if (tr, tc) == s.shape[-2:]:
        return s, rec
    ratios = (s.shape[-2] / tr, s.shape[-1] / tc)
    return _resample_axes(s, (tr, tc), ratios, linear=(mode == "bilinear")), rec


def unresize(p: np.ndarray, rec: ResizeRecord, mode: ResizeMode = "bilinear") -> np.ndarray:
    """Invert a resize: resize a prediction back to the recorded original size."""
    p = _slice_array(p)
    if p.shape[-2:] != rec.target_dims:
        raise GeometryError(
            f"prediction dims {p.shape[-2:]} do not match resize record target {rec.target_dims}"
        )
    return resize_slice(p, rec.original_dims, mode)[0]


def crop_patch(
    s: np.ndarray, center: tuple[int, int], patch_dims: tuple[int, int]
) -> tuple[np.ndarray, CropRecord]:
    """Cut a fixed-size float32 window centred on a pixel of every plane; out-of-bounds area is zero."""
    s = _slice_array(s)
    rec = CropRecord(center, patch_dims, s.shape[-2:])
    (rows, cols), (prows, pcols) = rec.windows
    patch = np.zeros(s.shape[:-2] + rec.patch_dims, dtype=np.float32)
    patch[..., prows, pcols] = s[..., rows, cols]
    return patch, rec


def uncrop_patch(p: np.ndarray, rec: CropRecord) -> np.ndarray:
    """Invert a crop: place patch values back into a float32 frame, zero everywhere else.

    Patch pixels that were boundary padding are discarded.
    """
    p = _slice_array(p)
    if p.shape[-2:] != rec.patch_dims:
        raise GeometryError(
            f"patch dims {p.shape[-2:]} do not match crop record patch dims {rec.patch_dims}"
        )
    (rows, cols), (prows, pcols) = rec.windows
    out = np.zeros(p.shape[:-2] + rec.source_dims, dtype=np.float32)
    out[..., rows, cols] = p[..., prows, pcols]
    return out
