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
  (at most two resampled planes are held, so the peak stays near the
  output's size); this is bit-identical to blending the 4 (2D) or 8 (3D)
  surrounding corners in the order W, H, D
- nearest-neighbour picks ``floor(coord + 0.5)``
- output dims under a spacing resample are round-half-up, minimum 1
- crop windows start at ``center - dim // 2``; for odd window dims the
  top/left side holds the smaller half
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import GeometryError
from .volume import AnyVolume, Mask3D, Spacing, Volume3D

InterpMode = Literal["trilinear", "nearest"]
ResizeMode = Literal["bilinear", "nearest"]


@dataclass(frozen=True)
class ResizeRecord:
    """What a resize did, sufficient to map a prediction back."""

    original_dims: tuple[int, int]
    target_dims: tuple[int, int]

    def __post_init__(self):
        if min(self.original_dims) < 1 or min(self.target_dims) < 1:
            raise ValueError("resize record dims must be positive")


@dataclass(frozen=True)
class CropRecord:
    """What a crop did: window placement plus any boundary zero-padding.

    ``pad`` is (top, bottom, left, right) pixel counts that fell outside the
    source and were zero-filled in the patch.
    """

    center: tuple[int, int]
    patch_dims: tuple[int, int]
    source_dims: tuple[int, int]
    pad: tuple[int, int, int, int]

    def __post_init__(self):
        if min(self.patch_dims) < 1:
            raise ValueError("patch dims must be positive")
        pr, pc = self.patch_dims
        top, bottom, left, right = self.pad
        r0 = self.center[0] - pr // 2
        c0 = self.center[1] - pc // 2
        ok = (
            top == max(0, -r0)
            and left == max(0, -c0)
            and bottom == max(0, r0 + pr - self.source_dims[0])
            and right == max(0, c0 + pc - self.source_dims[1])
        )
        if not ok:
            raise ValueError("pad inconsistent with center/patch_dims/source_dims")


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
    """
    planes = data.reshape((-1,) + data.shape[-2:])  # a single plane is a stack of one
    rows, cols = (_axis(n, m, r, linear) for n, m, r in zip(data.shape[-2:], out_dims[-2:], ratios[-2:]))
    lo = hi = np.arange(len(planes))
    f = None
    if len(out_dims) == 3:
        src = _axis(len(planes), out_dims[0], ratios[0], linear)
        lo, hi, f = src if linear else (src, src, None)
    out = np.empty((len(lo),) + tuple(out_dims[-2:]), np.float32 if linear else data.dtype)
    kept: dict[int, np.ndarray] = {}  # resampled input planes; the D indices only rise, so two suffice
    for k, (i0, i1) in enumerate(zip(lo.tolist(), hi.tolist())):
        for i in sorted({i0, i1} - kept.keys()):
            if len(kept) == 2:
                del kept[min(kept)]
            kept[i] = _resample_plane(planes[i], rows, cols, linear)
        out[k] = kept[i0] if f is None else _lerp(kept[i0], kept[i1], f[k])
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
    defaults accordingly and trilinear is rejected for masks.
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
        return type(vol)(vol.data, target)

    ratios = tuple(t / s for s, t in zip(src, dst))
    out = _resample_axes(vol.data, out_dims, ratios, linear=(mode == "trilinear"))
    if is_mask:
        return Mask3D(out, target)
    return Volume3D(out, target)


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
    """Invert a resize: map a prediction back to the recorded original size."""
    p = _slice_array(p)
    if mode not in ("bilinear", "nearest"):
        raise ValueError(f"unknown resize mode {mode!r}")
    if p.shape[-2:] != rec.target_dims:
        raise GeometryError(
            f"prediction dims {p.shape[-2:]} do not match resize record target {rec.target_dims}"
        )
    if rec.original_dims == rec.target_dims:
        return p
    ratios = (
        rec.target_dims[0] / rec.original_dims[0],
        rec.target_dims[1] / rec.original_dims[1],
    )
    return _resample_axes(p, rec.original_dims, ratios, linear=(mode == "bilinear"))


def crop_patch(
    s: np.ndarray, center: tuple[int, int], patch_dims: tuple[int, int]
) -> tuple[np.ndarray, CropRecord]:
    """Cut a fixed-size float32 window centred on a pixel of every plane; out-of-bounds area is zero."""
    s = _slice_array(s)
    rows, cols = s.shape[-2:]
    cr, cc = int(center[0]), int(center[1])
    if not (0 <= cr < rows and 0 <= cc < cols):
        raise GeometryError(f"center {center} outside source dims {(rows, cols)}")
    pr, pc = int(patch_dims[0]), int(patch_dims[1])
    if pr < 1 or pc < 1:
        raise ValueError(f"patch dims must be positive, got {patch_dims}")

    r0 = cr - pr // 2
    c0 = cc - pc // 2
    top = max(0, -r0)
    left = max(0, -c0)
    bottom = max(0, r0 + pr - rows)
    right = max(0, c0 + pc - cols)

    patch = np.zeros(s.shape[:-2] + (pr, pc), dtype=np.float32)
    patch[..., top : pr - bottom, left : pc - right] = s[..., r0 + top : r0 + pr - bottom, c0 + left : c0 + pc - right]
    return patch, CropRecord((cr, cc), (pr, pc), (rows, cols), (top, bottom, left, right))


def uncrop_patch(p: np.ndarray, rec: CropRecord) -> np.ndarray:
    """Invert a crop: place patch values back into a float32 frame, zero everywhere else.

    Patch pixels that were boundary padding are discarded.
    """
    p = _slice_array(p)
    if p.shape[-2:] != rec.patch_dims:
        raise GeometryError(
            f"patch dims {p.shape[-2:]} do not match crop record patch dims {rec.patch_dims}"
        )
    pr, pc = rec.patch_dims
    top, bottom, left, right = rec.pad
    r0 = rec.center[0] - pr // 2
    c0 = rec.center[1] - pc // 2
    out = np.zeros(p.shape[:-2] + tuple(rec.source_dims), dtype=np.float32)
    out[..., r0 + top : r0 + pr - bottom, c0 + left : c0 + pc - right] = p[..., top : pr - bottom, left : pc - right]
    return out
