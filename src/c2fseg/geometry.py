"""Spatial transforms of the pipeline, each paired with an exact inverse.

Four transforms: whole-volume spacing resample, slice resize to a canonical
image size (pixel size floats), fixed-pixel-size crop, and the zero-padding
inverses of the latter two.

Sampling conventions, fixed so round-trip tests are stable:

- output sample i reads source coordinate ``i * step_ratio``, edge-clamped
  to the source extent (voxel 0 centres of source and target coincide)
- linear interpolation uses the ``v0 + f * (v1 - v0)`` form, so constant
  inputs come back exactly
- resampling is separable: one axis at a time in the order W, H, D, in
  float64 with a single final cast to float32, which is bit-identical to
  blending the 4 (2D) or 8 (3D) surrounding corners in that order
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
from .volume import AnyVolume, Mask3D, Slice2D, Spacing, Volume3D

InterpMode = Literal["trilinear", "nearest"]
ResizeMode = Literal["bilinear", "nearest"]


@dataclass(frozen=True)
class ResizeRecord:
    """What a resize did, sufficient to map a prediction back."""

    original_dims: tuple[int, int]
    target_dims: tuple[int, int]
    original_pixel_spacing: tuple[float, float]

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


def _axis_samples(n_src: int, n_out: int, step_ratio: float):
    """Clamped source coordinates for each output index along one axis."""
    x = np.arange(n_out, dtype=np.float64) * step_ratio
    np.clip(x, 0.0, float(n_src - 1), out=x)
    return x


def _linear_axis(n_src: int, n_out: int, step_ratio: float):
    x = _axis_samples(n_src, n_out, step_ratio)
    i0 = np.floor(x).astype(np.intp)
    np.minimum(i0, n_src - 1, out=i0)
    i1 = np.minimum(i0 + 1, n_src - 1)
    f = x - i0
    return i0, i1, f


def _nearest_axis(n_src: int, n_out: int, step_ratio: float):
    x = _axis_samples(n_src, n_out, step_ratio)
    idx = np.floor(x + 0.5).astype(np.intp)
    np.clip(idx, 0, n_src - 1, out=idx)
    return idx


def _resample_axes(data: np.ndarray, out_dims, ratios, linear: bool) -> np.ndarray:
    """Resample every axis of ``data`` to ``out_dims``, one axis at a time.

    Axes run last first (W, then H, then D), the order in which the
    2^n-corner blend lerps, so the result is bit-identical to that blend.
    Linear passes gather the two neighbours, promote to float64 and lerp in
    place with the same operations as ``v0 + f * (v1 - v0)``; the result is
    cast to float32 once. An axis with ratio 1 is still lerped (``f = 0``):
    the blend lerps it too, which turns a ``-0.0`` next to a positive value
    into ``+0.0``, so skipping it would change the sign of some zeros.
    """
    work = data
    for ax in reversed(range(data.ndim)):
        if not linear:
            work = np.take(work, _nearest_axis(data.shape[ax], out_dims[ax], ratios[ax]), axis=ax)
            continue
        i0, i1, f = _linear_axis(data.shape[ax], out_dims[ax], ratios[ax])
        v0 = np.take(work, i0, axis=ax)
        d = np.take(work, i1, axis=ax).astype(np.float64, copy=False)
        d -= v0
        d *= f.reshape((-1,) + (1,) * (data.ndim - 1 - ax))
        d += v0
        del v0  # freed before the next pass gathers
        work = d
    return work.astype(np.float32) if linear else work


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


def resize_slice(
    s: Slice2D, target_dims: tuple[int, int], mode: ResizeMode = "bilinear"
) -> tuple[Slice2D, ResizeRecord]:
    """Resize a slice to a fixed image size; pixel size rescales by the dim ratio.

    Use ``mode="nearest"`` for label slices so they stay binary.
    """
    if mode not in ("bilinear", "nearest"):
        raise ValueError(f"unknown resize mode {mode!r}")
    tr, tc = int(target_dims[0]), int(target_dims[1])
    if tr < 1 or tc < 1:
        raise ValueError(f"target dims must be positive, got {target_dims}")
    rec = ResizeRecord(s.dims, (tr, tc), s.pixel_spacing)
    new_spacing = (
        s.pixel_spacing[0] * s.dims[0] / tr,
        s.pixel_spacing[1] * s.dims[1] / tc,
    )
    if (tr, tc) == s.dims:
        return Slice2D(s.data, s.pixel_spacing), rec
    ratios = (s.dims[0] / tr, s.dims[1] / tc)
    out = _resample_axes(s.data, (tr, tc), ratios, linear=(mode == "bilinear"))
    return Slice2D(out, new_spacing), rec


def unresize(p: Slice2D, rec: ResizeRecord, mode: ResizeMode = "bilinear") -> Slice2D:
    """Invert a resize: map a prediction back to the recorded original size."""
    if mode not in ("bilinear", "nearest"):
        raise ValueError(f"unknown resize mode {mode!r}")
    if p.dims != rec.target_dims:
        raise GeometryError(
            f"prediction dims {p.dims} do not match resize record target {rec.target_dims}"
        )
    if rec.original_dims == rec.target_dims:
        return Slice2D(p.data, rec.original_pixel_spacing)
    ratios = (
        rec.target_dims[0] / rec.original_dims[0],
        rec.target_dims[1] / rec.original_dims[1],
    )
    out = _resample_axes(p.data, rec.original_dims, ratios, linear=(mode == "bilinear"))
    return Slice2D(out, rec.original_pixel_spacing)


def crop_patch(
    s: Slice2D, center: tuple[int, int], patch_dims: tuple[int, int]
) -> tuple[Slice2D, CropRecord]:
    """Cut a fixed-size window centred on a pixel; out-of-bounds area is zero.

    Pixel spacing is deliberately left unchanged (fixed physical pixel size
    is the point of this transform).
    """
    rows, cols = s.dims
    cr, cc = int(center[0]), int(center[1])
    if not (0 <= cr < rows and 0 <= cc < cols):
        raise GeometryError(f"center {center} outside source dims {s.dims}")
    pr, pc = int(patch_dims[0]), int(patch_dims[1])
    if pr < 1 or pc < 1:
        raise ValueError(f"patch dims must be positive, got {patch_dims}")

    r0 = cr - pr // 2
    c0 = cc - pc // 2
    top = max(0, -r0)
    left = max(0, -c0)
    bottom = max(0, r0 + pr - rows)
    right = max(0, c0 + pc - cols)

    patch = np.zeros((pr, pc), dtype=np.float32)
    sr0, sr1 = r0 + top, r0 + pr - bottom
    sc0, sc1 = c0 + left, c0 + pc - right
    patch[top : pr - bottom, left : pc - right] = s.data[sr0:sr1, sc0:sc1]

    rec = CropRecord((cr, cc), (pr, pc), (rows, cols), (top, bottom, left, right))
    return Slice2D(patch, s.pixel_spacing), rec


def uncrop_patch(p: Slice2D, rec: CropRecord) -> Slice2D:
    """Invert a crop: place patch values back, zero everywhere else.

    Patch pixels that were boundary padding are discarded.
    """
    if p.dims != rec.patch_dims:
        raise GeometryError(
            f"patch dims {p.dims} do not match crop record patch dims {rec.patch_dims}"
        )
    pr, pc = rec.patch_dims
    top, bottom, left, right = rec.pad
    r0 = rec.center[0] - pr // 2
    c0 = rec.center[1] - pc // 2
    out = np.zeros(rec.source_dims, dtype=np.float32)
    out[r0 + top : r0 + pr - bottom, c0 + left : c0 + pc - right] = p.data[
        top : pr - bottom, left : pc - right
    ]
    return Slice2D(out, p.pixel_spacing)
