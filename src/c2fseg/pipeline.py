"""The coarse-to-fine flow: training-set preparation and full-case prediction.

Testing path per case: resample to the normalized spacing, predict a coarse
mask from resized axial slices, judge it with the component-count criterion,
correct it through sagittal patches when abnormal, then predict each kidney
from a fixed-size axial window around its centroid and merge. The final mask
is mapped back onto the input's native grid so evaluation is not flattered
by the working resolution.

Training-set preparation is one loop over the cases that cuts each stage's
planes with the helper its prediction step uses, on the same working grid.
Each stage gets one float32 array of shape (N, 2, H, W): sample k's image
plane in ``[k, 0]`` and its 0/1 label in ``[k, 1]``, the input
``nn.train.fit`` takes.
"""

from __future__ import annotations

import time
import warnings
from collections.abc import Callable, Iterable
from contextvars import ContextVar
from dataclasses import dataclass, field

import numpy as np

from . import parallel
from .components import (
    AbnormalityVerdict,
    classify,
    component_stats,
    foreground_indices,
    label_components,
)
from .errors import GeometryError
from .geometry import CropRecord, crop_patch, resample_volume, resize_slice, uncrop_patch, unresize
from .nn.models import SegmentationModel
from .volume import (
    Mask3D,
    Spacing,
    Volume3D,
    binarize,
    compose_slices,
    extract_slices,
)


@dataclass(frozen=True)
class PipelineConfig:
    """All knobs of the cascade; defaults are the production-scale settings."""

    normalized_spacing: Spacing = Spacing(3.0, 0.7816, 0.7816)
    coarse_dims: tuple[int, int] = (128, 128)
    fine_dims: tuple[int, int] = (160, 160)
    abnormal_dims: tuple[int, int] = (64, 256)  # (depth, height) window on sagittal slices
    th_vn: int = 10000
    prob_threshold: float = 0.5
    connectivity: int = 26
    fine_slice_margin: int = 2

    def __post_init__(self):
        for name in ("coarse_dims", "fine_dims", "abnormal_dims"):
            dims = getattr(self, name)
            if len(dims) != 2 or min(dims) < 1:
                raise ValueError(f"{name} must be two positive ints, got {dims}")
        if self.th_vn <= 0:
            raise ValueError(f"th_vn must be positive, got {self.th_vn}")
        if not (0.0 < self.prob_threshold < 1.0):
            raise ValueError(f"prob_threshold must lie in (0, 1), got {self.prob_threshold}")
        if self.connectivity not in (6, 26):
            raise ValueError(f"connectivity must be 6 or 26, got {self.connectivity}")
        if self.fine_slice_margin < 0:
            raise ValueError("fine_slice_margin must be non-negative")


@dataclass(frozen=True)
class StageModels:
    coarse: SegmentationModel
    abnormal: SegmentationModel
    fine: SegmentationModel


@dataclass(frozen=True)
class CaseResult:
    """Everything one case produced; all masks share the input volume's geometry."""

    coarse_mask: Mask3D
    verdict: AbnormalityVerdict
    guidance: Mask3D
    fine_mask: Mask3D
    timings: dict[str, float] = field(default_factory=dict)
    flags: tuple[str, ...] = ()


Case = tuple[Volume3D, Mask3D]


def _coarse_cut(g: Volume3D | Mask3D, window: None, cfg: PipelineConfig):
    """The whole axial stack (``window`` None) resized to ``coarse_dims``, and its record; a mask stays binary."""
    return resize_slice(extract_slices(g, "axial"), cfg.coarse_dims, "nearest" if isinstance(g, Mask3D) else "bilinear")


def _fine_cut(g: Volume3D | Mask3D, window, cfg: PipelineConfig):
    """``fine_dims`` axial patches at ``window``'s (row, col) centre over its slices z0..z1, and their record."""
    center, z0, z1 = window
    return crop_patch(extract_slices(g, "axial")[z0 : z1 + 1], center, cfg.fine_dims)


def _abnormal_cut(
    g: Volume3D | Mask3D, center: tuple[int, int], cfg: PipelineConfig, planes: slice = slice(None)
):
    """``abnormal_dims`` patches at (depth, row) ``center`` of sagittal ``planes`` (default all), and their record."""
    return crop_patch(extract_slices(g, "sagittal")[planes], center, cfg.abnormal_dims)


def _training_set(cases: Iterable[Case], cfg: PipelineConfig, dims: tuple[int, int], windows, cut) -> np.ndarray:
    """The (N, 2, H, W) float32 set, N possibly 0, of ``cut(grid, window, cfg)[0]`` image/label pairs.

    Each case is checked and resampled onto ``run_case``'s working grid, and
    is skipped with a warning if ``windows(label)`` finds none. Each pair is
    stacked once both are cut, and no case is held while the next is read.
    """
    parts, i = [np.empty((0, 2, *dims), dtype=np.float32)], 0
    for vol, label in cases:  # not enumerate: its reused result tuple would hold this case through the next read
        vol.check_grid(label, "label")
        vol = resample_volume(vol, cfg.normalized_spacing)
        label = resample_volume(label, cfg.normalized_spacing)
        found = windows(label)
        if not found:
            warnings.warn(f"case {i}: no foreground, skipped")
        parts += [np.stack([cut(vol, w, cfg)[0], cut(label, w, cfg)[0]], axis=1) for w in found]
        del vol, label
        i += 1
    return np.concatenate(parts)  # peak: the set twice


def prepare_coarse_set(cases: Iterable[Case], cfg: PipelineConfig) -> np.ndarray:
    """Every axial slice resized to ``coarse_dims``, with its label; background-only slices teach it to stay quiet."""
    return _training_set(cases, cfg, cfg.coarse_dims, lambda label: [None], _coarse_cut)


def _component_windows(label: Mask3D, cfg: PipelineConfig, min_count: int = 1, margin: int = 0):
    """(center (row, col), z0, z1) per component, biggest first; z0..z1 widened by ``margin``, clamped."""
    lm = label_components(label, cfg.connectivity)
    last = label.dims[0] - 1
    out = []
    for st in component_stats(lm):
        if st.voxel_count < min_count:
            continue
        center = (int(round(st.centroid[1])), int(round(st.centroid[2])))
        z0, z1 = st.z_range
        out.append((center, max(0, z0 - margin), min(last, z1 + margin)))
    return out


def prepare_fine_set(cases: Iterable[Case], cfg: PipelineConfig) -> np.ndarray:
    """``fine_dims`` axial patches at each ground-truth kidney's centroid (row, col), over its slice range."""
    return _training_set(cases, cfg, cfg.fine_dims, lambda label: _component_windows(label, cfg), _fine_cut)


def _sagittal_center(mask_data: np.ndarray) -> tuple[int, int] | None:
    """The foreground centroid's (depth, row), each rounded to an int; None if there is no foreground."""
    fi = foreground_indices(mask_data)
    if fi.size == 0:
        return None
    _, h, w = mask_data.shape
    z, rest = np.divmod(fi, h * w)
    return round(float(z.mean())), round(float((rest // w).mean()))


def prepare_abnormal_set(cases: Iterable[Case], cfg: PipelineConfig) -> np.ndarray:
    """Sagittal patches around the global foreground centroid's (depth, row); a case without foreground is skipped."""
    return _training_set(
        cases, cfg, cfg.abnormal_dims, lambda m: [c for c in [_sagittal_center(m.data)] if c is not None], _abnormal_cut
    )


def _predict_plane(model: SegmentationModel, plane: np.ndarray, stage: str) -> np.ndarray:
    plane = plane.view()
    plane.flags.writeable = False
    p = np.asarray(model.predict(plane), dtype=np.float32)
    if p.shape != plane.shape:
        raise GeometryError(f"{stage} model returned dims {p.shape} for input dims {plane.shape}")
    if not (p.min() >= 0.0 and p.max() <= 1.0):  # NaN fails both comparisons
        raise ValueError(f"{stage} model returned values that are not probabilities in [0, 1]")
    return p


def _predict_planes(
    model: SegmentationModel,
    stage: str,
    n: int,
    plane: Callable[[int], np.ndarray],
    put: Callable[[int, np.ndarray], None],
) -> None:
    """Run one stage's model on planes 0..n-1; the one plane loop, and the one place model output is checked.

    ``plane(k)`` gives plane k as a float32 (H, W) array, the model gets a
    read-only view of it, and ``put(k, probs)`` takes its probabilities and
    must write only plane k's part of its output. The planes go through
    ``parallel.split_planes``: plane 0 runs on the caller's thread, and the
    rest are split over the usable CPUs only if it was slow. Every plane is
    predicted on its own, so the output does not depend on the split, and a
    chunk starts no plane past one that has already failed, so the error
    raised is the one for the lowest-index bad plane.
    """
    failed: list[int] = []  # planes whose predict raised; list.append is atomic

    def chunk(lo: int, hi: int) -> None:
        for k in range(lo, hi):
            if failed and min(failed) < k:  # a lower-index plane already failed; its error wins
                return
            try:
                put(k, _predict_plane(model, plane(k), stage))
            except BaseException:
                failed.append(k)
                raise

    parallel.split_planes(n, chunk)  # at least 1 plane: containers and windows have positive dims


def _predict(model: SegmentationModel, stack: np.ndarray, stage: str) -> np.ndarray:
    """``_predict_planes`` over the planes of a stack, into a float32 stack of probabilities."""
    planes = np.asarray(stack, dtype=np.float32)
    out = np.empty(planes.shape, dtype=np.float32)
    _predict_planes(model, stage, len(planes), planes.__getitem__, out.__setitem__)
    return out


_FLAGS: ContextVar[list[str] | None] = ContextVar("c2fseg_flags", default=None)


def _flag(message: str) -> None:
    """Add a flag to the run_case in progress in this context, or warn outside one."""
    flags = _FLAGS.get()
    if flags is None:
        warnings.warn(message, stacklevel=2)
    else:
        flags.append(message)


def predict_coarse(vol: Volume3D, models: StageModels, cfg: PipelineConfig) -> Mask3D:
    """Whole-volume coarse mask: resize the axial stack, predict, map back."""
    resized, rec = _coarse_cut(vol, None, cfg)
    probs = unresize(_predict(models.coarse, resized, "coarse"), rec, mode="bilinear")
    prob_vol = compose_slices(probs, "axial", vol.dims, vol.spacing)
    return binarize(prob_vol, cfg.prob_threshold)


def _sagittal_correction(
    vol: Volume3D, center: tuple[int, int], model: SegmentationModel, cfg: PipelineConfig
) -> np.ndarray:
    """The abnormal model's uint8 mask over the sagittal window at (depth, row) ``center``, one plane at a time.

    Sagittal plane k is cropped, predicted, and only its window's in-volume
    part is thresholded into the mask: the zero padding is below any
    threshold in (0, 1), so the rest of the mask stays 0. No stack of
    patches or probabilities is held.
    """
    out = np.zeros(vol.dims, dtype=np.uint8)
    sagittal = out.transpose(2, 0, 1)
    window = CropRecord(center, cfg.abnormal_dims, sagittal.shape[1:])  # the one each plane's cut takes
    (depths, rows), (pdepths, prows) = window.windows

    def put(k: int, probs: np.ndarray) -> None:
        sagittal[k, depths, rows] = probs[pdepths, prows] >= cfg.prob_threshold

    def plane(k: int) -> np.ndarray:
        return _abnormal_cut(vol, center, cfg, slice(k, k + 1))[0][0]

    _predict_planes(model, "abnormal", len(sagittal), plane, put)
    return out


def build_guidance(
    vol: Volume3D, s_c: Mask3D, models: StageModels, cfg: PipelineConfig
) -> tuple[Mask3D, AbnormalityVerdict]:
    """Decide Normal/Abnormal from the coarse mask and build the guidance mask.

    Normal keeps the coarse mask verbatim. Abnormal re-predicts every
    sagittal slice in a fixed window whose (depth, row) centre comes from
    the coarse mask's global centroid (volume centre if the mask is empty),
    thresholds the patches and writes their in-volume part into an empty mask.
    """
    vol.check_grid(s_c, "coarse mask")
    verdict = classify(component_stats(label_components(s_c, cfg.connectivity)), cfg.th_vn)
    if verdict.is_normal:
        return s_c, verdict

    center = _sagittal_center(s_c.data)
    fallback = (round((vol.dims[0] - 1) / 2), round((vol.dims[1] - 1) / 2))
    m = Mask3D(_sagittal_correction(vol, center or fallback, models.abnormal, cfg), vol.spacing)
    if center is None and m.foreground_count() == 0:
        _flag("detection failure: empty coarse mask and empty corrected mask")
    return m, verdict


def predict_fine(vol: Volume3D, m: Mask3D, models: StageModels, cfg: PipelineConfig) -> Mask3D:
    """Per-kidney fine masks, merged by union.

    Each guidance component at least th_vn voxels big gets one fixed axial
    window at its projected centroid, applied over its slice range extended
    by ``fine_slice_margin`` slices each way. Voxels outside every window
    are background by construction.
    """
    vol.check_grid(m, "guidance mask")
    windows = _component_windows(m, cfg, min_count=cfg.th_vn, margin=cfg.fine_slice_margin)
    out = np.zeros(vol.dims, dtype=np.uint8)
    if not windows:
        _flag("empty guidance mask: fine stage produced an empty result")
        return Mask3D(out, vol.spacing)

    for center, z0, z1 in windows:
        patch, rec = _fine_cut(vol, (center, z0, z1), cfg)
        back = uncrop_patch(_predict(models.fine, patch, "fine"), rec)
        out[z0 : z1 + 1] |= back >= cfg.prob_threshold
    return Mask3D(out, vol.spacing)


def run_case(vol: Volume3D, models: StageModels, cfg: PipelineConfig) -> CaseResult:
    """Full testing flow on a raw volume of any spacing.

    All returned masks live on the input volume's native grid (mapped back
    with nearest-neighbour resampling, once per distinct mask).
    """
    flags: list[str] = []
    timings: dict[str, float] = {}

    def timed(stage: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        timings[stage] = time.perf_counter() - t0
        return out

    work = timed("resample", resample_volume, vol, cfg.normalized_spacing, mode="trilinear")
    s_c = timed("coarse", predict_coarse, work, models, cfg)
    token = _FLAGS.set(flags)
    try:
        m, verdict = timed("guidance", build_guidance, work, s_c, models, cfg)
        s_f = timed("fine", predict_fine, work, m, models, cfg)
    finally:
        _FLAGS.reset(token)
    del work  # the map-backs need only the masks

    def to_native(mask: Mask3D) -> Mask3D:
        return resample_volume(mask, vol.spacing, mode="nearest", target_dims=vol.dims)

    def map_back() -> tuple[Mask3D, Mask3D, Mask3D]:
        coarse = to_native(s_c)
        guidance = coarse if m is s_c else to_native(m)  # Normal: the guidance is the coarse mask
        return coarse, guidance, to_native(s_f)

    coarse, guidance, fine = timed("map_back", map_back)
    return CaseResult(
        coarse_mask=coarse,
        verdict=verdict,
        guidance=guidance,
        fine_mask=fine,
        timings=timings,
        flags=tuple(flags),
    )
