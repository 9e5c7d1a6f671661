"""The coarse-to-fine flow: training-set preparation and full-case prediction.

Testing path per case: resample to the normalized spacing, predict a coarse
mask from resized axial slices, judge it with the component-count criterion,
correct it through sagittal patches when abnormal, then predict each kidney
from a fixed-size axial window around its centroid and merge. The final mask
is mapped back onto the input's native grid so evaluation is not flattered
by the working resolution.

Training-set preparation resamples each case onto the same working grid,
then gives each stage one float32 array of shape
(N, 2, H, W): sample k's image plane in ``[k, 0]`` and its 0/1 label in
``[k, 1]``, the input ``nn.train.fit`` takes.
"""

from __future__ import annotations

import time
import warnings
from collections.abc import Iterable
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
from .geometry import crop_patch, resample_volume, resize_slice, uncrop_patch, unresize
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


def _training_set(parts: list[np.ndarray], dims: tuple[int, int]) -> np.ndarray:
    """One (N, 2, H, W) float32 array of the parts, each stacked as its case is cut; N may be 0."""
    return np.concatenate([np.empty((0, 2, *dims), dtype=np.float32), *parts])  # peak: the set twice


def _working_case(vol: Volume3D, label: Mask3D, cfg: PipelineConfig) -> Case:
    """A training pair, checked and resampled onto the working grid that ``run_case`` cuts its stages from."""
    vol.check_grid(label, "label")
    return resample_volume(vol, cfg.normalized_spacing), resample_volume(label, cfg.normalized_spacing)


def prepare_coarse_set(cases: Iterable[Case], cfg: PipelineConfig) -> np.ndarray:
    """Every axial slice resized to the coarse image size, stacked with its label.

    Background-only slices are retained: they teach the model to stay quiet.
    """
    parts = []
    for vol, label in cases:
        vol, label = _working_case(vol, label, cfg)
        imgs, _ = resize_slice(extract_slices(vol, "axial"), cfg.coarse_dims, mode="bilinear")
        labs, _ = resize_slice(extract_slices(label, "axial"), cfg.coarse_dims, mode="nearest")
        parts.append(np.stack([imgs, labs], axis=1))
    return _training_set(parts, cfg.coarse_dims)


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
    """Fixed-pixel-size axial patches around each ground-truth kidney.

    One window per component, centred at the component's 3D centroid
    projected to (row, col), applied over the component's slice range.
    Cases without foreground are skipped with a warning.
    """
    parts = []
    for case_idx, (vol, label) in enumerate(cases):
        vol, label = _working_case(vol, label, cfg)
        windows = _component_windows(label, cfg)
        if not windows:
            warnings.warn(f"case {case_idx}: no foreground components, skipped")
            continue
        for center, z0, z1 in windows:  # views per window: a kept view would hold this case through the next
            pi, _ = crop_patch(extract_slices(vol, "axial")[z0 : z1 + 1], center, cfg.fine_dims)
            pl, _ = crop_patch(extract_slices(label, "axial")[z0 : z1 + 1], center, cfg.fine_dims)
            parts.append(np.stack([pi, pl], axis=1))
    return _training_set(parts, cfg.fine_dims)


def _sagittal_center(mask_data: np.ndarray) -> tuple[int, int] | None:
    """The foreground centroid's (depth, row), each rounded to an int; None if there is no foreground."""
    fi = foreground_indices(mask_data)
    if fi.size == 0:
        return None
    _, h, w = mask_data.shape
    z, rest = np.divmod(fi, h * w)
    return round(float(z.mean())), round(float((rest // w).mean()))


def prepare_abnormal_set(cases: Iterable[Case], cfg: PipelineConfig) -> np.ndarray:
    """Sagittal patches around the global foreground centroid's (depth, row)."""
    parts = []
    for case_idx, (vol, label) in enumerate(cases):
        vol, label = _working_case(vol, label, cfg)
        center = _sagittal_center(label.data)
        if center is None:
            warnings.warn(f"case {case_idx}: no foreground, skipped")
            continue
        pi, _ = crop_patch(extract_slices(vol, "sagittal"), center, cfg.abnormal_dims)
        pl, _ = crop_patch(extract_slices(label, "sagittal"), center, cfg.abnormal_dims)
        parts.append(np.stack([pi, pl], axis=1))
    return _training_set(parts, cfg.abnormal_dims)


def _predict_plane(model: SegmentationModel, plane: np.ndarray, stage: str) -> np.ndarray:
    p = np.asarray(model.predict(plane), dtype=np.float32)
    if p.shape != plane.shape:
        raise GeometryError(f"{stage} model returned dims {p.shape} for input dims {plane.shape}")
    if not (p.min() >= 0.0 and p.max() <= 1.0):  # NaN fails both comparisons
        raise ValueError(f"{stage} model returned values that are not probabilities in [0, 1]")
    return p


def _predict(model: SegmentationModel, stack: np.ndarray, stage: str) -> np.ndarray:
    """Run one stage's model on each plane of a stack; the one place model output is checked.

    Each model gets a read-only float32 (H, W) view of one plane. The planes
    go through ``parallel.split_planes``: plane 0 runs on the caller's thread,
    and the rest are split over the usable CPUs only if it was slow. Every
    plane is predicted on its own, so the output does not depend on the
    split, and a chunk starts no plane past one that has already failed, so
    the error raised is the one for the lowest-index bad plane.
    """
    planes = np.asarray(stack, dtype=np.float32).view()
    planes.flags.writeable = False
    out = np.empty(planes.shape, dtype=np.float32)
    failed: list[int] = []  # planes whose predict raised; list.append is atomic

    def chunk(lo: int, hi: int) -> None:
        for k in range(lo, hi):
            if failed and min(failed) < k:  # a lower-index plane already failed; its error wins
                return
            try:
                out[k] = _predict_plane(model, planes[k], stage)
            except BaseException:
                failed.append(k)
                raise

    parallel.split_planes(len(planes), chunk)  # at least 1 plane: containers and windows have positive dims
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
    resized, rec = resize_slice(extract_slices(vol, "axial"), cfg.coarse_dims, mode="bilinear")
    probs = unresize(_predict(models.coarse, resized, "coarse"), rec, mode="bilinear")
    prob_vol = compose_slices(probs, "axial", vol.dims, vol.spacing)
    return binarize(prob_vol, cfg.prob_threshold)


def _sagittal_correction(
    vol: Volume3D, center: tuple[int, int], model: SegmentationModel, cfg: PipelineConfig
) -> np.ndarray:
    """The abnormal model's uint8 mask over the sagittal window at (depth, row) ``center``.

    The window is cropped from the sagittal view of the volume, and only its
    in-volume part is thresholded back: the zero padding is below any
    threshold in (0, 1), so the rest of the mask stays 0.
    """
    patch, rec = crop_patch(extract_slices(vol, "sagittal"), center, cfg.abnormal_dims)
    probs = _predict(model, patch, "abnormal")
    (depths, rows), (pdepths, prows) = rec.windows
    out = np.zeros(vol.dims, dtype=np.uint8)
    out.transpose(2, 0, 1)[:, depths, rows] = probs[:, pdepths, prows] >= cfg.prob_threshold
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

    imgs = extract_slices(vol, "axial")
    for center, z0, z1 in windows:
        patch, rec = crop_patch(imgs[z0 : z1 + 1], center, cfg.fine_dims)
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
