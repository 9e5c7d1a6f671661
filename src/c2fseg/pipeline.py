"""The coarse-to-fine flow: training-set preparation and full-case prediction.

Testing path per case: resample to the normalized spacing, predict a coarse
mask from resized axial slices, judge it with the component-count criterion,
correct it through sagittal patches when abnormal, then predict each kidney
from a fixed-size axial window around its centroid and merge. The final mask
is mapped back onto the input's native grid so evaluation is not flattered
by the working resolution.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .components import (
    AbnormalityVerdict,
    classify,
    component_stats,
    label_components,
)
from .errors import GeometryError
from .geometry import crop_patch, resample_volume, resize_slice, uncrop_patch, unresize
from .nn.models import SegmentationModel
from .volume import (
    Mask3D,
    Slice2D,
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
SlicePair = tuple[Slice2D, Slice2D]


def _check_case_geometry(vol: Volume3D, label: Mask3D) -> None:
    if vol.dims != label.dims or vol.spacing != label.spacing:
        raise GeometryError(
            f"volume geometry {vol.dims}/{vol.spacing} does not match label {label.dims}/{label.spacing}"
        )


def prepare_coarse_set(cases: list[Case], cfg: PipelineConfig) -> list[SlicePair]:
    """Every axial slice resized to the coarse image size, paired with its label.

    Background-only slices are retained: they teach the model to stay quiet.
    """
    pairs: list[SlicePair] = []
    for vol, label in cases:
        _check_case_geometry(vol, label)
        img_slices = extract_slices(vol, "axial")
        lab_slices = extract_slices(label, "axial")
        for img, lab in zip(img_slices, lab_slices):
            ri, _ = resize_slice(img, cfg.coarse_dims, mode="bilinear")
            rl, _ = resize_slice(lab, cfg.coarse_dims, mode="nearest")
            pairs.append((ri, rl))
    return pairs


def _component_windows(label: Mask3D, cfg: PipelineConfig, min_count: int = 1):
    """(center (row, col), slice range) per connected component, biggest first."""
    lm = label_components(label, cfg.connectivity)
    out = []
    for st in component_stats(lm):
        if st.voxel_count < min_count:
            continue
        center = (int(round(st.centroid[1])), int(round(st.centroid[2])))
        out.append((center, *st.z_range))
    return out


def prepare_fine_set(cases: list[Case], cfg: PipelineConfig) -> list[SlicePair]:
    """Fixed-pixel-size axial patches around each ground-truth kidney.

    One window per component, centred at the component's 3D centroid
    projected to (row, col), applied over the component's slice range.
    Cases without foreground are skipped with a warning.
    """
    pairs: list[SlicePair] = []
    for case_idx, (vol, label) in enumerate(cases):
        _check_case_geometry(vol, label)
        windows = _component_windows(label, cfg)
        if not windows:
            warnings.warn(f"case {case_idx}: no foreground components, skipped")
            continue
        img_slices = extract_slices(vol, "axial")
        lab_slices = extract_slices(label, "axial")
        for center, z0, z1 in windows:
            for k in range(z0, z1 + 1):
                pi, _ = crop_patch(img_slices[k], center, cfg.fine_dims)
                pl, _ = crop_patch(lab_slices[k], center, cfg.fine_dims)
                pairs.append((pi, pl))
    return pairs


def _global_centroid(mask_data: np.ndarray) -> tuple[float, float, float] | None:
    coords = np.nonzero(mask_data)
    if coords[0].size == 0:
        return None
    return tuple(float(c.mean()) for c in coords)


def prepare_abnormal_set(cases: list[Case], cfg: PipelineConfig) -> list[SlicePair]:
    """Sagittal patches around the global foreground centroid's (depth, row)."""
    pairs: list[SlicePair] = []
    for case_idx, (vol, label) in enumerate(cases):
        _check_case_geometry(vol, label)
        centroid = _global_centroid(label.data)
        if centroid is None:
            warnings.warn(f"case {case_idx}: no foreground, skipped")
            continue
        center = (int(round(centroid[0])), int(round(centroid[1])))
        img_slices = extract_slices(vol, "sagittal")
        lab_slices = extract_slices(label, "sagittal")
        for img, lab in zip(img_slices, lab_slices):
            pi, _ = crop_patch(img, center, cfg.abnormal_dims)
            pl, _ = crop_patch(lab, center, cfg.abnormal_dims)
            pairs.append((pi, pl))
    return pairs


def _predict(model: SegmentationModel, s: Slice2D, stage: str) -> Slice2D:
    """Run one stage's model on a slice; the one place model output is checked."""
    p = np.asarray(model.predict(s), dtype=np.float32)
    if p.shape != s.dims:
        raise GeometryError(f"{stage} model returned dims {p.shape} for input dims {s.dims}")
    if not (p.min() >= 0.0 and p.max() <= 1.0):  # NaN fails both comparisons
        raise ValueError(f"{stage} model returned values that are not probabilities in [0, 1]")
    return Slice2D(p, s.pixel_spacing)


def predict_coarse(vol: Volume3D, models: StageModels, cfg: PipelineConfig) -> Mask3D:
    """Whole-volume coarse mask: resize each axial slice, predict, map back."""
    probs: list[Slice2D] = []
    for s in extract_slices(vol, "axial"):
        resized, rec = resize_slice(s, cfg.coarse_dims, mode="bilinear")
        probs.append(unresize(_predict(models.coarse, resized, "coarse"), rec, mode="bilinear"))
    prob_vol = compose_slices(probs, "axial", vol.dims, vol.spacing)
    return binarize(prob_vol, cfg.prob_threshold)


def build_guidance(
    vol: Volume3D, s_c: Mask3D, models: StageModels, cfg: PipelineConfig
) -> tuple[Mask3D, AbnormalityVerdict]:
    """Decide Normal/Abnormal from the coarse mask and build the guidance mask.

    Normal keeps the coarse mask verbatim. Abnormal re-predicts every
    sagittal slice in a fixed window whose (depth, row) centre comes from
    the coarse mask's global centroid (volume centre if the mask is empty),
    then maps the patches back with zero padding.
    """
    if s_c.dims != vol.dims or s_c.spacing != vol.spacing:
        raise GeometryError("coarse mask geometry does not match the volume")
    verdict = classify(component_stats(label_components(s_c, cfg.connectivity)), cfg.th_vn)
    if verdict.is_normal:
        return s_c, verdict

    centroid = _global_centroid(s_c.data)
    if centroid is None:
        centroid = tuple((n - 1) / 2.0 for n in vol.dims)
    center = (int(round(centroid[0])), int(round(centroid[1])))

    probs: list[Slice2D] = []
    for s in extract_slices(vol, "sagittal"):
        patch, rec = crop_patch(s, center, cfg.abnormal_dims)
        probs.append(uncrop_patch(_predict(models.abnormal, patch, "abnormal"), rec))
    prob_vol = compose_slices(probs, "sagittal", vol.dims, vol.spacing)
    m = binarize(prob_vol, cfg.prob_threshold)
    if s_c.foreground_count() == 0 and m.foreground_count() == 0:
        warnings.warn("detection failure: empty coarse mask and empty corrected mask")
    return m, verdict


def predict_fine(vol: Volume3D, m: Mask3D, models: StageModels, cfg: PipelineConfig) -> Mask3D:
    """Per-kidney fine masks, merged by union.

    Each guidance component at least th_vn voxels big gets one fixed axial
    window at its projected centroid, applied over its slice range extended
    by ``fine_slice_margin`` slices each way. Voxels outside every window
    are background by construction.
    """
    if m.dims != vol.dims or m.spacing != vol.spacing:
        raise GeometryError("guidance mask geometry does not match the volume")
    windows = _component_windows(m, cfg, min_count=cfg.th_vn)
    out = np.zeros(vol.dims, dtype=np.uint8)
    if not windows:
        warnings.warn("empty guidance mask: fine stage produced an empty result")
        return Mask3D(out, vol.spacing)

    img_slices = extract_slices(vol, "axial")
    nd = vol.dims[0]
    for center, z0, z1 in windows:
        z0 = max(0, z0 - cfg.fine_slice_margin)
        z1 = min(nd - 1, z1 + cfg.fine_slice_margin)
        for k in range(z0, z1 + 1):
            patch, rec = crop_patch(img_slices[k], center, cfg.fine_dims)
            back = uncrop_patch(_predict(models.fine, patch, "fine"), rec)
            out[k] |= back.data >= cfg.prob_threshold
    return Mask3D(out, vol.spacing)


def run_case(vol: Volume3D, models: StageModels, cfg: PipelineConfig) -> CaseResult:
    """Full testing flow on a raw volume of any spacing.

    All returned masks live on the input volume's native grid (mapped back
    with nearest-neighbour resampling).
    """
    flags: list[str] = []
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    work = resample_volume(vol, cfg.normalized_spacing, mode="trilinear")
    timings["resample"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    s_c = predict_coarse(work, models, cfg)
    timings["coarse"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        m, verdict = build_guidance(work, s_c, models, cfg)
    flags.extend(str(w.message) for w in caught)
    timings["guidance"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        s_f = predict_fine(work, m, models, cfg)
    flags.extend(str(w.message) for w in caught)
    timings["fine"] = time.perf_counter() - t0

    def to_native(mask: Mask3D) -> Mask3D:
        return resample_volume(mask, vol.spacing, mode="nearest", target_dims=vol.dims)

    return CaseResult(
        coarse_mask=to_native(s_c),
        verdict=verdict,
        guidance=to_native(m),
        fine_mask=to_native(s_f),
        timings=timings,
        flags=tuple(flags),
    )
