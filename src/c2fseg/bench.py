"""Synthetic phantoms and the one scoring loop of the evaluation harness.

Phantoms stand in for real CT cases at desk scale: one or two ellipsoidal
"kidneys" of known extent on a flat background, optionally under Gaussian
noise. The contrast defaults make a plain intensity threshold an exact
oracle in noiseless mode while still leaving the noisy mode learnable.

``score_cases`` scores both stages of each case and summarizes each stage
as mean +- std, max and min; ``evaluate_split`` and ``c2fseg eval`` both use
it. On real CT data (42 held-out cases, GPU training) the production-scale
cascade reports fine 94.53 +- 8.33 vs coarse 84.47 +- 14.70 percent DSC; the
desk-scale harness mirrors the direction of that comparison (fine beats
coarse), not the absolute numbers.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable, Iterable
from dataclasses import dataclass, replace

import numpy as np

from .components import label_components
from .pipeline import CaseResult, PipelineConfig, StageModels, run_case
from .volume import Mask3D, Spacing, Volume3D

AxisRange = tuple[float, float]

# Lateral kidney centres as fractions of the width axis.
_SIDE_FRACTIONS = (0.28, 0.72)

# Flat intensities of kidney and background voxels, before any noise.
_KIDNEY_INTENSITY = 1.0
_BACKGROUND_INTENSITY = 0.0


@dataclass(frozen=True)
class PhantomSpec:
    """Recipe for one synthetic case; fully deterministic given ``seed``."""

    dims: tuple[int, int, int]
    spacing: Spacing
    n_kidneys: int = 2
    semi_axes_mm: tuple[AxisRange, AxisRange, AxisRange] = ((27.0, 30.0), (15.5, 17.0), (11.7, 13.0))
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if len(self.dims) != 3 or min(self.dims) < 1:
            raise ValueError(f"dims must be three positive ints, got {self.dims}")
        if self.n_kidneys not in (1, 2):
            raise ValueError(f"n_kidneys must be 1 or 2, got {self.n_kidneys}")
        for lo, hi in self.semi_axes_mm:
            if not (0 < lo <= hi):
                raise ValueError(f"invalid semi-axis range ({lo}, {hi})")
        if not 0 <= self.noise_sigma < np.inf:
            raise ValueError(f"noise_sigma must be finite and non-negative, got {self.noise_sigma}")


def _ellipsoid_mask(dims, center_vox, radii_vox) -> np.ndarray:
    zz = (np.arange(dims[0], dtype=np.float64)[:, None, None] - center_vox[0]) / radii_vox[0]
    yy = (np.arange(dims[1], dtype=np.float64)[None, :, None] - center_vox[1]) / radii_vox[1]
    xx = (np.arange(dims[2], dtype=np.float64)[None, None, :] - center_vox[2]) / radii_vox[2]
    return (zz * zz + yy * yy + xx * xx) <= 1.0


def generate_phantom(spec: PhantomSpec) -> tuple[Volume3D, Mask3D]:
    """Build (volume, ground-truth mask); the mask is the exact ellipsoid interior."""
    rng = np.random.default_rng(spec.seed)
    d, h, w = spec.dims
    sp = spec.spacing.as_tuple()

    if spec.n_kidneys == 2:
        side_fracs = _SIDE_FRACTIONS
    else:
        side_fracs = (_SIDE_FRACTIONS[int(rng.integers(0, 2))],)

    mask = np.zeros(spec.dims, dtype=np.uint8)
    kidneys = []
    for frac in side_fracs:
        radii_vox = tuple(
            rng.uniform(lo, hi) / sp[axis] for axis, (lo, hi) in enumerate(spec.semi_axes_mm)
        )
        jitter = rng.uniform(-1.0, 1.0, size=3)
        center = (
            (d - 1) / 2.0 + jitter[0],
            (h - 1) / 2.0 + jitter[1],
            frac * (w - 1) + jitter[2],
        )
        for axis in range(3):
            if center[axis] - radii_vox[axis] < 0 or center[axis] + radii_vox[axis] > spec.dims[axis] - 1:
                raise ValueError(
                    f"ellipsoid does not fit inside the volume along axis {axis} "
                    f"(center {center[axis]:.1f}, semi-axis {radii_vox[axis]:.1f} voxels)"
                )
        kidneys.append(_ellipsoid_mask(spec.dims, center, radii_vox))

    # Touching kidneys would fuse into one connected component, so reject
    # adjacency (26-neighbourhood), not just intersection. Each digitized
    # ellipsoid is one component, so two of them fuse iff they touch.
    if len(kidneys) == 2 and label_components(Mask3D(kidneys[0] | kidneys[1], spec.spacing), 26).n_components < 2:
        raise ValueError("ellipsoids overlap or touch; shrink the semi-axis ranges or widen the volume")
    for k in kidneys:
        mask |= k.astype(np.uint8)

    contrast = _KIDNEY_INTENSITY - _BACKGROUND_INTENSITY
    data = np.full(spec.dims, _BACKGROUND_INTENSITY, dtype=np.float32)
    data += contrast * mask
    if spec.noise_sigma > 0:
        data += spec.noise_sigma * rng.standard_normal(spec.dims).astype(np.float32)
    return Volume3D(data, spec.spacing), Mask3D(mask, spec.spacing)


def dsc(a: Mask3D, b: Mask3D) -> float:
    """Volumetric Dice overlap 2|A&B| / (|A|+|B|); 1.0 when both masks are empty."""
    a.check_grid(b, "second dsc mask")
    na, nb = a.foreground_count(), b.foreground_count()
    if na + nb == 0:
        return 1.0
    inter = int((a.data & b.data).sum(dtype=np.int64))
    return 2.0 * inter / (na + nb)


def summarize(scores: list[float]) -> dict[str, float]:
    """Mean, sample standard deviation (n-1; zero when n=1), max, min."""
    if not scores:
        raise ValueError("cannot summarize an empty score list")
    arr = np.asarray(scores, dtype=np.float64)
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return {
        "mean": float(arr.mean()),
        "std": std,
        "max": float(arr.max()),
        "min": float(arr.min()),
    }


@dataclass(frozen=True)
class CaseScore:
    case_id: str
    coarse_dsc: float | None  # None when the case has no coarse prediction
    fine_dsc: float
    verdict: str


@dataclass(frozen=True)
class EvalReport:
    scores: list[CaseScore]
    coarse_summary: dict[str, float]
    fine_summary: dict[str, float]
    failures: list[tuple[str, str]]
    results: dict[str, CaseResult]


def score_cases(
    cases: Iterable[tuple],
    score_case: Callable[..., CaseScore],
) -> EvalReport:
    """Score cases in the given order with ``score_case(*case)``; ``case[0]`` is the id.

    A case that raises an ``OSError`` or a ``ValueError`` (which includes
    ``FormatError`` and ``GeometryError``) becomes a ``(case_id, message)``
    failure row; any other exception propagates. Each stage is summarized
    over the scores it has, and its summary is empty when there are none.
    """
    scores: list[CaseScore] = []
    failures: list[tuple[str, str]] = []
    for case in cases:
        try:
            scores.append(score_case(*case))
        except (OSError, ValueError) as exc:
            failures.append((case[0], str(exc)))
    coarse = [s.coarse_dsc for s in scores if s.coarse_dsc is not None]
    fine = [s.fine_dsc for s in scores]
    return EvalReport(
        scores, summarize(coarse) if coarse else {}, summarize(fine) if fine else {}, failures, {}
    )


def evaluate_split(
    cases: list[tuple[str, Volume3D, Mask3D]],
    models: StageModels,
    cfg: PipelineConfig,
) -> EvalReport:
    """Run the full pipeline on labelled cases and score both stages.

    Per-case failures (an ``OSError``, or bad input: a ``ValueError``,
    which includes ``FormatError`` and ``GeometryError``) are recorded,
    warned about and excluded from the summaries instead of aborting the
    batch; any other exception is a fault and propagates. Output rows are
    ordered by case id.
    """
    results: dict[str, CaseResult] = {}

    def score(case_id: str, vol: Volume3D, gt: Mask3D) -> CaseScore:
        vol.check_grid(gt, "ground truth")
        res = results[case_id] = run_case(vol, models, cfg)
        return CaseScore(case_id, dsc(res.coarse_mask, gt), dsc(res.fine_mask, gt), res.verdict.verdict)

    report = score_cases(sorted(cases, key=lambda c: c[0]), score)
    for case_id, message in report.failures:
        warnings.warn(f"case {case_id} failed: {message}")
    return replace(report, results=results)
