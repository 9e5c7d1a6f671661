import concurrent.futures
import re
import threading
import time
import tracemalloc
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import c2fseg.parallel
import c2fseg.pipeline
from c2fseg import (
    GeometryError,
    Mask3D,
    PhantomSpec,
    PipelineConfig,
    Spacing,
    StageModels,
    ThresholdModel,
    Volume3D,
    build_guidance,
    dsc,
    evaluate_split,
    generate_phantom,
    label_components,
    predict_coarse,
    predict_fine,
    prepare_abnormal_set,
    prepare_coarse_set,
    prepare_fine_set,
    resample_volume,
    run_case,
)
from c2fseg.components import component_stats
from c2fseg.nn.models import UNetModel
from c2fseg.nn.unet import UNetSpec, parameter_shapes
from c2fseg.nn.weights import ModelWeights
from c2fseg.pipeline import _component_windows
from oracles import (
    abnormal_pairs_oracle,
    brute_centroid,
    coarse_pairs_oracle,
    fine_pairs_oracle,
    full_frame_sagittal_oracle,
    pad_then_crop_oracle,
    stack_pairs,
)

SP = Spacing(3.0, 0.7816, 0.7816)

PHANTOM_KW = dict(
    dims=(24, 48, 48),
    spacing=SP,
    n_kidneys=2,
    semi_axes_mm=((9, 12), (6, 8), (4.5, 5.5)),
)


def desk_cfg(**overrides):
    base = dict(
        normalized_spacing=SP,
        coarse_dims=(32, 32),
        fine_dims=(32, 32),
        abnormal_dims=(16, 32),
        th_vn=300,
    )
    base.update(overrides)
    return PipelineConfig(**base)


def oracle_models():
    m = ThresholdModel(0.5)
    return StageModels(coarse=m, abnormal=m, fine=m)


class HalfBlindModel:
    """Threshold oracle whose prediction is erased on the right lateral half."""

    def __init__(self, level=0.5):
        self.level = level

    def predict(self, s):
        p = (s >= self.level).astype(np.float32)
        p[:, p.shape[1] // 2 :] = 0.0
        return p


class RaisingModel:
    def predict(self, s):
        raise AssertionError("this model must never be invoked")


@pytest.fixture
def phantom():
    return generate_phantom(PhantomSpec(seed=7, **PHANTOM_KW))


def edge_kidney_case():
    """A kidney hugging the left width edge, so its windows need boundary padding."""
    data = np.zeros((6, 16, 16), dtype=np.uint8)
    data[2:4, 6:10, 0:3] = 1
    return Volume3D(data.astype(np.float32), SP), Mask3D(data, SP)


def empty_case():
    return Volume3D(np.zeros((4, 8, 8), dtype=np.float32), SP), Mask3D(np.zeros((4, 8, 8), dtype=np.uint8), SP)


TRAINING_CASES = {
    "two_kidneys": lambda: generate_phantom(PhantomSpec(seed=7, **PHANTOM_KW)),
    "one_kidney": lambda: generate_phantom(PhantomSpec(seed=3, **{**PHANTOM_KW, "n_kidneys": 1})),
    "edge_padded": edge_kidney_case,
    "no_foreground": empty_case,
}
PREPARE_ORACLES = [
    (prepare_coarse_set, coarse_pairs_oracle, "coarse_dims"),
    (prepare_fine_set, fine_pairs_oracle, "fine_dims"),
    (prepare_abnormal_set, abnormal_pairs_oracle, "abnormal_dims"),
]


class TestTrainingSetBytes:
    """Each stage's (N, 2, H, W) set holds the bytes of the per-plane pairs, stacked."""

    @pytest.mark.parametrize("prepare, oracle, dims", PREPARE_ORACLES, ids=["coarse", "fine", "abnormal"])
    @pytest.mark.parametrize("which", [*TRAINING_CASES, "all_four"])
    def test_matches_stacked_per_plane_pairs(self, prepare, oracle, dims, which):
        names = list(TRAINING_CASES) if which == "all_four" else [which]
        cases = [TRAINING_CASES[n]() for n in names]
        cfg = desk_cfg()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the skipped no-foreground case warns
            got = prepare(cases, cfg)
        expected = stack_pairs(oracle(cases, cfg), getattr(cfg, dims))
        assert got.dtype == np.float32 and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("prepare", [p for p, _, _ in PREPARE_ORACLES], ids=["coarse", "fine", "abnormal"])
    def test_peak_holds_the_set_twice(self, prepare):
        """Each case's planes are stacked as they are cut, so only the final concatenation doubles the set."""
        cases = [generate_phantom(PhantomSpec(
            dims=(32, 96, 96), spacing=SP, semi_axes_mm=((15, 21), (9, 12), (9, 12)), seed=seed
        )) for seed in range(6)]
        tracemalloc.start()
        try:
            data = prepare(cases, PipelineConfig())  # production dims: the set outweighs a case's working memory
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.25 * data.nbytes, f"peak {peak / data.nbytes:.2f}x the set"

    @pytest.mark.parametrize("prepare", [p for p, _, _ in PREPARE_ORACLES], ids=["coarse", "fine", "abnormal"])
    def test_off_grid_case_is_cut_on_the_working_grid(self, prepare):
        """Training sees what ``run_case`` predicts on: each case is resampled before it is cut."""
        case = generate_phantom(PhantomSpec(
            dims=(48, 128, 128), spacing=Spacing(1.5, 0.6, 0.6), semi_axes_mm=((15, 21), (9, 12), (9, 12)), seed=3
        ))
        cfg = desk_cfg()
        resampled = tuple(resample_volume(c, cfg.normalized_spacing) for c in case)
        got, want = prepare([case], cfg), prepare([resampled], cfg)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestPrepareCoarseSet:
    def test_pair_count_and_dims(self, phantom):
        data = prepare_coarse_set([phantom], desk_cfg())
        assert data.shape == (24, 2, 32, 32)  # one sample per axial slice
        assert data.dtype == np.float32

    def test_labels_stay_binary(self, phantom):
        data = prepare_coarse_set([phantom], desk_cfg())
        assert set(np.unique(data[:, 1])).issubset({0.0, 1.0})

    def test_background_only_slices_retained(self, phantom):
        data = prepare_coarse_set([phantom], desk_cfg())
        assert (data[:, 1].sum(axis=(1, 2)) == 0).any()  # phantom kidneys never span all slices

    def test_geometry_mismatch_rejected(self, phantom):
        vol, _ = phantom
        bad = Mask3D(np.zeros((2, 2, 2), dtype=np.uint8), SP)
        with pytest.raises(GeometryError):
            prepare_coarse_set([(vol, bad)], desk_cfg())


def rescanned_windows(label, cfg, min_count=1, margin=0):
    """Component windows with each slice range found by rescanning the label map, then widened and clamped."""
    lm = label_components(label, cfg.connectivity)
    out = []
    for st in component_stats(lm):
        if st.voxel_count < min_count:
            continue
        zz = np.nonzero((lm.data == st.id).any(axis=(1, 2)))[0]
        center = (int(round(st.centroid[1])), int(round(st.centroid[2])))
        out.append((center, max(0, int(zz[0]) - margin), min(label.dims[0] - 1, int(zz[-1]) + margin)))
    return out


def margins(label):
    """No widening, 2 slices, and one slice more than the volume is deep."""
    return (0, 2, label.dims[0] + 1)


class TestComponentWindows:
    def test_phantom_matches_rescan(self, phantom):
        _, gt = phantom
        cfg = desk_cfg()
        for margin in margins(gt):
            assert _component_windows(gt, cfg, margin=margin) == rescanned_windows(gt, cfg, margin=margin)
        assert len(_component_windows(gt, cfg, min_count=cfg.th_vn)) == 2
        assert _component_windows(gt, cfg, margin=gt.dims[0] + 1)[0][1:] == (0, gt.dims[0] - 1)

    @pytest.mark.parametrize("connectivity", [6, 26])
    def test_random_masks_match_rescan(self, rng, connectivity):
        cfg = desk_cfg(connectivity=connectivity)
        for _ in range(20):
            data = (rng.uniform(size=(6, 10, 10)) < rng.uniform(0.05, 0.4)).astype(np.uint8)
            mask = Mask3D(data, SP)
            for min_count in (1, 3):
                for margin in margins(mask):
                    got = _component_windows(mask, cfg, min_count, margin)
                    assert got == rescanned_windows(mask, cfg, min_count, margin)


class TestPrepareFineSet:
    def test_two_kidneys_two_patch_streams(self, phantom):
        vol, gt = phantom
        lm = label_components(gt, 26)
        assert lm.n_components == 2
        stats = component_stats(lm)
        expected = 0
        for st in stats:
            zz = np.nonzero((lm.data == st.id).any(axis=(1, 2)))[0]
            expected += int(zz[-1] - zz[0] + 1)
        data = prepare_fine_set([phantom], desk_cfg())
        assert data.shape == (expected, 2, 32, 32)

    def test_patch_centers_match_brute_centroid(self, phantom):
        vol, gt = phantom
        lm = label_components(gt, 26)
        cfg = desk_cfg()
        for st in component_stats(lm):
            comp = (lm.data == st.id).astype(np.uint8)
            oracle = brute_centroid(comp)
            assert st.centroid == pytest.approx(oracle)
        data = prepare_fine_set([phantom], cfg)
        # every label patch contains foreground near its centre for mid-kidney slices
        assert data[:, 1].any()

    def test_edge_kidney_patches_zero_padded(self):
        cfg = desk_cfg(fine_dims=(12, 12), th_vn=1)
        data = prepare_fine_set([edge_kidney_case()], cfg)
        assert data.shape == (2, 2, 12, 12)
        assert np.all(data[0, 0, :, :4] == 0)  # padded region left of the volume

    def test_no_foreground_case_skipped_with_warning(self):
        with pytest.warns(UserWarning, match="no foreground"):
            data = prepare_fine_set([empty_case()], desk_cfg())
        assert data.shape == (0, 2, 32, 32) and data.dtype == np.float32


class TestPrepareAbnormalSet:
    def test_sagittal_slice_count_and_dims(self, phantom):
        data = prepare_abnormal_set([phantom], desk_cfg())
        assert data.shape == (48, 2, 16, 32)  # one per sagittal slice (volume width)
        vol, gt = phantom
        center = tuple(int(round(x)) for x in brute_centroid(gt.data)[:2])
        for k, (img, lab) in enumerate(data):
            assert np.array_equal(img, pad_then_crop_oracle(vol.data[:, :, k], center, (16, 32)))
            assert np.array_equal(lab, pad_then_crop_oracle(gt.data[:, :, k], center, (16, 32)))

    def test_physical_extent_of_default_window(self):
        # the production window spans 64 x 3 mm deep and 256 x 0.7816 mm high
        cfg = PipelineConfig()
        d_mm = cfg.abnormal_dims[0] * cfg.normalized_spacing.d
        h_mm = cfg.abnormal_dims[1] * cfg.normalized_spacing.h
        assert d_mm == pytest.approx(192.0)
        assert h_mm == pytest.approx(200.09, abs=0.01)

    def test_single_kidney_case_still_yields_patches(self):
        vol, gt = generate_phantom(PhantomSpec(seed=3, **{**PHANTOM_KW, "n_kidneys": 1}))
        data = prepare_abnormal_set([(vol, gt)], desk_cfg())
        assert data.shape == (48, 2, 16, 32)


class TestPredictCoarse:
    def test_oracle_on_noiseless_phantom_is_exact_at_native_dims(self, phantom):
        vol, gt = phantom
        cfg = desk_cfg(coarse_dims=(48, 48))  # native-size slices: no resize loss
        out = predict_coarse(vol, oracle_models(), cfg)
        assert np.array_equal(out.data, gt.data)

    def test_all_background_volume_gives_empty_mask(self):
        vol = Volume3D(np.zeros((4, 8, 8), dtype=np.float32), SP)
        out = predict_coarse(vol, oracle_models(), desk_cfg(coarse_dims=(8, 8)))
        assert out.foreground_count() == 0
        assert out.dims == vol.dims and out.spacing == vol.spacing

    def test_output_geometry_matches_input(self, phantom):
        vol, _ = phantom
        out = predict_coarse(vol, oracle_models(), desk_cfg())
        assert out.dims == vol.dims and out.spacing == vol.spacing


class TestBuildGuidance:
    def test_normal_branch_returns_coarse_verbatim(self, phantom):
        vol, gt = phantom
        models = StageModels(coarse=RaisingModel(), abnormal=RaisingModel(), fine=RaisingModel())
        m, verdict = build_guidance(vol, gt, models, desk_cfg())
        assert verdict.verdict == "Normal"
        assert m is gt  # bit-identical, not even copied

    def test_single_component_takes_abnormal_path(self, phantom):
        vol, gt = phantom
        half = gt.data.copy()
        half[:, :, half.shape[2] // 2 :] = 0
        s_c = Mask3D(half, SP)
        m, verdict = build_guidance(vol, s_c, oracle_models(), desk_cfg())
        assert verdict.verdict == "Abnormal"
        assert verdict.n_kidney == 1

    def test_abnormal_path_recovers_missed_kidney(self, phantom):
        vol, gt = phantom
        half = gt.data.copy()
        half[:, :, half.shape[2] // 2 :] = 0
        s_c = Mask3D(half, SP)
        m, _ = build_guidance(vol, s_c, oracle_models(), desk_cfg())
        lm = label_components(gt, 26)
        for st in component_stats(lm):
            comp = lm.data == st.id
            assert int((m.data.astype(bool) & comp).sum()) == st.voxel_count

    def test_detection_failure_flagged(self):
        vol = Volume3D(np.zeros((4, 8, 8), dtype=np.float32), SP)
        empty = Mask3D(np.zeros((4, 8, 8), dtype=np.uint8), SP)
        models = StageModels(
            coarse=ThresholdModel(0.5), abnormal=ThresholdModel(0.5), fine=ThresholdModel(0.5)
        )
        with pytest.warns(UserWarning, match="detection failure"):
            m, verdict = build_guidance(vol, empty, models, desk_cfg(abnormal_dims=(4, 8)))
        assert verdict.verdict == "Abnormal"
        assert m.foreground_count() == 0


class InvertedModel:
    """1 - intensity: predicts 1.0 on the zero padding, which the map-back must drop."""

    def predict(self, s):
        return (1.0 - s).astype(np.float32)


def guidance_against_oracle(vol_data, coarse_data, window, model, threshold):
    """build_guidance on an always-Abnormal config against the full-frame oracle, with its flag."""
    vol, s_c = Volume3D(vol_data, SP), Mask3D(coarse_data, SP)
    cfg = desk_cfg(abnormal_dims=window, prob_threshold=threshold, th_vn=10**9)  # no component is a kidney
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        m, verdict = build_guidance(vol, s_c, StageModels(RaisingModel(), model, RaisingModel()), cfg)
    assert verdict.verdict == "Abnormal"
    expected = full_frame_sagittal_oracle(
        vol.data, s_c.data, window, model.predict, threshold
    )
    assert m.data.tobytes() == expected.tobytes()
    flagged = [w for w in caught if str(w.message) == _DETECTION_FAILURE]
    assert len(flagged) == int(not s_c.data.any() and not expected.any())


class TestGuidanceMatchesFullFrameChain:
    """The window-local map-back gives the mask of the full-frame sagittal chain, byte for byte."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), inverted=st.booleans(),
           threshold=st.sampled_from([0.5, 0.05, 0.95]) | st.floats(0.01, 0.99))
    def test_random_windows(self, data, inverted, threshold):
        dims = data.draw(st.tuples(st.integers(1, 8), st.integers(1, 10), st.integers(1, 4)))
        cells = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0, width=32)
        vol = data.draw(hnp.arrays(np.float32, dims, elements=cells))
        # sparse coarse masks put the centroid anywhere, near every face too; all-zero ones take the centre
        coarse = data.draw(hnp.arrays(np.uint8, dims, elements=st.sampled_from([0, 0, 0, 1])))
        window = data.draw(st.tuples(st.integers(1, 12), st.integers(1, 14)))  # often larger than the volume
        model = InvertedModel() if inverted else ThresholdModel(0.5)
        guidance_against_oracle(vol, coarse, window, model, threshold)

    @pytest.mark.parametrize(
        "voxel, window",
        [
            ((0, 5), (4, 6)),  # clipped at depth 0
            ((5, 5), (4, 6)),  # clipped at the last depth
            ((3, 0), (4, 6)),  # clipped at row 0
            ((3, 9), (4, 6)),  # clipped at the last row
            ((3, 5), (10, 14)),  # larger than the volume on every face
            (None, (4, 6)),  # empty coarse mask: centred on the volume
            (None, (3, 3)),  # and an odd window
        ],
    )
    @pytest.mark.parametrize("model", [ThresholdModel(0.5), InvertedModel()], ids=["threshold", "inverted"])
    def test_clipped_windows(self, rng, voxel, window, model):
        vol = rng.uniform(size=(6, 10, 4)).astype(np.float32)
        coarse = np.zeros(vol.shape, dtype=np.uint8)
        if voxel is not None:
            coarse[voxel[0], voxel[1], :] = 1
        guidance_against_oracle(vol, coarse, window, model, 0.5)


class TestPredictFine:
    def test_oracle_exactness(self, phantom):
        vol, gt = phantom
        out = predict_fine(vol, gt, oracle_models(), desk_cfg())
        assert dsc(out, gt) == 1.0

    def test_two_components_predicted_separately_and_unioned(self, phantom):
        vol, gt = phantom
        out = predict_fine(vol, gt, oracle_models(), desk_cfg())
        assert label_components(out, 26).n_components == 2

    def test_voxels_outside_windows_are_background(self, phantom):
        vol, gt = phantom
        cfg = desk_cfg()
        all_on = StageModels(
            coarse=ThresholdModel(0.5),
            abnormal=ThresholdModel(0.5),
            fine=ThresholdModel(-1e9),  # predicts 1 everywhere inside its window
        )
        out = predict_fine(vol, gt, all_on, cfg)
        lm = label_components(gt, cfg.connectivity)
        covered = np.zeros(vol.dims, dtype=bool)
        nd = vol.dims[0]
        for st in component_stats(lm):
            zz = np.nonzero((lm.data == st.id).any(axis=(1, 2)))[0]
            z0 = max(0, int(zz[0]) - cfg.fine_slice_margin)
            z1 = min(nd - 1, int(zz[-1]) + cfg.fine_slice_margin)
            r, c = int(round(st.centroid[1])), int(round(st.centroid[2]))
            r0, c0 = r - cfg.fine_dims[0] // 2, c - cfg.fine_dims[1] // 2
            covered[
                z0 : z1 + 1,
                max(0, r0) : min(vol.dims[1], r0 + cfg.fine_dims[0]),
                max(0, c0) : min(vol.dims[2], c0 + cfg.fine_dims[1]),
            ] = True
        assert not out.data[~covered].any()

    def test_empty_guidance_flagged(self, phantom):
        vol, _ = phantom
        empty = Mask3D(np.zeros(vol.dims, dtype=np.uint8), SP)
        with pytest.warns(UserWarning, match="empty guidance"):
            out = predict_fine(vol, empty, oracle_models(), desk_cfg())
        assert out.foreground_count() == 0

    def test_abnormal_model_never_invoked_when_normal(self, phantom):
        vol, gt = phantom
        models = StageModels(coarse=ThresholdModel(0.5), abnormal=RaisingModel(), fine=ThresholdModel(0.5))
        m, verdict = build_guidance(vol, gt, models, desk_cfg())
        assert verdict.verdict == "Normal"
        out = predict_fine(vol, m, models, desk_cfg())
        assert dsc(out, gt) == 1.0


def left_half(mask: Mask3D) -> Mask3D:
    half = mask.data.copy()
    half[:, :, half.shape[2] // 2 :] = 0
    return Mask3D(half, mask.spacing)


def run_stage(stage, model, phantom):
    """Run one stage on the phantom with ``model`` in its slot; the abnormal stage
    gets a one-kidney coarse mask so that it runs."""
    vol, gt = phantom
    models = StageModels(**{k: model if k == stage else RaisingModel() for k in ("coarse", "abnormal", "fine")})
    if stage == "coarse":
        return predict_coarse(vol, models, desk_cfg())
    if stage == "abnormal":
        return build_guidance(vol, left_half(gt), models, desk_cfg())
    return predict_fine(vol, gt, models, desk_cfg())


class PlaneModel:
    """Threshold oracle that accepts only one read-only float32 2D plane and counts its calls.

    The count is kept under a lock, since ``_predict`` may call from several threads."""

    def __init__(self):
        self.calls = 0
        self._lock = threading.Lock()

    def predict(self, s):
        assert type(s) is np.ndarray and s.ndim == 2 and s.dtype == np.float32
        assert not s.flags.writeable
        with self._lock:
            self.calls += 1
        return (s >= 0.5).astype(np.float32)


class WritingModel:
    """Tries to zero its input plane in place before predicting it."""

    def predict(self, s):
        s[...] = 0.0
        return np.zeros(s.shape, dtype=np.float32)


class TestModelsSeeSinglePlanes:
    """Stages run on stacks, but every model call gets one read-only 2D plane."""

    @pytest.mark.parametrize("stage", ["coarse", "abnormal", "fine"])
    def test_writing_into_the_input_raises(self, phantom, stage):
        vol, _ = phantom
        before = vol.data.copy()
        with pytest.raises(ValueError, match="read-only"):
            run_stage(stage, WritingModel(), phantom)
        assert np.array_equal(vol.data, before)

    def test_the_callers_stack_stays_writeable(self):
        stack = np.full((2, 3, 4), 0.75, dtype=np.float32)
        out = c2fseg.pipeline._predict(PlaneModel(), stack, "coarse")
        assert stack.flags.writeable and np.array_equal(out, np.ones((2, 3, 4), dtype=np.float32))

    @pytest.mark.parametrize("stage", ["coarse", "abnormal", "fine"])
    def test_one_call_per_plane(self, phantom, stage):
        _, gt = phantom
        cfg = desk_cfg()
        model = PlaneModel()
        run_stage(stage, model, phantom)
        if stage == "fine":
            m = cfg.fine_slice_margin
            ranges = [(max(0, z0 - m), min(gt.dims[0] - 1, z1 + m))
                      for _, z0, z1 in _component_windows(gt, cfg, min_count=cfg.th_vn)]
            expected = sum(z1 - z0 + 1 for z0, z1 in ranges)
        else:
            expected = {"coarse": gt.dims[0], "abnormal": gt.dims[2]}[stage]
        assert model.calls == expected


class TestModelOutputChecks:
    """Each stage checks its model's output: the slice's dims, finite values in [0, 1]."""

    @pytest.mark.parametrize("stage", ["coarse", "abnormal", "fine"])
    def test_wrong_dims_name_the_stage(self, phantom, stage):
        model = SimpleNamespace(predict=lambda s: np.zeros((s.shape[0], s.shape[1] + 1), dtype=np.float32))
        with pytest.raises(GeometryError, match=f"^{stage} model returned dims"):
            run_stage(stage, model, phantom)

    @pytest.mark.parametrize("bad", [1.5, np.nan, np.inf, -np.inf, -1e-6, 1.0 + 1e-6])
    def test_non_probabilities_rejected(self, phantom, bad):
        model = SimpleNamespace(predict=lambda s: np.where(np.eye(*s.shape, dtype=bool), bad, 0.5))  # one bad pixel
        for stage in ("coarse", "abnormal", "fine"):
            with pytest.raises(ValueError, match=f"^{stage} model returned values that are not probabilities"):
                run_stage(stage, model, phantom)


RAISING_MODELS = StageModels(coarse=RaisingModel(), abnormal=RaisingModel(), fine=RaisingModel())

# Each site that needs two inputs on one grid: a call taking (volume, other) and how its error names `other`.
GRID_SITES = {
    "prepare_coarse_set": (lambda v, m: prepare_coarse_set([(v, m)], desk_cfg()), "label"),
    "prepare_fine_set": (lambda v, m: prepare_fine_set([(v, m)], desk_cfg()), "label"),
    "prepare_abnormal_set": (lambda v, m: prepare_abnormal_set([(v, m)], desk_cfg()), "label"),
    "build_guidance": (lambda v, m: build_guidance(v, m, RAISING_MODELS, desk_cfg()), "coarse mask"),
    "predict_fine": (lambda v, m: predict_fine(v, m, RAISING_MODELS, desk_cfg()), "guidance mask"),
    "dsc": (lambda v, m: dsc(Mask3D(v.data > 0, v.spacing), m), "second dsc mask"),
}

# A mask off the (4, 8, 8) grid at SP in one respect only.
GRID_MISMATCHES = {
    "dims_only": lambda: Mask3D(np.zeros((4, 8, 9), dtype=np.uint8), SP),
    "spacing_only": lambda: Mask3D(np.zeros((4, 8, 8), dtype=np.uint8), Spacing(SP.d, SP.h, 0.8)),
}


def grid_message(what: str, vol: Volume3D, other: Mask3D) -> str:
    return f"{what} grid {other.dims}/{other.spacing} does not match {vol.dims}/{vol.spacing}"


class TestSameGridSites:
    """Every site that pairs a volume with a mask rejects a mask off its grid before any model runs."""

    @pytest.mark.parametrize("mismatch", sorted(GRID_MISMATCHES))
    @pytest.mark.parametrize("site", sorted(GRID_SITES))
    def test_mismatch_raises_naming_the_site(self, site, mismatch):
        call, what = GRID_SITES[site]
        vol, other = Volume3D(np.zeros((4, 8, 8), dtype=np.float32), SP), GRID_MISMATCHES[mismatch]()
        with pytest.raises(GeometryError, match=f"^{re.escape(grid_message(what, vol, other))}$"):
            call(vol, other)

    @pytest.mark.parametrize("mismatch", sorted(GRID_MISMATCHES))
    def test_evaluate_split_records_a_failure_row(self, mismatch):
        vol, gt = Volume3D(np.zeros((4, 8, 8), dtype=np.float32), SP), GRID_MISMATCHES[mismatch]()
        with pytest.warns(UserWarning, match="^case c0 failed: ground truth grid"):
            report = evaluate_split([("c0", vol, gt)], RAISING_MODELS, desk_cfg())
        assert not report.scores and not report.results
        assert report.failures == [("c0", grid_message("ground truth", vol, gt))]


class TestRunCase:
    def test_full_oracle_run_normal_and_exact(self, phantom):
        vol, gt = phantom
        res = run_case(vol, oracle_models(), desk_cfg())
        assert res.verdict.verdict == "Normal"
        assert dsc(res.fine_mask, gt) == 1.0

    def test_blinded_coarse_triggers_correction(self, phantom):
        vol, gt = phantom
        models = StageModels(
            coarse=HalfBlindModel(), abnormal=ThresholdModel(0.5), fine=ThresholdModel(0.5)
        )
        res = run_case(vol, models, desk_cfg())
        assert res.verdict.verdict == "Abnormal"
        assert dsc(res.fine_mask, gt) > dsc(res.coarse_mask, gt)

    def test_timings_recorded(self, phantom):
        vol, _ = phantom
        res = run_case(vol, oracle_models(), desk_cfg())
        assert list(res.timings) == ["resample", "coarse", "guidance", "fine", "map_back"]
        assert all(v >= 0 for v in res.timings.values())

    def test_native_spacing_restored(self):
        vol, gt = generate_phantom(
            PhantomSpec(seed=11, dims=(16, 40, 40), spacing=Spacing(4.5, 1.2, 1.2),
                        n_kidneys=2, semi_axes_mm=((9, 12), (6, 8), (4.5, 5.5)))
        )
        res = run_case(vol, oracle_models(), desk_cfg())
        for mask in (res.coarse_mask, res.guidance, res.fine_mask):
            assert mask.dims == vol.dims
            assert mask.spacing == vol.spacing
        assert dsc(res.fine_mask, gt) > 0.8  # resample round trip costs a little accuracy

    @pytest.mark.parametrize("kidneys, verdict, map_backs", [(2, "Normal", 2), (1, "Abnormal", 3)])
    def test_each_distinct_mask_mapped_back_once(self, monkeypatch, kidneys, verdict, map_backs):
        vol, _ = generate_phantom(
            PhantomSpec(seed=11, dims=(16, 40, 40), spacing=Spacing(4.5, 1.2, 1.2),
                        n_kidneys=kidneys, semi_axes_mm=((9, 12), (6, 8), (4.5, 5.5)))
        )
        cfg, models = desk_cfg(), oracle_models()
        work = resample_volume(vol, cfg.normalized_spacing, mode="trilinear")
        s_c = predict_coarse(work, models, cfg)
        m, _ = build_guidance(work, s_c, models, cfg)
        stage_masks = (s_c, m, predict_fine(work, m, models, cfg))

        modes = []

        def counted(*args, **kwargs):
            modes.append(kwargs.get("mode"))
            return resample_volume(*args, **kwargs)

        monkeypatch.setattr(c2fseg.pipeline, "resample_volume", counted)
        res = run_case(vol, models, cfg)
        assert res.verdict.verdict == verdict
        assert modes.count("nearest") == map_backs
        for got, mask in zip((res.coarse_mask, res.guidance, res.fine_mask), stage_masks):
            want = resample_volume(mask, vol.spacing, mode="nearest", target_dims=vol.dims)
            assert (got.dims, got.spacing) == (want.dims, want.spacing)
            assert got.data.tobytes() == want.data.tobytes()

    def test_deterministic(self, phantom):
        vol, _ = phantom
        a = run_case(vol, oracle_models(), desk_cfg())
        b = run_case(vol, oracle_models(), desk_cfg())
        assert np.array_equal(a.fine_mask.data, b.fine_mask.data)
        assert np.array_equal(a.guidance.data, b.guidance.data)
        assert a.verdict == b.verdict


class TestCaseMemory:
    @pytest.mark.parametrize("kidneys, verdict", [(2, "Normal"), (1, "Abnormal")])
    def test_peak_within_4x_input(self, kidneys, verdict):
        # A small CT-like case on the production settings. The abnormal window
        # is scaled to this 33x164x164 working grid as (64, 256) is to a CT's
        # 67x393x393; the full window would be larger than the volume.
        vol, _ = generate_phantom(
            PhantomSpec(dims=(40, 160, 160), spacing=Spacing(2.5, 0.8, 0.8), n_kidneys=kidneys, seed=3)
        )
        tracemalloc.start()
        try:
            res = run_case(vol, oracle_models(), PipelineConfig(abnormal_dims=(32, 112)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.verdict.verdict == verdict
        assert peak <= 4 * vol.data.nbytes, f"peak {peak / vol.data.nbytes:.2f}x the input"

    def test_working_volume_freed_before_map_backs(self, monkeypatch):
        vol, _ = generate_phantom(
            PhantomSpec(seed=11, dims=(16, 40, 40), spacing=Spacing(4.5, 1.2, 1.2),
                        n_kidneys=1, semi_axes_mm=((9, 12), (6, 8), (4.5, 5.5)))
        )
        work, alive = [], []

        def watched(*args, **kwargs):
            if kwargs.get("mode") == "nearest":
                alive.append(work[0]() is not None)
                return resample_volume(*args, **kwargs)
            out = resample_volume(*args, **kwargs)
            work.append(weakref.ref(out.data))
            return out

        monkeypatch.setattr(c2fseg.pipeline, "resample_volume", watched)
        res = run_case(vol, oracle_models(), desk_cfg())
        assert res.verdict.verdict == "Abnormal"
        assert alive == [False, False, False]


def _discs(h, w, centers, r):
    yy, xx = np.mgrid[:h, :w]
    return np.logical_or.reduce([(yy - cy) ** 2 + (xx - cx) ** 2 <= r * r for cy, cx in centers])


def _three_blocks():
    data = np.zeros((6, 20, 60), dtype=np.float32)
    for x0 in (2, 22, 42):
        data[:, 2:18, x0 : x0 + 16] = 1.0
    return data


_EMPTY_GUIDANCE = "empty guidance mask: fine stage produced an empty result"
_DETECTION_FAILURE = "detection failure: empty coarse mask and empty corrected mask"


DEGENERATE_CASES = [
    # one slice holding two discs of 377 voxels each
    (_discs(48, 64, [(24, 16), (24, 48)], 11)[None], 2, "Normal", 754, ()),
    # smaller than the fine (32x32) and abnormal (16x32) windows
    (np.ones((3, 10, 12)), 1, "Abnormal", 360, ()),
    # one component that touches every face of the volume
    (np.ones((4, 20, 20)), 1, "Abnormal", 1600, ()),
    # three components, each above th_vn
    (_three_blocks(), 3, "Abnormal", 4608, ()),
    (np.zeros((1, 1, 1)), 0, "Abnormal", 0, (_DETECTION_FAILURE, _EMPTY_GUIDANCE)),
    (np.ones((1, 1, 1)), 0, "Abnormal", 0, (_EMPTY_GUIDANCE,)),
]
DEGENERATE_IDS = [
    "one-slice", "smaller-than-windows", "fills-every-face", "three-components", "voxel-empty", "voxel-full"
]


class TestDegenerateGeometry:
    """Volumes at the edges of the cascade's geometry, on the desk config with threshold models.

    Each volume is on the normalized grid, so the resample is the identity;
    the counts and flags pin what the cascade gives."""

    @pytest.mark.parametrize("data, n_kidney, verdict, fine_count, flags", DEGENERATE_CASES, ids=DEGENERATE_IDS)
    def test_defined_result(self, data, n_kidney, verdict, fine_count, flags):
        vol = Volume3D(data.astype(np.float32), SP)
        res = run_case(vol, oracle_models(), desk_cfg())
        assert (res.verdict.n_kidney, res.verdict.verdict) == (n_kidney, verdict)
        assert res.fine_mask.foreground_count() == fine_count
        assert res.flags == flags
        for mask in (res.coarse_mask, res.guidance, res.fine_mask):
            assert mask.dims == vol.dims and mask.spacing == vol.spacing


def threshold_unet(spec: UNetSpec, seed: int, level: float = 0.5) -> UNetModel:
    """A dense U-Net that thresholds a non-negative input at ``level``: one unit path
    through enc0 and dec0 into a steep head; every other weight is small noise."""
    rng = np.random.default_rng(seed)
    params = {
        name: rng.uniform(-1e-7, 1e-7, size=shape).astype(np.float32)
        for name, shape in parameter_shapes(spec).items()
    }
    params["enc0.w"][0, 0, 1, 1] = 1.0
    params["dec0.w"][0, 0, 1, 1] = 1.0  # input channel 0 of dec0 is skip channel 0
    params["head.w"][0, 0, 0, 0] = 1e7
    params["head.b"][0] = -1e7 * (level - 1e-5)
    return UNetModel(spec, ModelWeights(params))


# Sleeps past the serial gate of ``parallel.split_planes``, so that a stack takes the threaded branch.
SLOW_S = 2 * c2fseg.parallel._SERIAL_PLANE_S


class SlowModel:
    """Wraps a model so that each predict sleeps ``SLOW_S`` first; records the threads it ran on."""

    def __init__(self, inner):
        self.inner = inner
        self.threads = set()

    def predict(self, s):
        self.threads.add(threading.get_ident())
        time.sleep(SLOW_S)
        return self.inner.predict(s)


def slow_models(models: StageModels) -> StageModels:
    return StageModels(SlowModel(models.coarse), SlowModel(models.abnormal), SlowModel(models.fine))


def assert_same_results(a, b):
    assert (a.verdict, a.flags) == (b.verdict, b.flags)
    for name in ("coarse_mask", "guidance", "fine_mask"):
        assert getattr(a, name).data.tobytes() == getattr(b, name).data.tobytes()


class TestSharedUNetModels:
    def test_two_threads_match_a_serial_run(self, phantom, cpus):
        self.check_two_threads(phantom, cpus, slow=False)

    def test_nested_threads_match_a_serial_run(self, phantom, cpus):
        """Past the gate, each of the two concurrent run_case calls fans its stacks out to threads too."""
        self.check_two_threads(phantom, cpus, slow=True)

    @staticmethod
    def check_two_threads(phantom, cpus, slow):
        spec = UNetSpec(depth=2, base_channels=4)
        models = StageModels(*(threshold_unet(spec, seed) for seed in (1, 2, 3)))
        one_kidney, _ = generate_phantom(PhantomSpec(seed=8, **{**PHANTOM_KW, "n_kidneys": 1}))
        empty = Volume3D(np.zeros(PHANTOM_KW["dims"], dtype=np.float32), SP)
        vols = [phantom[0], one_kidney, empty] * (2 if slow else 4)
        cfg = desk_cfg()
        cpus(1)
        serial = [run_case(v, models, cfg) for v in vols[:3]]
        assert [r.verdict.verdict for r in serial] == ["Normal", "Abnormal", "Abnormal"]
        cpus(2)
        used = slow_models(models) if slow else models
        pool = ThreadPoolExecutor(max_workers=2)
        try:
            futures = [pool.submit(run_case, v, used, cfg) for v in vols]
            done, _ = concurrent.futures.wait(futures, timeout=120)
            assert len(done) == len(futures), "concurrent run_case calls did not finish"
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        for k, f in enumerate(futures):
            assert_same_results(f.result(), serial[k % 3])
        if slow:
            assert len(used.coarse.threads) > 2  # the two callers and at least one plane worker


class TestFlagsAcrossThreads:
    def test_each_case_gets_its_own_flags(self, cpus):
        self.check_flags(cpus, slow=False, repeats=100)

    def test_each_case_gets_its_own_flags_with_nested_threads(self, cpus):
        self.check_flags(cpus, slow=True, repeats=3)

    @staticmethod
    def check_flags(cpus, slow, repeats):
        cfg = PipelineConfig(coarse_dims=(64, 64), fine_dims=(48, 48), abnormal_dims=(32, 64), th_vn=800)
        sp = cfg.normalized_spacing
        normal, _ = generate_phantom(
            PhantomSpec(dims=(64, 96, 96), spacing=sp, semi_axes_mm=((15, 21), (9, 12), (9, 12)), seed=1)
        )
        empty = Volume3D(np.zeros(normal.dims, dtype=np.float32), sp)
        models = slow_models(oracle_models()) if slow else oracle_models()
        cpus(3)
        with warnings.catch_warnings(record=True) as leaked:
            warnings.simplefilter("always")
            with ThreadPoolExecutor(max_workers=2) as pool:
                flags = list(pool.map(lambda v: run_case(v, models, cfg).flags, [empty, normal] * repeats))
        assert flags == [(_DETECTION_FAILURE, _EMPTY_GUIDANCE), ()] * repeats
        assert [str(w.message) for w in leaked] == []


class IndexedModel:
    """For a stack whose plane k is filled with the value k: sleeps ``SLOW_S`` (or
    ``delays[k]``), then returns a NaN plane or one of the wrong dims where ``bad[k]``
    says so and zeros elsewhere. Counts its calls."""

    def __init__(self, bad: dict, delays: dict | None = None):
        self.bad, self.delays = bad, delays or {}
        self.calls = 0
        self._lock = threading.Lock()

    def predict(self, s):
        k = int(s[0, 0])
        with self._lock:
            self.calls += 1
        time.sleep(self.delays.get(k, SLOW_S))
        if self.bad.get(k) == "nan":
            return np.full(s.shape, np.nan, dtype=np.float32)
        if self.bad.get(k) == "shape":
            return np.zeros((s.shape[0] + 1, s.shape[1]), dtype=np.float32)
        return np.zeros(s.shape, dtype=np.float32)


def pool_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith("c2fseg-batch")]


def indexed_stack(n: int) -> np.ndarray:
    return np.broadcast_to(np.arange(n, dtype=np.float32)[:, None, None], (n, 4, 4))


class TestThreadedPredict:
    """Past the gate a stack's planes run on one thread per usable CPU; the output
    bytes and the error raised are those of the serial loop."""

    @pytest.mark.parametrize("n_cpus", [1, 2, 3])
    @pytest.mark.parametrize("n_planes", [1, 2, 3, 7])
    def test_bytes_across_worker_counts(self, rng, cpus, n_cpus, n_planes):
        stack = rng.uniform(size=(n_planes, 9, 11)).astype(np.float32)
        want = np.stack([InvertedModel().predict(p) for p in stack])
        model = SlowModel(InvertedModel())
        cpus(n_cpus)
        got = c2fseg.pipeline._predict(model, stack, "coarse")
        assert got.tobytes() == want.tobytes()
        assert len(model.threads) == max(1, min(n_cpus, n_planes - 1))  # planes 1.. split into chunks

    @pytest.mark.parametrize("n_cpus", [1, 2, 3])
    @pytest.mark.parametrize("data", [case[0] for case in DEGENERATE_CASES], ids=DEGENERATE_IDS)
    def test_degenerate_volumes(self, cpus, data, n_cpus):
        vol = Volume3D(data.astype(np.float32), SP)
        want = run_case(vol, oracle_models(), desk_cfg())
        cpus(n_cpus)
        assert_same_results(run_case(vol, slow_models(oracle_models()), desk_cfg()), want)

    @pytest.mark.parametrize("n_cpus", [1, 2, 3])
    @pytest.mark.parametrize("n_kidneys, verdict", [(2, "Normal"), (1, "Abnormal")])
    def test_threshold_unet_case(self, cpus, n_cpus, n_kidneys, verdict):
        models = StageModels(*(threshold_unet(UNetSpec(depth=2, base_channels=4), seed) for seed in (1, 2, 3)))
        vol, _ = generate_phantom(PhantomSpec(seed=8, **{**PHANTOM_KW, "n_kidneys": n_kidneys}))
        cpus(1)
        want = run_case(vol, models, desk_cfg())
        assert want.verdict.verdict == verdict
        cpus(n_cpus)
        assert_same_results(run_case(vol, slow_models(models), desk_cfg()), want)

    def test_a_fast_model_starts_no_thread(self, monkeypatch, cpus, phantom):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        cpus(3)
        vol, _ = phantom
        models = StageModels(coarse=HalfBlindModel(), abnormal=ThresholdModel(0.5), fine=ThresholdModel(0.5))
        assert run_case(vol, models, desk_cfg()).verdict.verdict == "Abnormal"  # all three stages ran
        with pytest.raises(AssertionError, match="thread pool"):  # the patch is where _predict looks
            c2fseg.pipeline._predict(SlowModel(ThresholdModel(0.5)), vol.data[:3], "coarse")

    def test_unet_layers_start_no_thread(self, monkeypatch, cpus):
        """A predict is a batch of one outside ``fit``: each layer runs on the calling thread."""
        models = StageModels(*(threshold_unet(UNetSpec(depth=2, base_channels=4), seed) for seed in (1, 2, 3)))
        vol, _ = generate_phantom(PhantomSpec(seed=8, **{**PHANTOM_KW, "n_kidneys": 1}))
        cpus(1)
        want = run_case(vol, models, desk_cfg())

        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        monkeypatch.setattr(c2fseg.parallel, "_SERIAL_PLANE_S", float("inf"))  # every plane loop stays serial
        cpus(3)
        assert_same_results(run_case(vol, models, desk_cfg()), want)

    def test_no_pool_thread_outlives_predict(self, cpus):
        """Past the gate the planes run on ``parallel``'s pool threads, all joined once _predict returns or raises."""
        names = set()

        class ThreadNamer(IndexedModel):
            def predict(self, s):
                names.add(threading.current_thread().name)
                return super().predict(s)

        caller = threading.current_thread().name
        cpus(3)  # 7 planes: 1-2 on the caller's thread, 3-4 and 5-6 on two workers
        c2fseg.pipeline._predict(ThreadNamer({}), indexed_stack(7), "fine")
        workers = names - {caller}
        assert len(workers) == 2 and all(name.startswith("c2fseg-batch") for name in workers)
        assert pool_threads() == []

        names.clear()
        with pytest.raises(ValueError, match="not probabilities"):
            c2fseg.pipeline._predict(ThreadNamer({5: "nan"}), indexed_stack(7), "fine")
        assert any(name.startswith("c2fseg-batch") for name in names)  # plane 5 ran on a worker
        assert pool_threads() == []

    def test_cpu_count_without_affinity(self, monkeypatch, rng):
        monkeypatch.delattr(c2fseg.parallel.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(c2fseg.parallel.os, "cpu_count", lambda: 2)
        stack = rng.uniform(size=(5, 4, 4)).astype(np.float32)
        model = SlowModel(ThresholdModel(0.5))
        got = c2fseg.pipeline._predict(model, stack, "fine")
        assert got.tobytes() == (stack >= 0.5).astype(np.float32).tobytes()
        assert len(model.threads) == 2

    # With 3 CPUs a 10-plane stack runs planes 1-3 on the caller's thread, 4-6 and 7-9 on
    # two workers. The plane just before the lower bad plane answers 50 ms late, so its
    # chunk reaches the bad plane only after the higher one has failed.
    @pytest.mark.parametrize("n_cpus", [1, 3])
    @pytest.mark.parametrize(
        "bad, error, match",
        [
            ({5: "nan", 8: "shape"}, ValueError, "^fine model returned values that are not probabilities"),
            ({5: "shape", 8: "nan"}, GeometryError, r"^fine model returned dims \(5, 4\)"),
            ({2: "nan", 5: "shape"}, ValueError, "^fine model returned values that are not probabilities"),
        ],
        ids=["nan-before-shape", "shape-before-nan", "callers-chunk-first"],
    )
    def test_lowest_bad_plane_raises(self, cpus, n_cpus, bad, error, match):
        model = IndexedModel(bad, delays={min(bad) - 1: 0.05})
        cpus(n_cpus)
        with pytest.raises(error, match=match):
            c2fseg.pipeline._predict(model, indexed_stack(10), "fine")

    def test_later_chunks_stop_after_an_error(self, cpus):
        model = IndexedModel({1: "nan"})
        cpus(3)
        with pytest.raises(ValueError, match="not probabilities"):
            c2fseg.pipeline._predict(model, indexed_stack(61), "fine")
        assert model.calls < 20  # the two worker chunks hold 40 planes

    def test_writing_on_a_worker_thread_raises(self, cpus):
        caller = threading.get_ident()
        on_worker = []

        class WorkerWriter:
            def predict(self, s):
                time.sleep(SLOW_S)
                if threading.get_ident() != caller:
                    on_worker.append(True)
                    return WritingModel().predict(s)
                return np.zeros(s.shape, dtype=np.float32)

        stack = np.full((4, 3, 3), 0.75, dtype=np.float32)
        cpus(2)
        with pytest.raises(ValueError, match="read-only"):
            c2fseg.pipeline._predict(WorkerWriter(), stack, "abnormal")
        assert on_worker and stack.flags.writeable and (stack == 0.75).all()
