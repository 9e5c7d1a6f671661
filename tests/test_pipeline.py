from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

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
    generate_phantom,
    label_components,
    predict_coarse,
    predict_fine,
    prepare_abnormal_set,
    prepare_coarse_set,
    prepare_fine_set,
    run_case,
)
from c2fseg.components import component_stats
from c2fseg.nn.models import UNetModel
from c2fseg.nn.unet import UNetSpec, parameter_shapes
from c2fseg.nn.weights import ModelWeights
from c2fseg.pipeline import _component_windows
from oracles import brute_centroid, pad_then_crop_oracle

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
        p = (s.data >= self.level).astype(np.float32)
        p[:, p.shape[1] // 2 :] = 0.0
        return p


class RaisingModel:
    def predict(self, s):
        raise AssertionError("this model must never be invoked")


@pytest.fixture
def phantom():
    return generate_phantom(PhantomSpec(seed=7, **PHANTOM_KW))


class TestPrepareCoarseSet:
    def test_pair_count_and_dims(self, phantom):
        pairs = prepare_coarse_set([phantom], desk_cfg())
        assert len(pairs) == 24  # one pair per axial slice
        assert all(img.dims == (32, 32) and lab.dims == (32, 32) for img, lab in pairs)

    def test_labels_stay_binary(self, phantom):
        pairs = prepare_coarse_set([phantom], desk_cfg())
        for _, lab in pairs:
            assert set(np.unique(lab.data)).issubset({0.0, 1.0})

    def test_background_only_slices_retained(self, phantom):
        pairs = prepare_coarse_set([phantom], desk_cfg())
        empties = [lab for _, lab in pairs if lab.data.sum() == 0]
        assert empties  # phantom kidneys never span all slices

    def test_geometry_mismatch_rejected(self, phantom):
        vol, _ = phantom
        bad = Mask3D(np.zeros((2, 2, 2), dtype=np.uint8), SP)
        with pytest.raises(GeometryError):
            prepare_coarse_set([(vol, bad)], desk_cfg())


def rescanned_windows(label, cfg, min_count=1):
    """Component windows with each slice range found by rescanning the label map."""
    lm = label_components(label, cfg.connectivity)
    out = []
    for st in component_stats(lm):
        if st.voxel_count < min_count:
            continue
        zz = np.nonzero((lm.data == st.id).any(axis=(1, 2)))[0]
        center = (int(round(st.centroid[1])), int(round(st.centroid[2])))
        out.append((center, int(zz[0]), int(zz[-1])))
    return out


class TestComponentWindows:
    def test_phantom_matches_rescan(self, phantom):
        _, gt = phantom
        cfg = desk_cfg()
        assert _component_windows(gt, cfg) == rescanned_windows(gt, cfg)
        assert len(_component_windows(gt, cfg, min_count=cfg.th_vn)) == 2

    @pytest.mark.parametrize("connectivity", [6, 26])
    def test_random_masks_match_rescan(self, rng, connectivity):
        cfg = desk_cfg(connectivity=connectivity)
        for _ in range(20):
            data = (rng.uniform(size=(6, 10, 10)) < rng.uniform(0.05, 0.4)).astype(np.uint8)
            mask = Mask3D(data, SP)
            for min_count in (1, 3):
                assert _component_windows(mask, cfg, min_count) == rescanned_windows(mask, cfg, min_count)


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
        pairs = prepare_fine_set([phantom], desk_cfg())
        assert len(pairs) == expected
        assert all(img.dims == (32, 32) for img, _ in pairs)

    def test_patch_centers_match_brute_centroid(self, phantom):
        vol, gt = phantom
        lm = label_components(gt, 26)
        cfg = desk_cfg()
        for st in component_stats(lm):
            comp = (lm.data == st.id).astype(np.uint8)
            oracle = brute_centroid(comp)
            assert st.centroid == pytest.approx(oracle)
        pairs = prepare_fine_set([phantom], cfg)
        # every label patch contains foreground near its centre for mid-kidney slices
        mids = [lab for _, lab in pairs if lab.data.sum() > 0]
        assert mids

    def test_edge_kidney_patches_zero_padded(self):
        # kidney hugging the left width edge forces boundary padding
        data = np.zeros((6, 16, 16), dtype=np.uint8)
        data[2:4, 6:10, 0:3] = 1
        gt = Mask3D(data, SP)
        vol = Volume3D(data.astype(np.float32), SP)
        cfg = desk_cfg(fine_dims=(12, 12), th_vn=1)
        pairs = prepare_fine_set([(vol, gt)], cfg)
        assert pairs
        img0 = pairs[0][0]
        assert img0.dims == (12, 12)
        assert np.all(img0.data[:, :4] == 0)  # padded region left of the volume

    def test_no_foreground_case_skipped_with_warning(self):
        vol = Volume3D(np.zeros((4, 8, 8), dtype=np.float32), SP)
        gt = Mask3D(np.zeros((4, 8, 8), dtype=np.uint8), SP)
        with pytest.warns(UserWarning, match="no foreground"):
            pairs = prepare_fine_set([(vol, gt)], desk_cfg())
        assert pairs == []


class TestPrepareAbnormalSet:
    def test_sagittal_slice_count_and_dims(self, phantom):
        pairs = prepare_abnormal_set([phantom], desk_cfg())
        assert len(pairs) == 48  # one per sagittal slice (volume width)
        assert all(img.dims == (16, 32) for img, _ in pairs)
        vol, gt = phantom
        center = tuple(int(round(x)) for x in brute_centroid(gt.data)[:2])
        for k, (img, lab) in enumerate(pairs):
            assert np.array_equal(img.data, pad_then_crop_oracle(vol.data[:, :, k], center, (16, 32)))
            assert np.array_equal(lab.data, pad_then_crop_oracle(gt.data[:, :, k], center, (16, 32)))

    def test_physical_extent_of_default_window(self):
        # the production window spans 64 x 3 mm deep and 256 x 0.7816 mm high
        cfg = PipelineConfig()
        d_mm = cfg.abnormal_dims[0] * cfg.normalized_spacing.d
        h_mm = cfg.abnormal_dims[1] * cfg.normalized_spacing.h
        assert d_mm == pytest.approx(192.0)
        assert h_mm == pytest.approx(200.09, abs=0.01)

    def test_single_kidney_case_still_yields_patches(self):
        vol, gt = generate_phantom(PhantomSpec(seed=3, **{**PHANTOM_KW, "n_kidneys": 1}))
        pairs = prepare_abnormal_set([(vol, gt)], desk_cfg())
        assert len(pairs) == 48


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


class TestModelOutputChecks:
    """Each stage checks its model's output: the slice's dims, finite values in [0, 1]."""

    @pytest.mark.parametrize("stage", ["coarse", "abnormal", "fine"])
    def test_wrong_dims_name_the_stage(self, phantom, stage):
        model = SimpleNamespace(predict=lambda s: np.zeros((s.dims[0], s.dims[1] + 1), dtype=np.float32))
        with pytest.raises(GeometryError, match=f"^{stage} model returned dims"):
            run_stage(stage, model, phantom)

    @pytest.mark.parametrize("bad", [1.5, np.nan, np.inf, -np.inf, -1e-6, 1.0 + 1e-6])
    def test_non_probabilities_rejected(self, phantom, bad):
        model = SimpleNamespace(predict=lambda s: np.where(np.eye(*s.dims, dtype=bool), bad, 0.5))  # one bad pixel
        for stage in ("coarse", "abnormal", "fine"):
            with pytest.raises(ValueError, match=f"^{stage} model returned values that are not probabilities"):
                run_stage(stage, model, phantom)


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
        assert {"coarse", "guidance", "fine"} <= set(res.timings)
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

    def test_deterministic(self, phantom):
        vol, _ = phantom
        a = run_case(vol, oracle_models(), desk_cfg())
        b = run_case(vol, oracle_models(), desk_cfg())
        assert np.array_equal(a.fine_mask.data, b.fine_mask.data)
        assert np.array_equal(a.guidance.data, b.guidance.data)
        assert a.verdict == b.verdict


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


class TestDegenerateGeometry:
    """Volumes at the edges of the cascade's geometry, on the desk config with threshold models.

    Each volume is on the normalized grid, so the resample is the identity;
    the counts and flags pin what the cascade gives."""

    @pytest.mark.parametrize(
        "data, n_kidney, verdict, fine_count, flags",
        [
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
        ],
        ids=["one-slice", "smaller-than-windows", "fills-every-face", "three-components", "voxel-empty", "voxel-full"],
    )
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


class TestSharedUNetModels:
    def test_two_threads_match_a_serial_run(self, phantom):
        spec = UNetSpec(depth=2, base_channels=4)
        models = StageModels(*(threshold_unet(spec, seed) for seed in (1, 2, 3)))
        one_kidney, _ = generate_phantom(PhantomSpec(seed=8, **{**PHANTOM_KW, "n_kidneys": 1}))
        empty = Volume3D(np.zeros(PHANTOM_KW["dims"], dtype=np.float32), SP)
        vols = [phantom[0], one_kidney, empty] * 4
        cfg = desk_cfg()
        serial = [run_case(v, models, cfg) for v in vols]
        assert [r.verdict.verdict for r in serial[:3]] == ["Normal", "Abnormal", "Abnormal"]
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(lambda v: run_case(v, models, cfg), vols))
        for a, b in zip(serial, threaded):  # flags are left out: their warning capture is not thread-safe
            assert a.verdict == b.verdict
            for name in ("coarse_mask", "guidance", "fine_mask"):
                assert np.array_equal(getattr(a, name).data, getattr(b, name).data)
