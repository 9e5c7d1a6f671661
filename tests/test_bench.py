import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c2fseg import (
    GeometryError,
    Mask3D,
    PhantomSpec,
    PipelineConfig,
    Spacing,
    StageModels,
    ThresholdModel,
    bench,
    classify,
    component_stats,
    dsc,
    evaluate_split,
    generate_phantom,
    label_components,
    summarize,
)

SP = Spacing(3.0, 0.7816, 0.7816)
PHANTOM_KW = dict(
    dims=(24, 48, 48), spacing=SP, n_kidneys=2, semi_axes_mm=((9, 12), (6, 8), (4.5, 5.5))
)


class TestGeneratePhantom:
    def test_deterministic_per_seed(self):
        a_vol, a_mask = generate_phantom(PhantomSpec(seed=4, **PHANTOM_KW))
        b_vol, b_mask = generate_phantom(PhantomSpec(seed=4, **PHANTOM_KW))
        assert np.array_equal(a_vol.data, b_vol.data)
        assert np.array_equal(a_mask.data, b_mask.data)
        c_vol, _ = generate_phantom(PhantomSpec(seed=5, **PHANTOM_KW))
        assert not np.array_equal(a_vol.data, c_vol.data)

    def test_mask_volume_within_5pct_of_analytic_ellipsoid(self):
        # degenerate ranges (lo == hi) pin the semi-axes, so (4/3) pi a b c
        # is exact; the voxel count must land within the 5% discretization band
        for seed in range(6):
            spec = PhantomSpec(
                dims=(24, 48, 48), spacing=Spacing(3, 1.5, 1.5), n_kidneys=1,
                semi_axes_mm=((12, 12), (10, 10), (8, 8)), seed=seed,
            )
            _, mask = generate_phantom(spec)
            lm = label_components(mask)
            assert lm.n_components == 1
            count = component_stats(lm)[0].voxel_count
            analytic = 4.0 / 3.0 * np.pi * (12 / 3) * (10 / 1.5) * (8 / 1.5)
            assert count == pytest.approx(analytic, rel=0.05)

    def test_two_kidney_phantom_classifies_normal(self):
        _, mask = generate_phantom(PhantomSpec(seed=2, **PHANTOM_KW))
        stats = component_stats(label_components(mask))
        assert len(stats) == 2
        verdict = classify(stats, min(s.voxel_count for s in stats))
        assert verdict.verdict == "Normal"

    def test_noiseless_intensities_exact(self):
        vol, mask = generate_phantom(PhantomSpec(seed=1, **PHANTOM_KW))
        fg = mask.data.astype(bool)
        assert np.all(vol.data[fg] == 1.0)
        assert np.all(vol.data[~fg] == 0.0)

    def test_noisy_intensities_track_mask(self):
        spec = PhantomSpec(seed=1, noise_sigma=0.05, **PHANTOM_KW)
        vol, mask = generate_phantom(spec)
        fg = mask.data.astype(bool)
        assert vol.data[fg].mean() == pytest.approx(1.0, abs=0.02)
        assert vol.data[~fg].mean() == pytest.approx(0.0, abs=0.02)

    def test_overlapping_spec_rejected(self):
        spec = PhantomSpec(
            dims=(24, 48, 48),
            spacing=SP,
            n_kidneys=2,
            semi_axes_mm=((9, 12), (6, 8), (9.5, 10.5)),
            seed=0,
        )
        with pytest.raises(ValueError, match="overlap|fit"):
            generate_phantom(spec)

    @pytest.mark.parametrize("seed, kind", [(0, "overlap"), (1, "touch"), (6, "apart")])
    def test_kidneys_that_touch_are_rejected(self, monkeypatch, seed, kind):
        # With 8 mm lateral semi-axes, seed 0 draws overlapping ellipsoids, seed
        # 1 ellipsoids that touch only at 26-neighbours and seed 6 separate ones.
        drawn = []
        ellipsoid = bench._ellipsoid_mask

        def recording(*args):
            drawn.append(ellipsoid(*args))
            return drawn[-1]

        monkeypatch.setattr(bench, "_ellipsoid_mask", recording)
        spec = PhantomSpec(**{**PHANTOM_KW, "semi_axes_mm": ((9, 12), (6, 8), (8, 8))}, seed=seed)
        if kind == "apart":
            _, mask = generate_phantom(spec)
            assert label_components(mask, 26).n_components == 2
        else:
            with pytest.raises(ValueError, match="^ellipsoids overlap or touch; shrink the semi-axis ranges"):
                generate_phantom(spec)
        k0, k1 = drawn
        near = np.zeros_like(k0)  # k0 grown by one voxel in all 26 directions
        padded = np.pad(k0, 1)
        for dz, dy, dx in itertools.product(range(3), repeat=3):
            near |= padded[dz : dz + k0.shape[0], dy : dy + k0.shape[1], dx : dx + k0.shape[2]]
        assert (k0 & k1).any() == (kind == "overlap")
        assert (near & k1).any() == (kind != "apart")

    def test_oversized_ellipsoid_rejected(self):
        spec = PhantomSpec(
            dims=(8, 20, 20), spacing=Spacing(1, 1, 1), n_kidneys=1,
            semi_axes_mm=((12, 12), (3, 3), (3, 3)), seed=0,
        )
        with pytest.raises(ValueError, match="fit"):
            generate_phantom(spec)

    @pytest.mark.parametrize("sigma", [-0.1, float("nan"), float("inf")])
    def test_noise_sigma_must_be_finite_and_non_negative(self, sigma):
        with pytest.raises(ValueError, match=f"^noise_sigma must be finite and non-negative, got {sigma}$"):
            PhantomSpec(noise_sigma=sigma, seed=0, **PHANTOM_KW)


class TestDsc:
    def mask(self, data):
        return Mask3D(np.asarray(data, dtype=np.uint8), SP)

    def test_self_overlap_is_one(self, rng):
        m = self.mask(rng.uniform(size=(4, 4, 4)) < 0.5)
        assert dsc(m, m) == 1.0

    def test_disjoint_is_zero(self):
        a = np.zeros((2, 2, 2))
        b = np.zeros((2, 2, 2))
        a[0, 0, 0] = 1
        b[1, 1, 1] = 1
        assert dsc(self.mask(a), self.mask(b)) == 0.0

    def test_hand_counted_half(self):
        a = np.zeros((1, 1, 3))
        b = np.zeros((1, 1, 3))
        a[0, 0, 0] = a[0, 0, 1] = 1
        b[0, 0, 1] = b[0, 0, 2] = 1
        assert dsc(self.mask(a), self.mask(b)) == 0.5

    def test_both_empty_is_one(self):
        z = self.mask(np.zeros((2, 2, 2)))
        assert dsc(z, z) == 1.0

    def test_geometry_mismatch_rejected(self):
        with pytest.raises(GeometryError):
            dsc(self.mask(np.zeros((2, 2, 2))), Mask3D(np.zeros((2, 2, 3), dtype=np.uint8), SP))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_symmetric_and_axis_permutation_invariant(self, seed):
        rng = np.random.default_rng(seed)
        a = (rng.uniform(size=(3, 4, 5)) < 0.5).astype(np.uint8)
        b = (rng.uniform(size=(3, 4, 5)) < 0.5).astype(np.uint8)
        s1 = dsc(Mask3D(a, Spacing(1, 1, 1)), Mask3D(b, Spacing(1, 1, 1)))
        s2 = dsc(Mask3D(b, Spacing(1, 1, 1)), Mask3D(a, Spacing(1, 1, 1)))
        assert s1 == s2
        ap = np.ascontiguousarray(a.transpose(1, 0, 2))
        bp = np.ascontiguousarray(b.transpose(1, 0, 2))
        s3 = dsc(Mask3D(ap, Spacing(1, 1, 1)), Mask3D(bp, Spacing(1, 1, 1)))
        assert s1 == pytest.approx(s3)

    def test_identical_iff_one_for_nonempty(self, rng):
        a = (rng.uniform(size=(3, 3, 3)) < 0.5).astype(np.uint8)
        a[0, 0, 0] = 1
        b = a.copy()
        b[0, 0, 0] = 0
        assert dsc(Mask3D(a, SP), Mask3D(a.copy(), SP)) == 1.0
        assert dsc(Mask3D(a, SP), Mask3D(b, SP)) < 1.0


class TestSummarize:
    def test_all_ones(self):
        s = summarize([1.0, 1.0, 1.0])
        assert s == {"mean": 1.0, "std": 0.0, "max": 1.0, "min": 1.0}

    def test_two_values_sample_std(self):
        s = summarize([0.8, 1.0])
        assert s["mean"] == pytest.approx(0.9)
        assert s["std"] == pytest.approx(0.1414, abs=1e-4)
        assert s["max"] == 1.0 and s["min"] == 0.8

    def test_single_value_std_zero(self):
        assert summarize([0.5])["std"] == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    @settings(max_examples=40, deadline=None)
    @given(scores=st.lists(st.floats(0, 1), min_size=1, max_size=20))
    def test_min_le_mean_le_max(self, scores):
        s = summarize(scores)
        assert s["min"] <= s["mean"] + 1e-12
        assert s["mean"] <= s["max"] + 1e-12


class TestEvaluateSplit:
    def oracle_models(self):
        m = ThresholdModel(0.5)
        return StageModels(coarse=m, abnormal=m, fine=m)

    def cfg(self):
        return PipelineConfig(
            normalized_spacing=SP, coarse_dims=(32, 32), fine_dims=(32, 32),
            abnormal_dims=(16, 32), th_vn=300,
        )

    def test_oracle_cases_score_perfectly(self):
        cases = [
            (f"c{i}", *generate_phantom(PhantomSpec(seed=i, **PHANTOM_KW))) for i in range(10)
        ]
        report = evaluate_split(cases, self.oracle_models(), self.cfg())
        assert report.fine_summary["mean"] == 1.0
        assert not report.failures
        assert [s.verdict for s in report.scores] == ["Normal"] * 10

    def test_rows_ordered_by_case_id(self):
        cases = [
            (cid, *generate_phantom(PhantomSpec(seed=i, **PHANTOM_KW)))
            for i, cid in enumerate(["b", "a", "c"])
        ]
        report = evaluate_split(cases, self.oracle_models(), self.cfg())
        assert [s.case_id for s in report.scores] == ["a", "b", "c"]

    def test_per_case_failure_recorded_not_fatal(self):
        vol, gt = generate_phantom(PhantomSpec(seed=0, **PHANTOM_KW))
        bad_gt = Mask3D(np.zeros((2, 2, 2), dtype=np.uint8), SP)
        cases = [("good", vol, gt), ("bad", vol, bad_gt)]
        with pytest.warns(UserWarning, match="bad"):
            report = evaluate_split(cases, self.oracle_models(), self.cfg())
        assert [s.case_id for s in report.scores] == ["good"]
        assert report.failures and report.failures[0][0] == "bad"

    def test_os_error_in_a_model_is_a_failure_row(self):
        class Unreadable:
            def predict(self, s):
                raise OSError("weights went missing")

        m = ThresholdModel(0.5)
        cases = [("c0", *generate_phantom(PhantomSpec(seed=0, **PHANTOM_KW)))]
        with pytest.warns(UserWarning, match="weights went missing"):
            report = evaluate_split(cases, StageModels(coarse=Unreadable(), abnormal=m, fine=m), self.cfg())
        assert report.failures == [("c0", "weights went missing")] and not report.scores

    def test_programming_error_propagates(self):
        class Broken:
            def predict(self, s):
                raise RuntimeError("bug in the model")

        m = ThresholdModel(0.5)
        cases = [("c0", *generate_phantom(PhantomSpec(seed=0, **PHANTOM_KW)))]
        with pytest.raises(RuntimeError, match="bug in the model"):
            evaluate_split(cases, StageModels(coarse=Broken(), abnormal=m, fine=m), self.cfg())
