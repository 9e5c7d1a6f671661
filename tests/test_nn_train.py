import numpy as np
import pytest

from c2fseg import (
    FitParams,
    PhantomSpec,
    Slice2D,
    Spacing,
    ThresholdModel,
    UNetSpec,
    fit,
    generate_phantom,
)
from c2fseg.errors import GeometryError, TrainingDivergedError
from c2fseg.geometry import resize_slice
from c2fseg.volume import extract_slices


def phantom_slice_pairs(n=10, dims=(32, 32), seed=5):
    """n axial slice pairs from a noisy phantom, resized to a small square."""
    vol, mask = generate_phantom(
        PhantomSpec(
            dims=(12, 48, 48),
            spacing=Spacing(3, 1.5, 1.5),
            n_kidneys=2,
            semi_axes_mm=((9, 12), (10, 14), (7, 9)),
            noise_sigma=0.08,
            seed=seed,
        )
    )
    picks = sorted(set(int(round(k)) for k in np.linspace(0, 11, n)))
    imgs, labs = extract_slices(vol, "axial"), extract_slices(mask, "axial")
    pairs = []
    for k in picks:
        ri, _ = resize_slice(imgs[k], dims, mode="bilinear")
        rl, _ = resize_slice(labs[k], dims, mode="nearest")
        pairs.append((ri, rl))
    return pairs


class TestFit:
    def test_zero_lr_leaves_init_unchanged(self):
        pairs = phantom_slice_pairs(4)
        spec = UNetSpec(depth=2, base_channels=4)
        w0, trace0 = fit(spec, pairs, FitParams(lr=0.0, epochs=3, batch=4, seed=9))
        w1, trace1 = fit(spec, pairs, FitParams(lr=0.0, epochs=1, batch=4, seed=9))
        assert w0 == w1
        assert trace0 == pytest.approx([trace0[0]] * 3)
        assert trace0[0] == pytest.approx(trace1[0])

    def test_same_seed_bit_identical(self):
        pairs = phantom_slice_pairs(6)
        spec = UNetSpec(depth=2, base_channels=4)
        hyper = FitParams(lr=0.4, epochs=2, batch=4, seed=123)
        w0, t0 = fit(spec, pairs, hyper)
        w1, t1 = fit(spec, pairs, hyper)
        assert w0 == w1
        assert t0 == t1

    def test_learns_phantom_slices(self):
        # Bound fixed by the pre-build pilot: lr 1.0 reaches ~0.06 mean Dice
        # loss on 10 slices within 30 epochs, comfortably under 0.2.
        pairs = phantom_slice_pairs(10)
        spec = UNetSpec(depth=2, base_channels=8)
        _, trace = fit(spec, pairs, FitParams(lr=1.0, epochs=30, batch=5, seed=2))
        assert trace[-1] < 0.2

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fit(UNetSpec(depth=1, base_channels=2), [], FitParams(lr=0.1, epochs=1, batch=1, seed=0))

    def test_mixed_geometry_rejected(self):
        pairs = phantom_slice_pairs(2, dims=(16, 16)) + phantom_slice_pairs(2, dims=(32, 32))
        with pytest.raises(GeometryError, match="uniform"):
            fit(UNetSpec(depth=1, base_channels=2), pairs, FitParams(lr=0.1, epochs=1, batch=2, seed=0))

    def test_divergence_aborts_with_epoch(self, monkeypatch):
        pairs = phantom_slice_pairs(2)
        monkeypatch.setattr("c2fseg.nn.train.dice_loss", lambda p, y: float("nan"))
        with pytest.raises(TrainingDivergedError) as err:
            fit(UNetSpec(depth=1, base_channels=2), pairs, FitParams(lr=0.1, epochs=4, batch=2, seed=0))
        assert err.value.epoch == 0

    def test_momentum_runs_and_differs(self):
        pairs = phantom_slice_pairs(4)
        spec = UNetSpec(depth=1, base_channels=2)
        w_plain, _ = fit(spec, pairs, FitParams(lr=0.2, epochs=2, batch=4, seed=3))
        w_mom, _ = fit(spec, pairs, FitParams(lr=0.2, epochs=2, batch=4, seed=3, momentum=0.5))
        assert w_plain != w_mom

    def test_hyper_validation(self):
        with pytest.raises(ValueError):
            FitParams(lr=-0.1, epochs=1, batch=1, seed=0)
        with pytest.raises(ValueError):
            FitParams(lr=0.1, epochs=1, batch=0, seed=0)
        with pytest.raises(ValueError):
            FitParams(lr=0.1, epochs=1, batch=1, seed=0, momentum=1.0)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf")])
    def test_non_finite_lr_rejected(self, lr):
        with pytest.raises(ValueError, match="invalid hyperparameters"):
            FitParams(lr=lr)


class TestThresholdModel:
    def test_thresholds_at_level(self):
        s = Slice2D(np.array([[0.2, 0.9]], dtype=np.float32), (1, 1))
        assert ThresholdModel(0.5).predict(s).tolist() == [[0.0, 1.0]]

    def test_level_below_min_gives_all_ones(self):
        s = Slice2D(np.array([[0.2, 0.9]], dtype=np.float32), (1, 1))
        assert ThresholdModel(0.1).predict(s).tolist() == [[1.0, 1.0]]

    def test_boundary_inclusive(self):
        s = Slice2D(np.full((2, 2), 0.5, dtype=np.float32), (1, 1))
        assert ThresholdModel(0.5).predict(s).sum() == 4
