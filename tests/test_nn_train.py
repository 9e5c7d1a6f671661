import threading

import numpy as np
import pytest

import c2fseg.nn.layers
import oracles
from c2fseg import (
    FitParams,
    PhantomSpec,
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
    """(N, 2, *dims) training set: up to n axial slices of a noisy phantom and their labels, resized."""
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
    ri, _ = resize_slice(imgs[picks], dims, mode="bilinear")
    rl, _ = resize_slice(labs[picks], dims, mode="nearest")
    return np.stack([ri, rl], axis=1)


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
        empty = np.zeros((0, 2, 8, 8), dtype=np.float32)
        with pytest.raises(ValueError, match="empty"):
            fit(UNetSpec(depth=1, base_channels=2), empty, FitParams(lr=0.1, epochs=1, batch=1, seed=0))

    def test_wrong_shape_rejected(self):
        data = phantom_slice_pairs(2, dims=(16, 16))
        old_pair_list = [(img, lab) for img, lab in data]
        for bad in (old_pair_list, data[:, :1], data[:, 0], np.concatenate([data, data], axis=1)):
            with pytest.raises(GeometryError, match=r"\(N, 2, H, W\)"):
                fit(UNetSpec(depth=1, base_channels=2), bad, FitParams(lr=0.1, epochs=1, batch=2, seed=0))

    def test_non_binary_label_rejected(self):
        data = phantom_slice_pairs(2, dims=(16, 16))
        data[1, 1, 3, 4] = 0.5
        with pytest.raises(ValueError, match="label slices must be binary"):
            fit(UNetSpec(depth=1, base_channels=2), data, FitParams(lr=0.1, epochs=1, batch=2, seed=0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_image_rejected(self, bad):
        data = phantom_slice_pairs(2, dims=(16, 16))
        data[0, 0, 5, 5] = bad
        with pytest.raises(ValueError, match="non-finite"):
            fit(UNetSpec(depth=1, base_channels=2), data, FitParams(lr=0.1, epochs=1, batch=2, seed=0))

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
        with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
            FitParams(seed=-1)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf")])
    def test_non_finite_lr_rejected(self, lr):
        with pytest.raises(ValueError, match="invalid hyperparameters"):
            FitParams(lr=lr)


def pool_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith("c2fseg-batch")]


def fit_bytes(data, hyper, spec=UNetSpec(depth=2, base_channels=4)) -> list[bytes]:
    weights, trace = fit(spec, data, hyper)
    return [weights[name].tobytes() for name in weights.names()] + [np.array(trace).tobytes()]


class TestFitAcrossCpus:
    """fit splits each batch into one chunk per usable CPU; weights and loss traces keep their bytes."""

    # (samples, batch): 8 in one batch (chunks of 2, 3 and 3 on 3 CPUs); 10 in batches of 8,
    # the last one partial; 5 in batches of 2, smaller than the CPU count, the last of 1.
    CASES = [(8, 8, 0.0), (10, 8, 0.5), (5, 2, 0.0)]

    @pytest.mark.parametrize("n, batch, momentum", CASES)
    def test_bytes_match_the_unsplit_layers_on_1_to_3_cpus(self, monkeypatch, cpus, n, batch, momentum):
        data = phantom_slice_pairs(n, dims=(16, 16))
        hyper = FitParams(lr=0.4, epochs=2, batch=batch, seed=7, momentum=momentum)
        layers = c2fseg.nn.layers
        with monkeypatch.context() as m:  # the whole-batch layers, enc0's input gradient computed and dropped
            m.setattr(layers, "conv2d_forward", lambda x, w, b, **_: oracles.unsplit_conv2d_forward(x, w, b))
            m.setattr(layers, "conv2d_backward", lambda cache, gy, **_: oracles.unsplit_conv2d_backward(cache, gy))
            m.setattr(layers, "decoder_conv_forward", lambda *args, **_: oracles.unsplit_decoder_conv_forward(*args))
            m.setattr(layers, "decoder_conv_backward", oracles.unsplit_decoder_conv_backward)
            m.setattr(layers, "maxpool2_backward", oracles.unsplit_maxpool2_backward)
            want = fit_bytes(data, hyper)
        chunk_threads = set()
        split = layers.split_batch

        def watched(n, body):
            def recorded(lo, hi):
                chunk_threads.add(threading.current_thread().name)
                body(lo, hi)

            split(n, recorded)

        monkeypatch.setattr(layers, "split_batch", watched)
        for n_cpus in (1, 2, 3):
            cpus(n_cpus)
            chunk_threads.clear()
            assert fit_bytes(data, hyper) == want, f"{n_cpus} CPUs"
            workers = {name for name in chunk_threads if name.startswith("c2fseg-batch")}
            assert bool(workers) == (n_cpus > 1) and len(workers) < min(n_cpus, batch)

    def test_no_pool_thread_outlives_fit(self, monkeypatch, cpus):
        data = phantom_slice_pairs(4, dims=(16, 16))
        cpus(3)
        fit(UNetSpec(depth=1, base_channels=2), data, FitParams(lr=0.1, epochs=1, batch=4, seed=0))
        assert pool_threads() == []

        alive_at_loss = []

        def diverged(probs, labels):
            alive_at_loss.append(len(pool_threads()))
            return float("nan")

        monkeypatch.setattr("c2fseg.nn.train.dice_loss", diverged)
        with pytest.raises(TrainingDivergedError):
            fit(UNetSpec(depth=1, base_channels=2), data, FitParams(lr=0.1, epochs=1, batch=4, seed=0))
        assert alive_at_loss[0] > 0  # the forward ran on the pool
        assert pool_threads() == []


class TestThresholdModel:
    def test_thresholds_at_level(self):
        s = np.array([[0.2, 0.9]], dtype=np.float32)
        assert ThresholdModel(0.5).predict(s).tolist() == [[0.0, 1.0]]

    def test_level_below_min_gives_all_ones(self):
        s = np.array([[0.2, 0.9]], dtype=np.float32)
        assert ThresholdModel(0.1).predict(s).tolist() == [[1.0, 1.0]]

    def test_boundary_inclusive(self):
        s = np.full((2, 2), 0.5, dtype=np.float32)
        assert ThresholdModel(0.5).predict(s).sum() == 4
