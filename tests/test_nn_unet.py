import tracemalloc

import numpy as np
import pytest

from c2fseg import UNetSpec, unet_backward, unet_forward
from c2fseg.errors import GeometryError
from c2fseg.nn import layers
from c2fseg.nn.models import UNetModel
from c2fseg.nn.unet import init_weights, parameter_shapes
from c2fseg.nn.weights import ModelWeights
import oracles
from oracles import numeric_gradient, relative_error


def params64(spec, seed=0):
    return {k: v.astype(np.float64) for k, v in init_weights(spec, seed).items()}


class TestForward:
    def test_zero_weights_give_exactly_half(self, rng):
        spec = UNetSpec(depth=1, base_channels=2)
        zeros = {k: np.zeros(s, dtype=np.float32) for k, s in parameter_shapes(spec).items()}
        y, _ = unet_forward(spec, zeros, rng.standard_normal((2, 1, 8, 8)).astype(np.float32))
        assert np.all(y == 0.5)

    def test_output_shape_matches_input(self, rng):
        spec = UNetSpec(depth=1, base_channels=2)
        y, _ = unet_forward(spec, params64(spec), rng.standard_normal((1, 1, 8, 8)))
        assert y.shape == (1, 1, 8, 8)

    def test_constant_input_gives_constant_output(self, rng):
        spec = UNetSpec(depth=2, base_channels=4)
        y, _ = unet_forward(spec, params64(spec, seed=3), np.full((1, 1, 16, 16), 0.7))
        assert np.allclose(y, y[0, 0, 0, 0])

    def test_output_in_unit_interval(self, rng):
        spec = UNetSpec(depth=2, base_channels=4)
        y, _ = unet_forward(spec, params64(spec), rng.standard_normal((2, 1, 16, 16)))
        assert y.min() >= 0.0 and y.max() <= 1.0

    def test_indivisible_dims_rejected_naming_pool(self, rng):
        spec = UNetSpec(depth=2, base_channels=2)
        with pytest.raises(GeometryError, match="enc1.pool"):
            unet_forward(spec, params64(spec), rng.standard_normal((1, 1, 10, 8)))

    def test_wrong_weight_shape_names_layer(self, rng):
        spec = UNetSpec(depth=1, base_channels=2)
        p = params64(spec)
        p["mid.w"] = np.zeros((3, 3, 3, 3))
        with pytest.raises(GeometryError, match="mid"):
            unet_forward(spec, p, rng.standard_normal((1, 1, 8, 8)))

    def test_missing_parameter_rejected(self, rng):
        spec = UNetSpec(depth=1, base_channels=2)
        p = params64(spec)
        del p["head.b"]
        with pytest.raises(GeometryError, match="head"):
            unet_forward(spec, p, rng.standard_normal((1, 1, 8, 8)))

    def test_whole_weight_set_checked_before_any_layer_runs(self, rng, monkeypatch):
        spec = UNetSpec(depth=1, base_channels=2)
        p = params64(spec)
        del p["head.b"]

        def no_conv(*args, **kwargs):
            raise AssertionError("a layer ran before the weights were checked")

        monkeypatch.setattr(layers, "conv2d_forward", no_conv)
        with pytest.raises(GeometryError, match="missing parameter 'head.b' for layer 'head'"):
            unet_forward(spec, p, rng.standard_normal((1, 1, 8, 8)))


class TestModelConstruction:
    def test_missing_parameter_rejected_naming_layer(self):
        spec = UNetSpec(depth=1, base_channels=2)
        p = init_weights(spec, 0)
        del p["head.b"]
        with pytest.raises(GeometryError, match="missing parameter 'head.b' for layer 'head'"):
            UNetModel(spec, ModelWeights(p))

    @pytest.mark.parametrize("name, shape, match", [
        ("mid.w", (3, 3, 3, 3), r"layer 'mid': weight shape \(3, 3, 3, 3\) does not match spec shape \(4, 2, 3, 3\)"),
        ("enc0.b", (3,), r"layer 'enc0': bias shape \(3,\) does not match spec shape \(2,\)"),
    ], ids=["weight", "bias"])
    def test_misshapen_parameter_rejected_naming_layer(self, name, shape, match):
        spec = UNetSpec(depth=1, base_channels=2)
        p = init_weights(spec, 0)
        p[name] = np.zeros(shape, dtype=np.float32)
        with pytest.raises(GeometryError, match=match):
            UNetModel(spec, ModelWeights(p))


class TestInferenceWithoutCache:
    def test_same_bytes_as_training_forward(self, rng):
        spec = UNetSpec(depth=3, base_channels=8)
        weights = ModelWeights(init_weights(spec, seed=5))
        x = rng.standard_normal((1, 1, 64, 96)).astype(np.float32)
        y_train, cache = unet_forward(spec, weights, x)
        y_infer, no_cache = unet_forward(spec, weights, x, cache=False)
        p = UNetModel(spec, weights).predict(x[0, 0])
        assert cache is not None and no_cache is None
        assert y_infer.tobytes() == y_train.tobytes()
        assert p.tobytes() == y_train[0, 0].tobytes()

    def test_peak_memory_within_1_5x_largest_im2col(self):
        spec = UNetSpec(depth=3, base_channels=8)
        weights = init_weights(spec, seed=5)
        x = np.random.default_rng(0).standard_normal((1, 1, 128, 128)).astype(np.float32)
        largest_cols = (8 + 16) * 9 * 128 * 128 * 4  # dec0: skip + upsampled channels, 3x3 taps
        tracemalloc.start()
        try:
            unet_forward(spec, weights, x, cache=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * largest_cols, f"peak {peak / largest_cols:.2f}x the largest im2col buffer"


class TestMatchesUpcatConvNet:
    @pytest.mark.parametrize("dims", [(128, 128), (160, 160), (64, 256)], ids=["128x128", "160x160", "64x256"])
    def test_float32_probabilities_within_1e_6(self, monkeypatch, dims):
        # Unit-interval outputs; float32 keeps about 6e-8 of them, and the two
        # nets sum each decoder conv in a different order.
        spec = UNetSpec(depth=3, base_channels=8)
        weights = init_weights(spec, seed=5)
        x = np.random.default_rng(1).standard_normal((1, 1, *dims)).astype(np.float32)
        y, _ = unet_forward(spec, weights, x, cache=False)
        monkeypatch.setattr(layers, "decoder_conv_forward", oracles.decoder_conv_oracle)
        y_ref, _ = unet_forward(spec, weights, x, cache=False)
        assert y.dtype == y_ref.dtype == np.float32
        assert np.abs(y - y_ref).max() <= 1e-6


class TestParameterPlan:
    def test_depth2_shapes(self):
        shapes = parameter_shapes(UNetSpec(depth=2, base_channels=8))
        assert shapes["enc0.w"] == (8, 1, 3, 3)
        assert shapes["enc1.w"] == (16, 8, 3, 3)
        assert shapes["mid.w"] == (32, 16, 3, 3)
        assert shapes["dec1.w"] == (16, 48, 3, 3)
        assert shapes["dec0.w"] == (8, 24, 3, 3)
        assert shapes["head.w"] == (1, 8, 1, 1)

    def test_init_is_seed_deterministic(self):
        spec = UNetSpec(depth=2, base_channels=4)
        a, b = init_weights(spec, 7), init_weights(spec, 7)
        assert all(np.array_equal(a[k], b[k]) for k in a)
        c = init_weights(spec, 8)
        assert any(not np.array_equal(a[k], c[k]) for k in a)

    def test_init_scale_bounded_by_fan_in(self):
        spec = UNetSpec(depth=1, base_channels=4)
        w = init_weights(spec, 0)
        bound = np.sqrt(1.0 / (1 * 9))
        assert np.abs(w["enc0.w"]).max() <= bound
        assert np.all(w["enc0.b"] == 0)


class TestBackward:
    def test_every_parameter_matches_finite_differences(self, rng):
        spec = UNetSpec(depth=1, base_channels=2)
        params = params64(spec, seed=1)
        x = rng.standard_normal((1, 1, 8, 8))
        y, cache = unet_forward(spec, params, x)
        gy = rng.standard_normal(y.shape)
        grads = unet_backward(spec, cache, gy)
        assert set(grads) == set(params)
        for name in params:
            num = numeric_gradient(lambda: float((unet_forward(spec, params, x)[0] * gy).sum()), params[name])
            assert relative_error(grads[name], num) < 1e-5, name

    def test_zero_grad_output_gives_zero_grads(self, rng):
        spec = UNetSpec(depth=1, base_channels=2)
        params = params64(spec)
        y, cache = unet_forward(spec, params, rng.standard_normal((1, 1, 8, 8)))
        grads = unet_backward(spec, cache, np.zeros_like(y))
        assert all(np.all(g == 0) for g in grads.values())

    def test_mismatched_cache_rejected(self, rng):
        spec = UNetSpec(depth=1, base_channels=2)
        other = UNetSpec(depth=1, base_channels=4)
        params = params64(spec)
        y, cache = unet_forward(spec, params, rng.standard_normal((1, 1, 8, 8)))
        with pytest.raises(GeometryError, match="spec"):
            unet_backward(other, cache, np.zeros_like(y))

    def test_mismatched_grad_shape_rejected(self, rng):
        spec = UNetSpec(depth=1, base_channels=2)
        params = params64(spec)
        _, cache = unet_forward(spec, params, rng.standard_normal((1, 1, 8, 8)))
        with pytest.raises(GeometryError, match="grad_output"):
            unet_backward(spec, cache, np.zeros((1, 1, 4, 4)))
