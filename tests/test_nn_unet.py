import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import c2fseg.nn.models
from c2fseg import UNetSpec, unet_backward, unet_forward
from c2fseg.errors import GeometryError
from c2fseg.nn import layers
from c2fseg.nn.models import UNetModel
from c2fseg.nn.unet import fold_up_kernels, init_weights, parameter_shapes
from c2fseg.nn.weights import ModelWeights
import oracles
from oracles import numeric_gradient, relative_error


def params64(spec, seed=0):
    return {k: v.astype(np.float64) for k, v in init_weights(spec, seed).items()}


def fail_every_layer(monkeypatch) -> None:
    """Replace each public function of ``layers`` by one that fails the test if it is called."""

    def ran(*args, **kwargs):
        raise AssertionError("a layer ran before the shapes were checked")

    public = [a for a, fn in vars(layers).items() if getattr(fn, "__module__", "") == layers.__name__ and a[0] != "_"]
    assert {"conv2d_forward", "decoder_conv_forward", "maxpool2_forward", "conv2d_backward"} <= set(public)
    for attr in public:
        monkeypatch.setattr(layers, attr, ran)


# Each shape fault that a layer no longer checks itself, as the door meets it: depth 2, base 2,
# (parameters replaced by zeros of these shapes, input shape, the GeometryError's message).
DOOR_SPEC = UNetSpec(depth=2, base_channels=2)
DOOR_FAULTS = {
    "5x5-kernel": ({"enc0.w": (2, 1, 5, 5)}, (1, 1, 8, 8), r"layer 'enc0': weight shape \(2, 1, 5, 5\)"),
    "conv-input-channels": ({"enc1.w": (4, 3, 3, 3)}, (1, 1, 8, 8), r"layer 'enc1': weight shape \(4, 3, 3, 3\)"),
    "decoder-weight": ({"dec0.w": (2, 5, 3, 3)}, (1, 1, 8, 8), r"layer 'dec0': weight shape \(2, 5, 3, 3\)"),
    "bias": ({"mid.b": (7,)}, (1, 1, 8, 8), r"layer 'mid': bias shape \(7,\)"),
    "odd-dims": ({}, (1, 1, 8, 6), r"layer 'enc1.pool': spatial dims \(4, 3\) not divisible by 2"),
    "3d-input": ({}, (1, 8, 8), r"input must be 4D \(B, C, H, W\), got shape \(1, 8, 8\)"),
    "2-channel-input": ({}, (1, 2, 8, 8), "input has 2 channels, the net takes 1"),
}


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
        fail_every_layer(monkeypatch)
        with pytest.raises(GeometryError, match="missing parameter 'head.b' for layer 'head'"):
            unet_forward(spec, p, rng.standard_normal((1, 1, 8, 8)))

    @pytest.mark.parametrize("replaced, x_shape, match", DOOR_FAULTS.values(), ids=DOOR_FAULTS.keys())
    @pytest.mark.parametrize("cache", [True, False])
    def test_each_shape_fault_raised_before_any_layer_runs(self, monkeypatch, replaced, x_shape, match, cache):
        p = params64(DOOR_SPEC)
        p.update({name: np.zeros(shape) for name, shape in replaced.items()})
        fail_every_layer(monkeypatch)
        with pytest.raises(GeometryError, match=match):
            unet_forward(DOOR_SPEC, p, np.zeros(x_shape), cache=cache)


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

    def test_peak_memory_below_whole_plane_im2col(self):
        # Banded, the peak is about 0.66x the whole-plane columns of dec0's skip
        # conv. Whole-plane columns in either half of dec0 push it past 0.75x.
        spec = UNetSpec(depth=3, base_channels=8)
        weights = init_weights(spec, seed=5)
        x = np.random.default_rng(0).standard_normal((1, 1, 128, 128)).astype(np.float32)
        largest_cols = 8 * 9 * 128 * 128 * 4  # dec0's skip conv: 8 channels, 3x3 taps, every pixel
        tracemalloc.start()
        try:
            unet_forward(spec, weights, x, cache=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.75 * largest_cols, f"peak {peak / largest_cols:.2f}x the largest whole-plane im2col buffer"


# The plane shapes the perfbench workloads predict on: CT coarse, fine and
# abnormal planes, then the desk-sized coarse, fine and abnormal planes.
WORKLOAD_PLANES = [(128, 128), (160, 160), (64, 256), (64, 64), (48, 48), (32, 64)]


@st.composite
def _net_inputs(draw):
    """(spec, float weights, one input plane): depth 1-3, base 4-16, float32 or float64.

    Planes are the workload shapes, or drawn ones up to 80 x 136, so that some
    layers band and some run as one.
    """
    spec = UNetSpec(draw(st.integers(1, 3)), draw(st.integers(4, 16)))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    unit = 2**spec.depth
    drawn = st.tuples(*(st.integers(1, n // unit).map(lambda k: k * unit) for n in (80, 136)))
    dims = draw(st.one_of(st.sampled_from(WORKLOAD_PLANES), drawn))
    seed = draw(st.integers(0, 2**32 - 1))
    weights = {k: v.astype(dtype) for k, v in init_weights(spec, seed % 1000).items()}
    for k in weights:
        if k.endswith(".b"):  # non-zero biases, so a bias added twice or not at all shows
            weights[k] = np.random.default_rng(seed).uniform(-0.1, 0.1, weights[k].shape).astype(dtype)
    x = (np.random.default_rng(seed).standard_normal((1, 1, *dims)) * 3).astype(dtype)
    return spec, weights, x


class TestInferenceForwardBytes:
    """``unet_forward(cache=False)`` has the bytes of the training forward, which runs every conv unbanded."""

    @settings(max_examples=40, deadline=None)
    @given(_net_inputs())
    def test_matches_training_forward(self, inputs):
        spec, weights, x = inputs
        want, _ = unet_forward(spec, weights, x)
        got, no_cache = unet_forward(spec, weights, x, cache=False)
        folded, _ = unet_forward(spec, weights, x, cache=False, folded=fold_up_kernels(spec, weights))
        assert no_cache is None
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert folded.tobytes() == want.tobytes()

    # The workload net, and a 12-channel head: banded, its one-row float32 GEMM
    # loses the whole product's bytes on planes from 128x136 up.
    @pytest.mark.parametrize("spec", [UNetSpec(3, 8), UNetSpec(1, 12)], ids=["3x8", "1x12"])
    @pytest.mark.parametrize("dims", WORKLOAD_PLANES, ids=[f"{h}x{w}" for h, w in WORKLOAD_PLANES])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_workload_planes(self, spec, dims, dtype):
        weights = {k: v.astype(dtype) for k, v in init_weights(spec, seed=5).items()}
        x = np.random.default_rng(2).standard_normal((1, 1, *dims)).astype(dtype)
        want, _ = unet_forward(spec, weights, x)
        got, _ = unet_forward(spec, weights, x, cache=False, folded=fold_up_kernels(spec, weights))
        assert got.tobytes() == want.tobytes()
        if dtype == np.float32:
            p = UNetModel(spec, ModelWeights(init_weights(spec, seed=5))).predict(x[0, 0])
            assert p.tobytes() == want[0, 0].tobytes()


class TestModelSharedAcrossThreads:
    def test_concurrent_predicts_match_serial_and_change_nothing(self):
        spec = UNetSpec(depth=3, base_channels=8)
        model = UNetModel(spec, ModelWeights(init_weights(spec, seed=5)))
        weights_before = {k: v.tobytes() for k, v in model.weights.items()}
        folded_before = [w4.tobytes() for w4 in model._folded]
        rng = np.random.default_rng(3)
        planes = [rng.standard_normal((128, 128)).astype(np.float32) for _ in range(2)]
        planes_before = [p.tobytes() for p in planes]
        serial = [model.predict(p).tobytes() for p in planes]
        rounds = 20
        got: list[list[bytes]] = [[], []]
        barrier = threading.Barrier(2)

        def run(i):
            barrier.wait(timeout=30)
            for _ in range(rounds):
                got[i].append(model.predict(planes[i]).tobytes())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [[serial[0]] * rounds, [serial[1]] * rounds]
        assert [p.tobytes() for p in planes] == planes_before
        assert {k: v.tobytes() for k, v in model.weights.items()} == weights_before
        assert [w4.tobytes() for w4 in model._folded] == folded_before


class TestPredictReachesTracedNames:
    """perfbench times ``nn.models.*`` and ``nn.layers.*`` by wrapping these module attributes;
    a predict that bypassed them would make those metrics read zero."""

    def test_predict_calls_each_public_forward_through_its_module(self, monkeypatch):
        spec = UNetSpec(depth=3, base_channels=4)
        model = UNetModel(spec, ModelWeights(init_weights(spec, seed=1)))
        calls: dict[str, int] = {}

        def count(module, attr):
            orig = getattr(module, attr)

            def counted(*args, **kwargs):
                calls[attr] = calls.get(attr, 0) + 1
                return orig(*args, **kwargs)

            monkeypatch.setattr(module, attr, counted)

        count(c2fseg.nn.models, "unet_forward")
        for attr in ("conv2d_forward", "decoder_conv_forward", "relu_forward", "maxpool2_forward", "sigmoid_forward"):
            count(layers, attr)
        model.predict(np.zeros((16, 16), dtype=np.float32))
        assert calls == {
            "unet_forward": 1,
            "conv2d_forward": 3 * spec.depth + 2,  # encoder, mid, head and each decoder level's two halves
            "decoder_conv_forward": spec.depth,
            "relu_forward": 2 * spec.depth + 1,
            "maxpool2_forward": spec.depth,
            "sigmoid_forward": 1,
        }


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

    def test_mismatched_cache_rejected(self, rng, monkeypatch):
        spec = UNetSpec(depth=1, base_channels=2)
        other = UNetSpec(depth=1, base_channels=4)
        params = params64(spec)
        y, cache = unet_forward(spec, params, rng.standard_normal((1, 1, 8, 8)))
        fail_every_layer(monkeypatch)
        with pytest.raises(GeometryError, match="spec"):
            unet_backward(other, cache, np.zeros_like(y))

    def test_mismatched_grad_shape_rejected(self, rng, monkeypatch):
        spec = UNetSpec(depth=1, base_channels=2)
        params = params64(spec)
        _, cache = unet_forward(spec, params, rng.standard_normal((1, 1, 8, 8)))
        fail_every_layer(monkeypatch)
        with pytest.raises(GeometryError, match="grad_output"):
            unet_backward(spec, cache, np.zeros((1, 1, 4, 4)))
