import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from c2fseg.errors import GeometryError
from c2fseg.nn import layers
import oracles
from oracles import (
    conv3x3_replicate_oracle,
    maxpool2_argmax_oracle,
    numeric_gradient,
    relative_error,
    relu_mask_oracle,
)

TOL = 1e-5

# Few distinct values (signed zeros among them), so tied windows are common.
_TIES = st.sampled_from([-0.0, 0.0, 1.0, -1.0, 2.5])


@st.composite
def _upcat_inputs(draw):
    """(skip, h, gy) for the decoder input; gy is free or constant on each 2x2 window,
    so windows of four -0.0 are common."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    bits = 32 if dtype == np.float32 else 64
    cells = st.one_of(_TIES, st.floats(-1e6, 1e6, width=bits))
    b, cs, cu, h, w = draw(st.tuples(*(st.integers(1, n) for n in (2, 3, 3, 4, 4))))
    skip = draw(hnp.arrays(dtype, (b, cs, 2 * h, 2 * w), elements=cells, fill=st.nothing()))
    low = draw(hnp.arrays(dtype, (b, cu, h, w), elements=cells, fill=st.nothing()))
    if draw(st.booleans()):
        gy = draw(hnp.arrays(dtype, (b, cs + cu, 2 * h, 2 * w), elements=cells, fill=st.nothing()))
    else:
        gy = draw(hnp.arrays(dtype, (b, cs + cu, h, w), elements=cells, fill=st.nothing()))
        gy = gy.repeat(2, axis=2).repeat(2, axis=3)
    return skip, low, gy


def fd_check_layer(forward, backward, arrays, rng, extra_grad_arrays=()):
    """Compare analytic input/parameter grads of a layer against central differences."""
    out, cache = forward(*arrays)
    gy = rng.standard_normal(out.shape)
    loss = lambda: float((forward(*arrays)[0] * gy).sum())
    analytic = backward(cache, gy)
    if not isinstance(analytic, tuple):
        analytic = (analytic,)
    for arr, ana in zip(arrays + tuple(extra_grad_arrays), analytic):
        num = numeric_gradient(loss, arr)
        assert relative_error(ana, num) < TOL


class TestConv2d:
    def test_hand_checked_against_direct_summation(self, rng):
        x = rng.standard_normal((1, 1, 4, 4))
        w = rng.standard_normal((2, 1, 3, 3))
        b = rng.standard_normal(2)
        y, _ = layers.conv2d_forward(x, w, b)
        np.testing.assert_allclose(y, conv3x3_replicate_oracle(x, w, b), rtol=1e-10)

    def test_multichannel_against_oracle(self, rng):
        x = rng.standard_normal((2, 3, 5, 6))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        y, _ = layers.conv2d_forward(x, w, b)
        np.testing.assert_allclose(y, conv3x3_replicate_oracle(x, w, b), rtol=1e-9)

    def test_1x1_is_channel_mix(self, rng):
        x = rng.standard_normal((2, 3, 4, 4))
        w = rng.standard_normal((2, 3, 1, 1))
        b = rng.standard_normal(2)
        y, _ = layers.conv2d_forward(x, w, b)
        expected = np.einsum("oi,bihw->bohw", w[:, :, 0, 0], x) + b[None, :, None, None]
        np.testing.assert_allclose(y, expected, rtol=1e-10)

    def test_constant_input_gives_constant_output(self, rng):
        x = np.full((1, 2, 6, 6), 1.7)
        w = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal(3)
        y, _ = layers.conv2d_forward(x, w, b)
        for co in range(3):
            assert np.allclose(y[0, co], y[0, co, 0, 0])

    @pytest.mark.parametrize("kernel", [1, 3])
    def test_gradients_match_finite_differences(self, rng, kernel):
        x = rng.standard_normal((2, 2, 4, 5))
        w = rng.standard_normal((3, 2, kernel, kernel))
        b = rng.standard_normal(3)
        out, cache = layers.conv2d_forward(x, w, b)
        gy = rng.standard_normal(out.shape)
        loss = lambda: float((layers.conv2d_forward(x, w, b)[0] * gy).sum())
        gx, gw, gb = layers.conv2d_backward(cache, gy)
        assert relative_error(gx, numeric_gradient(loss, x)) < TOL
        assert relative_error(gw, numeric_gradient(loss, w)) < TOL
        assert relative_error(gb, numeric_gradient(loss, b)) < TOL

    def test_channel_mismatch_named(self, rng):
        x = rng.standard_normal((1, 2, 4, 4))
        w = rng.standard_normal((3, 5, 3, 3))
        with pytest.raises(GeometryError, match="enc0"):
            layers.conv2d_forward(x, w, np.zeros(3), name="enc0")


class TestReLU:
    def test_forward(self):
        y, _ = layers.relu_forward(np.array([-1.0, 0.0, 2.0]))
        assert y.tolist() == [0.0, 0.0, 2.0]

    def test_gradient(self, rng):
        x = rng.standard_normal((2, 3, 4, 4))
        x += 0.2 * np.sign(x)  # keep away from the kink
        out, cache = layers.relu_forward(x)
        gy = rng.standard_normal(out.shape)
        loss = lambda: float((layers.relu_forward(x)[0] * gy).sum())
        assert relative_error(layers.relu_backward(cache, gy), numeric_gradient(loss, x)) < TOL


class TestMaxPool:
    def test_forward_picks_max(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        y, _ = layers.maxpool2_forward(x)
        assert y[0, 0].tolist() == [[5.0, 7.0], [13.0, 15.0]]

    def test_odd_dims_rejected_with_name(self):
        with pytest.raises(GeometryError, match="enc1.pool"):
            layers.maxpool2_forward(np.zeros((1, 1, 3, 4)), name="enc1.pool")

    def test_gradient(self, rng):
        x = rng.standard_normal((2, 2, 4, 6))
        out, cache = layers.maxpool2_forward(x)
        gy = rng.standard_normal(out.shape)
        loss = lambda: float((layers.maxpool2_forward(x)[0] * gy).sum())
        assert relative_error(layers.maxpool2_backward(cache, gy), numeric_gradient(loss, x)) < TOL


class TestUpcat:
    def test_forward_repeats(self):
        skip = np.full((1, 1, 4, 4), 9.0)
        h = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        y, cs = layers.upcat_forward(skip, h)
        assert cs == 1 and y.shape == (1, 2, 4, 4)
        assert (y[0, 0] == 9.0).all()
        assert y[0, 1, 0].tolist() == [1.0, 1.0, 2.0, 2.0]
        assert y[0, 1, 3].tolist() == [3.0, 3.0, 4.0, 4.0]

    def test_skip_roundtrip(self, rng):
        skip, h = rng.standard_normal((1, 2, 6, 6)), rng.standard_normal((1, 4, 3, 3))
        y, cs = layers.upcat_forward(skip, h)
        assert y.shape == (1, 6, 6, 6)
        g_skip, g_h = layers.upcat_backward(cs, y)
        assert np.array_equal(g_skip, skip) and np.array_equal(g_h, 4 * h)

    def test_mismatch_rejected_with_name(self):
        skip = np.zeros((1, 2, 6, 6))
        for h_shape in [(2, 3, 3, 3), (1, 3, 3, 4), (1, 3, 2, 3), (1, 3, 6, 6)]:
            with pytest.raises(GeometryError, match="dec1.cat"):
                layers.upcat_forward(skip, np.zeros(h_shape), name="dec1.cat")

    def test_gradient(self, rng):
        skip, h = rng.standard_normal((2, 2, 6, 4)), rng.standard_normal((2, 3, 3, 2))
        fd_check_layer(layers.upcat_forward, layers.upcat_backward, (skip, h), rng)

    @settings(max_examples=200, deadline=None)
    @given(_upcat_inputs())
    def test_bytes_match_upsample_concat_chain(self, inputs):
        skip, h, gy = inputs
        y, cs = layers.upcat_forward(skip, h)
        up, up_cache = oracles.upsample2_forward(h)
        y_ref, cat_cache = oracles.concat_forward(skip, up)
        assert y.dtype == y_ref.dtype and y.shape == y_ref.shape and y.flags.c_contiguous
        assert y.tobytes() == y_ref.tobytes()
        assert y.tobytes() == np.concatenate([skip, h.repeat(2, axis=2).repeat(2, axis=3)], axis=1).tobytes()
        g_skip, g_h = layers.upcat_backward(cs, gy)
        g_skip_ref, g_up = oracles.concat_backward(cat_cache, gy)
        g_h_ref = oracles.upsample2_backward(up_cache, g_up)
        for g, ref in ((g_skip, g_skip_ref), (g_h, g_h_ref)):
            assert g.dtype == ref.dtype and g.shape == ref.shape and g.tobytes() == ref.tobytes()


class TestSigmoid:
    def test_values(self):
        y, _ = layers.sigmoid_forward(np.array([0.0, 100.0, -100.0]))
        np.testing.assert_allclose(y, [0.5, 1.0, 0.0], atol=1e-12)

    def test_gradient(self, rng):
        x = rng.standard_normal((2, 1, 3, 3))
        out, cache = layers.sigmoid_forward(x)
        gy = rng.standard_normal(out.shape)
        loss = lambda: float((layers.sigmoid_forward(x)[0] * gy).sum())
        assert relative_error(layers.sigmoid_backward(cache, gy), numeric_gradient(loss, x)) < TOL


@st.composite
def _pool_inputs(draw):
    """(x, gy) for 2x2 pooling; x is free, window-constant (all-equal windows) or constant,
    and may hold NaN and +-inf."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    bits = 32 if dtype == np.float32 else 64
    cells = st.one_of(_TIES, st.sampled_from([np.nan, np.inf, -np.inf]), st.floats(-1e3, 1e3, width=bits))
    b, c, h, w = draw(st.tuples(st.integers(1, 2), st.integers(1, 3), st.integers(1, 4), st.integers(1, 4)))
    layout = draw(st.sampled_from(["free", "windows", "constant"]))
    if layout == "free":
        x = draw(hnp.arrays(dtype, (b, c, 2 * h, 2 * w), elements=cells, fill=st.nothing()))
    elif layout == "windows":
        x = draw(hnp.arrays(dtype, (b, c, h, w), elements=cells, fill=st.nothing())).repeat(2, axis=2).repeat(2, axis=3)
    else:
        x = np.full((b, c, 2 * h, 2 * w), draw(cells), dtype=dtype)
    gy = draw(hnp.arrays(dtype, (b, c, h, w), elements=st.floats(-10, 10, width=bits), fill=st.nothing()))
    return x, gy


class TestMatchesArgmaxAndMaskOracles:
    """Max-pool and ReLU keep their old outputs and gradients byte for byte."""

    @settings(max_examples=150, deadline=None)
    @given(_pool_inputs())
    def test_maxpool(self, inputs):
        x, gy = inputs
        y, cache = layers.maxpool2_forward(x)
        gx = layers.maxpool2_backward(cache, gy)
        y_ref, gx_ref = maxpool2_argmax_oracle(x, gy)
        assert y.dtype == y_ref.dtype and y.tobytes() == np.ascontiguousarray(y_ref).tobytes()
        assert gx.dtype == gx_ref.dtype and gx.tobytes() == gx_ref.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(_pool_inputs())
    @pytest.mark.filterwarnings("ignore:invalid value encountered in multiply:RuntimeWarning")  # inf * False
    def test_relu(self, inputs):
        x, _ = inputs
        gy = x[::-1].copy()  # any same-shape gradient; signed zeros included
        y, cache = layers.relu_forward(x)
        gx = layers.relu_backward(cache, gy)
        y_ref, gx_ref = relu_mask_oracle(x, gy)
        assert y.dtype == y_ref.dtype and y.tobytes() == y_ref.tobytes()
        assert gx.dtype == gx_ref.dtype and gx.tobytes() == gx_ref.tobytes()

    def test_maxpool_signed_zero_tie_takes_first(self):
        x = np.array([[-0.0, 0.0], [0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]], dtype=np.float32)
        x = x.reshape(1, 1, 4, 2)
        y, _ = layers.maxpool2_forward(x)
        assert np.signbit(y).ravel().tolist() == [True, False]

    @settings(max_examples=50, deadline=None)
    @given(x=hnp.arrays(np.float32, st.tuples(st.integers(1, 2), st.integers(1, 3), st.integers(1, 6), st.integers(1, 6))), pad=st.integers(1, 2))
    def test_replicate_pad_matches_edge_pad(self, x, pad):
        expected = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="edge")
        assert layers._replicate_pad(x, pad).tobytes() == expected.tobytes()
