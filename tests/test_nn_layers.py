import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from c2fseg import parallel
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


def same_bytes(got, want) -> bool:
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()

# Few distinct values (signed zeros among them), so tied windows are common.
_TIES = st.sampled_from([-0.0, 0.0, 1.0, -1.0, 2.5])


def _tie_prone(draw):
    """An array maker drawn by hypothesis: a dtype and a seed; half the values tie-prone, signed zeros among them."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ties = np.array([-0.0, 0.0, 1.0, -1.0, 2.5])

    def arr(shape):
        free = rng.uniform(-1e3, 1e3, shape)
        return np.where(rng.random(shape) < 0.5, rng.choice(ties, shape), free).astype(dtype)

    return arr


@st.composite
def _decoder_inputs(draw, max_batch=3):
    """(skip, h, w, b, gy) for the decoder conv, low-resolution H and W from 1 to 5.

    Hypothesis draws the shapes, the dtype and a seed; the values come from the
    seed, half of them tie-prone (signed zeros among them), so a failure shrinks fast.
    No value is subnormal: below the normal range a relative bound does not hold.
    """
    arr = _tie_prone(draw)
    bsz, cs, cu, cout, h, w = draw(st.tuples(*(st.integers(1, n) for n in (max_batch, 4, 4, 4, 5, 5))))
    return (arr((bsz, cs, 2 * h, 2 * w)), arr((bsz, cu, h, w)), arr((cout, cs + cu, 3, 3)), arr((cout,)),
            arr((bsz, cout, 2 * h, 2 * w)))


@st.composite
def _conv_inputs(draw):
    """(x, w, b, gy) for a 1x1 or 3x3 conv of a batch of 1 to 5, H and W from 1 to 5."""
    arr = _tie_prone(draw)
    k = draw(st.sampled_from([1, 3]))
    bsz, cin, cout, h, w = draw(st.tuples(*(st.integers(1, n) for n in (5, 4, 4, 5, 5))))
    return arr((bsz, cin, h, w)), arr((cout, cin, k, k)), arr((cout,)), arr((bsz, cout, h, w))


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


@st.composite
def _col2im_inputs(draw):
    """(columns, k, input shape) for a 1x1 or 3x3 ``_col2im``, H and W from 1 to 5.

    Half the draws are signed zeros, nine in ten of them -0.0, so that whole
    sums of taps come out -0.0.
    """
    arr = _tie_prone(draw)
    k = draw(st.sampled_from([1, 3]))
    bsz, c, h, w = draw(st.tuples(*(st.integers(1, n) for n in (3, 3, 5, 5))))
    gcols = arr((bsz, c * k * k, h * w))
    if draw(st.booleans()):
        negative = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(gcols.shape) < 0.9
        gcols = np.where(negative, -0.0, 0.0).astype(gcols.dtype)
    return gcols, k, (bsz, c, h, w)


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
        gx, gw, gb = oracles.batch_conv_grads(layers.conv2d_backward(cache, gy))
        assert relative_error(gx, numeric_gradient(loss, x)) < TOL
        assert relative_error(gw, numeric_gradient(loss, w)) < TOL
        assert relative_error(gb, numeric_gradient(loss, b)) < TOL


class TestReLU:
    def test_forward(self):
        y, _ = layers.relu_forward(np.array([-1.0, 0.0, 2.0]))
        assert y.tolist() == [0.0, 0.0, 2.0]

    def test_without_cache_writes_into_its_input(self):
        x = np.array([-1.0, -0.0, np.nan, 2.0])
        want, _ = layers.relu_forward(x.copy())
        y, cache = layers.relu_forward(x, cache=False)
        assert y is x and cache is None and same_bytes(y, want)

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

    def test_gradient(self, rng):
        x = rng.standard_normal((2, 2, 4, 6))
        out, cache = layers.maxpool2_forward(x)
        gy = rng.standard_normal(out.shape)
        loss = lambda: float((layers.maxpool2_forward(x)[0] * gy).sum())
        assert relative_error(layers.maxpool2_backward(cache, gy), numeric_gradient(loss, x)) < TOL


class TestDecoderConv:
    # Rounding tolerance relative to what the chain sums: each value is checked
    # against the same chain run on magnitudes, which is max|y| where nothing cancels.
    RTOL = {np.dtype(np.float32): 1e-5, np.dtype(np.float64): 1e-12}

    def test_up_centre_tap_repeats_h(self):
        skip = np.full((1, 1, 4, 4), 9.0)
        h = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        w = np.zeros((1, 2, 3, 3))
        w[0, 1, 1, 1] = 1.0
        y, _ = layers.decoder_conv_forward(skip, h, w, np.zeros(1))
        assert y.shape == (1, 1, 4, 4)
        assert y[0, 0, 0].tolist() == [1.0, 1.0, 2.0, 2.0]
        assert y[0, 0, 3].tolist() == [3.0, 3.0, 4.0, 4.0]

    def test_skip_centre_tap_passes_skip(self, rng):
        skip, h = rng.standard_normal((1, 2, 6, 6)), rng.standard_normal((1, 4, 3, 3))
        w = np.zeros((2, 6, 3, 3))
        w[[0, 1], [0, 1], 1, 1] = 1.0
        y, cache = layers.decoder_conv_forward(skip, h, w, np.zeros(2))
        assert np.array_equal(y, skip)
        g_skip, g_h, *_ = layers.decoder_conv_backward(cache, y)
        assert np.array_equal(g_skip, skip) and not g_h.any()

    def test_gradient(self, rng):
        for low_w in (1, 2):
            skip, h = rng.standard_normal((2, 2, 6, 2 * low_w)), rng.standard_normal((2, 3, 3, low_w))
            w, b = rng.standard_normal((3, 5, 3, 3)), rng.standard_normal(3)
            backward = lambda cache, gy: oracles.batch_decoder_grads(layers.decoder_conv_backward(cache, gy))
            fd_check_layer(layers.decoder_conv_forward, backward, (skip, h, w, b), rng)

    @settings(max_examples=200, deadline=None)
    @given(_decoder_inputs())
    def test_matches_upcat_conv_oracle(self, inputs):
        skip, h, w, b, gy = inputs
        rtol = self.RTOL[skip.dtype]
        y, cache = layers.decoder_conv_forward(skip, h, w, b)
        y_ref, ref_cache = oracles.decoder_conv_oracle(skip, h, w, b)
        mag = [np.abs(a).astype(np.float64) for a in inputs]
        y_mag, mag_cache = oracles.decoder_conv_oracle(*mag[:4])
        assert y.dtype == y_ref.dtype and y.shape == y_ref.shape
        assert np.all(np.abs(y - y_ref) <= rtol * y_mag)
        grads = oracles.batch_decoder_grads(layers.decoder_conv_backward(cache, gy))
        refs = oracles.decoder_conv_oracle_backward(ref_cache, gy)
        bounds = oracles.decoder_conv_oracle_backward(mag_cache, mag[4])
        for g, ref, bound in zip(grads, refs, bounds):
            assert g.dtype == ref.dtype and g.shape == ref.shape
            assert np.all(np.abs(g - ref) <= rtol * bound)


class TestSigmoid:
    def test_values(self):
        y, _ = layers.sigmoid_forward(np.array([0.0, 100.0, -100.0]))
        np.testing.assert_allclose(y, [0.5, 1.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("cache", [True, False], ids=["cache", "in-place"])
    def test_same_bytes_as_two_gather_oracle(self, dtype, cache):
        tiny = np.finfo(dtype).smallest_subnormal
        planted = [0.0, 1.0, 88.7, 1e30, np.inf, tiny, 1000 * tiny, np.finfo(dtype).smallest_normal / 2]
        planted = np.array(planted + [-v for v in planted], dtype=dtype)
        assert np.signbit(planted[len(planted) // 2])  # -0.0 is planted, not +0.0 twice
        noise = (np.random.default_rng(0).standard_normal(160 * 160) * 30).astype(dtype)
        x = np.concatenate([planted, noise]).reshape(1, 1, -1, 8)
        given = x.copy()
        y, y_cache = layers.sigmoid_forward(given, cache=cache)
        assert same_bytes(y, oracles.sigmoid_two_gather_oracle(x))
        if cache:
            assert y_cache is y and given.tobytes() == x.tobytes()
        else:
            assert y_cache is None and y is given

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("cache", [True, False], ids=["cache", "in-place"])
    def test_nan_comes_out_nan(self, dtype, cache):
        x = np.array([np.nan, -np.nan, 0.0, -3.0], dtype=dtype)
        y, _ = layers.sigmoid_forward(x.copy(), cache=cache)
        assert np.isnan(y[:2]).all()
        assert same_bytes(y[2:], oracles.sigmoid_two_gather_oracle(x[2:]))

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
    b, c, h, w = draw(st.tuples(st.integers(1, 5), st.integers(1, 3), st.integers(1, 4), st.integers(1, 4)))
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




class TestBatchSplitMatchesUnsplitOracles:
    """Each batched layer op keeps the bytes of the whole-batch code that ran before batches were split;
    its per-sample terms, summed over the batch, give the whole-batch gradients."""

    @settings(max_examples=150, deadline=None)
    @given(_conv_inputs())
    def test_conv2d(self, inputs):
        x, w, b, gy = inputs
        y, cache = layers.conv2d_forward(x, w, b)
        grads = layers.conv2d_backward(cache, gy)
        no_gx, gw_only, _ = layers.conv2d_backward(cache, gy, input_grad=False)
        y_ref, ref_cache = oracles.unsplit_conv2d_forward(x, w, b)
        assert same_bytes(y, y_ref) and cache[0] is x  # the conv keeps its own input
        for got, want in zip(oracles.batch_conv_grads(grads), oracles.unsplit_conv2d_backward(ref_cache, gy)):
            assert same_bytes(got, want)
        assert no_gx is None and same_bytes(gw_only, grads[1])

    @settings(max_examples=150, deadline=None)
    @given(_decoder_inputs(max_batch=5))
    def test_decoder_conv(self, inputs):
        skip, h, w, b, gy = inputs
        y, cache = layers.decoder_conv_forward(skip, h, w, b)
        grads = oracles.batch_decoder_grads(layers.decoder_conv_backward(cache, gy))
        y_ref, ref_cache = oracles.unsplit_decoder_conv_forward(skip, h, w, b)
        assert same_bytes(y, y_ref) and cache[1][0] is h  # the up half keeps h itself
        for got, want in zip(grads, oracles.unsplit_decoder_conv_backward(ref_cache, gy)):
            assert same_bytes(got, want)

    @settings(max_examples=150, deadline=None)
    @given(_col2im_inputs())
    def test_col2im_keeps_signed_zero_bytes(self, inputs):
        """A GEMM sums from +0.0 and so never returns -0.0: the columns are drawn here, signed zeros among them."""
        gcols, k, x_shape = inputs
        gx = np.empty(x_shape, dtype=gcols.dtype)
        layers._col2im(gcols, k, k // 2, gx)
        assert same_bytes(gx, oracles.unsplit_col2im(gcols, x_shape, k, k // 2))

    @settings(max_examples=100, deadline=None)
    @given(_pool_inputs())
    def test_maxpool2_backward(self, inputs):
        x, gy = inputs
        _, cache = layers.maxpool2_forward(x)
        gx = layers.maxpool2_backward(cache, gy)
        assert same_bytes(gx, oracles.unsplit_maxpool2_backward(cache, gy))


class TestBatchSums:
    """The per-sample bias terms keep the bytes of numpy's whole-batch sum, which ``unet_backward`` relies on."""

    @settings(max_examples=300, deadline=None)
    @given(_conv_inputs(), st.integers(1, 4))
    def test_bias_terms_sum_to_the_whole_batch_bytes(self, inputs, n_chunks):
        x, w, b, gy = inputs
        parts = min(n_chunks, len(x))
        bounds = [len(x) * j // parts for j in range(parts + 1)]  # as split_batch cuts
        terms = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            _, cache = layers.conv2d_forward(x[lo:hi], w, b)
            terms.append(layers.conv2d_backward(cache, gy[lo:hi])[2])
        assert same_bytes(np.concatenate(terms).sum(axis=(0, 2, 3)), gy.sum(axis=(0, 2, 3)))

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([np.float32, np.float64]), st.tuples(*(st.integers(1, n) for n in (8, 16, 70, 70))),
           st.integers(0, 2**32 - 1))
    def test_per_sample_channel_sums_fold_to_the_whole_sum(self, dtype, shape, seed):
        """With two or more channels, numpy sums each sample's plane apart and folds the samples in order.
        With one channel it sums batch and plane in one pass, so ``conv2d_backward`` keeps a one-channel
        gradient whole as its bias terms."""
        gy = np.random.default_rng(seed).standard_normal(shape).astype(dtype)
        per_sample = gy.sum(axis=(2, 3)).sum(axis=0)
        if shape[1] > 1:
            assert same_bytes(per_sample, gy.sum(axis=(0, 2, 3)))
        x = np.zeros((shape[0], 1, *shape[2:]), dtype=dtype)
        _, cache = layers.conv2d_forward(x, np.zeros((shape[1], 1, 1, 1), dtype), np.zeros(shape[1], dtype))
        gb = layers.conv2d_backward(cache, gy)[2]
        assert gb is gy if shape[1] == 1 else same_bytes(gb, gy.sum(axis=(2, 3), keepdims=True))


@st.composite
def _banded_conv_inputs(draw):
    """(x, w, b) for a 1x1 or 3x3 conv whose planes are narrow or at least 64 wide, 1 to 40 rows."""
    arr = _tie_prone(draw)
    k = draw(st.sampled_from([1, 3]))
    bsz, cin, cout, h = draw(st.tuples(st.integers(1, 2), st.integers(1, 4), st.integers(1, 4), st.integers(1, 40)))
    w = draw(st.sampled_from([5, 30, 63, 64, 72, 80, 100, 128]))
    return arr((bsz, cin, h, w)), arr((cout, cin, k, k)), arr((cout,))


@st.composite
def _banded_decoder_inputs(draw):
    """(skip, h, w, b) for the decoder conv, low-resolution planes narrow or at least 64 wide, 1 to 20 rows."""
    arr = _tie_prone(draw)
    bsz, cs, cu, cout, hl = draw(st.tuples(*(st.integers(1, n) for n in (2, 3, 3, 3, 20))))
    wl = draw(st.sampled_from([3, 32, 64, 72, 80]))
    return arr((bsz, cs, 2 * hl, 2 * wl)), arr((bsz, cu, hl, wl)), arr((cout, cs + cu, 3, 3)), arr((cout,))


class TestInferenceBands:
    """Without a cache the conv GEMMs run in row bands and keep the bytes of the whole-plane code;
    with one, the training forward keeps those bytes on the same wide planes."""

    @pytest.mark.parametrize("m, h, w, rows", [
        (8, 128, 128, 16),  # 16-row bands of 2048 pixels
        (8, 20, 72, 16),  # last band 4 x 72 = 288 pixels, a multiple of 16
        (8, 21, 72, 21),  # last band 5 x 72 = 360 pixels: one band
        (8, 48, 48, 48),  # narrower than 64: one band
        (1, 128, 128, 128),  # a one-row product: one band
        (2, 8, 64, 16),  # fewer rows than a band: one band of 8 rows
    ])
    def test_band_rule(self, m, h, w, rows):
        assert layers._band_rows(m, h, w) == rows

    @settings(max_examples=150, deadline=None)
    @given(_banded_conv_inputs())
    def test_conv2d(self, inputs):
        x, w, b = inputs
        want, _ = oracles.unsplit_conv2d_forward(x, w, b)
        y, cache = layers.conv2d_forward(x, w, b, cache=False)
        assert cache is None and same_bytes(y, want)
        y, cache = layers.conv2d_forward(x, w, b)
        assert same_bytes(y, want) and cache[0] is x

    @settings(max_examples=150, deadline=None)
    @given(_banded_decoder_inputs())
    def test_decoder_conv_with_and_without_a_folded_kernel(self, inputs):
        skip, h, w, b = inputs
        want, _ = oracles.unsplit_decoder_conv_forward(skip, h, w, b)
        y, cache = layers.decoder_conv_forward(skip, h, w, b, cache=False)
        assert cache is None and same_bytes(y, want)
        y, _ = layers.decoder_conv_forward(skip, h, w, b, cache=False, w4=layers._fold_up(w[:, skip.shape[1] :]))
        assert same_bytes(y, want)
        y, cache = layers.decoder_conv_forward(skip, h, w, b)
        assert same_bytes(y, want)
        assert cache[0][0] is skip and cache[1][0] is h


class TestSplitBatch:
    @pytest.mark.parametrize(
        "n_cpus, n, chunks",
        [(1, 8, [(0, 8)]), (2, 8, [(0, 4), (4, 8)]), (3, 8, [(0, 2), (2, 5), (5, 8)]), (3, 2, [(0, 1), (1, 2)])],
    )
    def test_one_contiguous_chunk_per_cpu(self, cpus, n_cpus, n, chunks):
        seen = []
        cpus(n_cpus)
        with parallel.batch_threads():
            parallel.split_batch(n, lambda lo, hi: seen.append((lo, hi)))
        assert sorted(seen) == chunks

    def test_results_come_back_in_sample_order(self, cpus):
        cpus(3)
        with parallel.batch_threads():
            assert parallel.split_batch(8, lambda lo, hi: (lo, hi)) == [(0, 2), (2, 5), (5, 8)]
        assert parallel.split_batch(8, lambda lo, hi: (lo, hi)) == [(0, 8)]

    def test_outside_a_block_the_batch_is_one_chunk(self, cpus):
        seen = []
        cpus(3)
        parallel.split_batch(8, lambda lo, hi: seen.append((lo, hi)))
        assert seen == [(0, 8)]

    def test_the_first_failed_chunk_raises_after_every_chunk_ended(self, cpus):
        ended = []

        def body(lo, hi):
            if lo > 0:
                time.sleep(0.05)
            ended.append(lo)
            if lo in (2, 5):
                raise ValueError(f"chunk at {lo}")

        cpus(3)
        with parallel.batch_threads(), pytest.raises(ValueError, match="chunk at 2"):
            parallel.split_batch(8, body)
        assert sorted(ended) == [0, 2, 5]
