"""Forward/backward primitives for the segmentation net, CPU-only numpy.

Every forward returns ``(output, cache)`` and the paired backward consumes
the cache. Convolutions are stride 1 with same-size output; the padding for
3x3 kernels replicates the edge rather than zero-filling, so a spatially
constant input stays constant through the whole net. All ops run in the
dtype of their inputs, which lets tests re-run the exact code in float64.

Forwards do no work that only the backward needs: ReLU caches its output
(the gradient mask is ``y > 0``) and max-pooling its input and output (the
backward finds each window's first maximum from them). A caller that drops
the cache pays for nothing but the output. Max pooling and the decoder
conv's up half work on the four stride-2 phase views ``x[:, :, r::2, c::2]``.
"""

from __future__ import annotations

import numpy as np

from ..errors import GeometryError


def _im2col(xp: np.ndarray, kh: int, kw: int, out_h: int, out_w: int) -> np.ndarray:
    """(B, C, Hp, Wp) padded input -> (B, C*kh*kw, out_h*out_w) columns."""
    b, c, _, _ = xp.shape
    sb, sc, sh, sw = xp.strides
    patches = np.lib.stride_tricks.as_strided(
        xp,
        shape=(b, c, kh, kw, out_h, out_w),
        strides=(sb, sc, sh, sw, sh, sw),
        writeable=False,
    )
    return np.ascontiguousarray(patches).reshape(b, c * kh * kw, out_h * out_w)


def _replicate_pad(x: np.ndarray, pad: int) -> np.ndarray:
    """Edge padding of the two spatial axes: the interior, then the edge rows, then the edge columns."""
    b, c, h, w = x.shape
    xp = np.empty((b, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    xp[:, :, pad:-pad, pad:-pad] = x
    xp[:, :, :pad, pad:-pad] = x[:, :, :1]
    xp[:, :, -pad:, pad:-pad] = x[:, :, -1:]
    xp[:, :, :, :pad] = xp[:, :, :, pad : pad + 1]
    xp[:, :, :, -pad:] = xp[:, :, :, -pad - 1 : -pad]
    return xp


def _col2im(gcols: np.ndarray, x_shape, k: int, pad: int) -> np.ndarray:
    """Adjoint of ``_im2col`` and the replicate pad: (B, C*k*k, H*W) columns -> (B, C, H, W) gradient."""
    bsz, c, h, w = x_shape
    gcols = gcols.reshape(bsz, c, k, k, h, w)
    gxp = np.zeros((bsz, c, h + 2 * pad, w + 2 * pad), dtype=gcols.dtype)
    for i in range(k):
        for j in range(k):
            gxp[:, :, i : i + h, j : j + w] += gcols[:, :, i, j]
    if pad == 0:
        return gxp
    gx = gxp[:, :, 1:-1, 1:-1].copy()
    gx[:, :, 0, :] += gxp[:, :, 0, 1:-1]
    gx[:, :, -1, :] += gxp[:, :, -1, 1:-1]
    gx[:, :, :, 0] += gxp[:, :, 1:-1, 0]
    gx[:, :, :, -1] += gxp[:, :, 1:-1, -1]
    gx[:, :, 0, 0] += gxp[:, :, 0, 0]
    gx[:, :, 0, -1] += gxp[:, :, 0, -1]
    gx[:, :, -1, 0] += gxp[:, :, -1, 0]
    gx[:, :, -1, -1] += gxp[:, :, -1, -1]
    return gx


def conv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray, name: str = "conv"):
    """Same-size convolution, stride 1. Kernel must be 1x1 or 3x3."""
    if x.ndim != 4:
        raise GeometryError(f"{name}: input must be 4D (B, C, H, W), got shape {x.shape}")
    bsz, cin, h, wid = x.shape
    cout, cin_w, kh, kw = w.shape
    if cin_w != cin:
        raise GeometryError(f"{name}: weight expects {cin_w} input channels, input has {cin}")
    if (kh, kw) not in ((1, 1), (3, 3)):
        raise GeometryError(f"{name}: kernel must be 1x1 or 3x3, got {kh}x{kw}")
    if b.shape != (cout,):
        raise GeometryError(f"{name}: bias shape {b.shape} does not match {cout} output channels")
    pad = kh // 2
    xp = _replicate_pad(x, pad) if pad else x
    cols = _im2col(xp, kh, kw, h, wid)
    wmat = w.reshape(cout, -1)
    y = np.matmul(wmat, cols).reshape(bsz, cout, h, wid)
    y += b[None, :, None, None]
    cache = (cols, w, x.shape, pad, name)
    return y, cache


def conv2d_backward(cache, gy: np.ndarray):
    cols, w, x_shape, pad, name = cache
    bsz, _, h, wid = x_shape
    cout, _, kh, _ = w.shape
    if gy.shape != (bsz, cout, h, wid):
        raise GeometryError(f"{name}: grad shape {gy.shape} does not match output {(bsz, cout, h, wid)}")
    gy_mat = gy.reshape(bsz, cout, h * wid)
    gw = np.matmul(gy_mat, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
    gb = gy.sum(axis=(0, 2, 3))
    gx = _col2im(np.matmul(w.reshape(cout, -1).T, gy_mat), x_shape, kh, pad)
    return gx, gw, gb


def relu_forward(x: np.ndarray):
    y = np.maximum(x, 0)
    return y, y


def relu_backward(cache, gy: np.ndarray):
    return gy * (cache > 0)  # x > 0 exactly where max(x, 0) > 0, NaN included


def maxpool2_forward(x: np.ndarray, name: str = "pool"):
    """2x2 max pooling, stride 2; spatial dims must be even.

    The max over the four phases is folded from the last to the first:
    ``np.maximum`` returns its second argument on a tie, so a tied window
    yields its first maximum in raster order, the one the backward routes
    the gradient to. The choice shows only when -0.0 ties with +0.0.
    """
    _, _, h, w = x.shape
    if h % 2 or w % 2:
        raise GeometryError(f"{name}: spatial dims {(h, w)} must be even for 2x2 pooling")
    y = np.maximum(x[:, :, 1::2, 1::2], x[:, :, 1::2, 0::2])
    np.maximum(y, x[:, :, 0::2, 1::2], out=y)
    np.maximum(y, x[:, :, 0::2, 0::2], out=y)
    return y, (x, y)


def maxpool2_backward(cache, gy: np.ndarray):
    """Routes each output gradient to its window's first maximum in raster order; NaN counts as one."""
    x, y = cache
    gx = np.zeros(x.shape, dtype=gy.dtype)
    free = np.ones(y.shape, dtype=bool)
    for r in (0, 1):
        for c in (0, 1):
            xp = x[:, :, r::2, c::2]
            hit = free & ((xp == y) | (xp != xp))
            np.copyto(gx[:, :, r::2, c::2], gy, where=hit)
            free &= ~hit
    return gx


# Tap (i, j) of a 3x3 kernel over the nearest 2x upsample of h, at output phase (r, c),
# reads tap (_TAP[r, i], _TAP[c, j]) of the 3x3 window on the replicate-padded h itself.
_TAP = (np.arange(2)[:, None] + np.arange(3) - 1) // 2 + 1
_ONEHOT = np.eye(3, dtype=np.float32)[_TAP]  # (r, i, low-resolution tap)
_FOLD = np.einsum("rit,cju->ijrctu", _ONEHOT, _ONEHOT).reshape(9, 36)


def _fold_up(w_up: np.ndarray) -> np.ndarray:
    """(Cout, Cup, 3, 3) kernel over the upsample -> (4*Cout, Cup*9) phase kernels on the low-resolution grid."""
    cout, cup = w_up.shape[:2]
    w4 = np.matmul(w_up.reshape(cout, cup, 9), _FOLD)
    return w4.reshape(cout, cup, 4, 9).transpose(2, 0, 1, 3).reshape(4 * cout, cup * 9)


def decoder_conv_forward(skip: np.ndarray, h: np.ndarray, w: np.ndarray, b: np.ndarray, name: str = "dec"):
    """3x3 conv over ``[skip ; nearest 2x upsample of h]`` without forming the upsample.

    The skip channels go through ``conv2d_forward``. The up half is one GEMM of the four
    phase kernels with the im2col of ``h`` on its own grid; phase (r, c) adds into ``y[:, :, r::2, c::2]``.
    """
    if h.ndim != 4 or skip.shape[:1] + skip.shape[2:] != (h.shape[0], 2 * h.shape[2], 2 * h.shape[3]):
        raise GeometryError(f"{name}: cannot join skip {skip.shape} with 2x upsampled {h.shape}")
    bsz, cs = skip.shape[:2]
    _, cup, hl, wl = h.shape
    cout = w.shape[0]
    if w.shape[1:] != (cs + cup, 3, 3):
        raise GeometryError(f"{name}: weight shape {w.shape} does not fit {cs} skip + {cup} up channels, 3x3")
    y, skip_cache = conv2d_forward(skip, w[:, :cs], b, name)
    cols = _im2col(_replicate_pad(h, 1), 3, 3, hl, wl)
    w4 = _fold_up(w[:, cs:])
    z = np.matmul(w4, cols).reshape(bsz, 2, 2, cout, hl, wl)
    for r in (0, 1):
        for c in (0, 1):
            y[:, :, r::2, c::2] += z[:, r, c]
    return y, (skip_cache, cols, w4, h.shape)


def decoder_conv_backward(cache, gy: np.ndarray):
    """(skip gradient, ``h`` gradient, weight gradient, bias gradient)."""
    skip_cache, cols, w4, h_shape = cache
    g_skip, gw_skip, gb = conv2d_backward(skip_cache, gy)
    bsz, cup, hl, wl = h_shape
    cout = gy.shape[1]
    gz = np.stack([gy[:, :, r::2, c::2] for r in (0, 1) for c in (0, 1)], axis=1).reshape(bsz, 4 * cout, hl * wl)
    gw4 = np.matmul(gz, cols.transpose(0, 2, 1)).sum(axis=0)
    gw_up = np.matmul(gw4.reshape(4, cout, cup, 9).transpose(1, 2, 0, 3).reshape(cout, cup, 36), _FOLD.T)
    g_h = _col2im(np.matmul(w4.T, gz), h_shape, 3, 1)
    gw = np.concatenate([gw_skip, gw_up.reshape(cout, cup, 3, 3)], axis=1)
    return g_skip, g_h, gw, gb


def sigmoid_forward(x: np.ndarray):
    y = np.empty_like(x)
    pos = x >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    y[~pos] = ex / (1.0 + ex)
    return y, y


def sigmoid_backward(cache, gy: np.ndarray):
    y = cache
    return gy * y * (1.0 - y)
