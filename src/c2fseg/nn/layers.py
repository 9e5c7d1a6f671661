"""Forward/backward primitives for the segmentation net, CPU-only numpy.

Every forward returns ``(output, cache)`` and the paired backward consumes
the cache. Convolutions are stride 1 with same-size output; the padding for
3x3 kernels replicates the edge rather than zero-filling, so a spatially
constant input stays constant through the whole net. All ops run in the
dtype of their inputs, which lets tests re-run the exact code in float64.

Forwards do no work that only the backward needs: ReLU caches its output
(the gradient mask is ``y > 0``) and max-pooling caches its input (the
backward finds each window's argmax from it). A caller that drops the cache
pays for nothing but the output.
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


def _fold_replicate_pad(gxp: np.ndarray, pad: int) -> np.ndarray:
    """Accumulate gradients of replicated border pixels back onto their sources."""
    if pad == 0:
        return gxp
    if pad != 1:
        raise ValueError("only pad 0 or 1 supported")
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
    """Same-size convolution, stride 1. Kernel must be 1x1 or 3x3 (square, odd)."""
    if x.ndim != 4:
        raise GeometryError(f"{name}: input must be 4D (B, C, H, W), got shape {x.shape}")
    bsz, cin, h, wid = x.shape
    cout, cin_w, kh, kw = w.shape
    if cin_w != cin:
        raise GeometryError(f"{name}: weight expects {cin_w} input channels, input has {cin}")
    if kh != kw or kh % 2 == 0:
        raise ValueError(f"{name}: kernel must be square with odd size, got {kh}x{kw}")
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
    bsz, cin, h, wid = x_shape
    cout, _, kh, kw = w.shape
    if gy.shape != (bsz, cout, h, wid):
        raise GeometryError(f"{name}: grad shape {gy.shape} does not match output {(bsz, cout, h, wid)}")
    gy_mat = gy.reshape(bsz, cout, h * wid)
    gw = np.matmul(gy_mat, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
    gb = gy.sum(axis=(0, 2, 3))
    gcols = np.matmul(w.reshape(cout, -1).T, gy_mat)
    gcols = gcols.reshape(bsz, cin, kh, kw, h, wid)
    gxp = np.zeros((bsz, cin, h + 2 * pad, wid + 2 * pad), dtype=gy.dtype)
    for i in range(kh):
        for j in range(kw):
            gxp[:, :, i : i + h, j : j + wid] += gcols[:, :, i, j]
    gx = _fold_replicate_pad(gxp, pad)
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
    return y, x


def maxpool2_backward(cache, gy: np.ndarray):
    """Routes each output gradient to its window's first maximum, found from the cached input."""
    x = cache
    bsz, c, h, w = x.shape
    windows = (
        x.reshape(bsz, c, h // 2, 2, w // 2, 2)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(bsz, c, h // 2, w // 2, 4)
    )
    idx = windows.argmax(axis=-1)
    gwin = np.zeros((bsz, c, h // 2, w // 2, 4), dtype=gy.dtype)
    np.put_along_axis(gwin, idx[..., None], gy[..., None], axis=-1)
    return (
        gwin.reshape(bsz, c, h // 2, w // 2, 2, 2)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(bsz, c, h, w)
    )


def upsample2_forward(x: np.ndarray):
    """2x nearest-neighbour upsampling into one fresh buffer.

    Each input row is written to the even and odd columns of its first output
    row, which is then copied to the second: no intermediate array, and
    faster than a broadcast copy with stride-0 inner axes.
    """
    b, c, h, w = x.shape
    y = np.empty((b, c, h, 2, w, 2), dtype=x.dtype)
    y[:, :, :, 0, :, 0] = x
    y[:, :, :, 0, :, 1] = x
    y[:, :, :, 1] = y[:, :, :, 0]
    return y.reshape(b, c, 2 * h, 2 * w), x.shape


def upsample2_backward(cache, gy: np.ndarray):
    bsz, c, h, w = cache
    return gy.reshape(bsz, c, h, 2, w, 2).sum(axis=(3, 5))


def concat_forward(a: np.ndarray, b: np.ndarray, name: str = "concat"):
    """Channel concatenation; spatial dims must agree."""
    if a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
        raise GeometryError(f"{name}: cannot concat shapes {a.shape} and {b.shape}")
    return np.concatenate([a, b], axis=1), a.shape[1]


def concat_backward(cache, gy: np.ndarray):
    split = cache
    return gy[:, :split], gy[:, split:]


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
