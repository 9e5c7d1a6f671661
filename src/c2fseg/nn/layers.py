"""Forward/backward primitives for the segmentation net, CPU-only numpy.

Every forward returns ``(output, cache)`` and the paired backward consumes
the cache. Convolutions are stride 1 with same-size output; the padding for
3x3 kernels replicates the edge rather than zero-filling, so a spatially
constant input stays constant through the whole net. All ops run in the
dtype of their inputs, which lets tests re-run the exact code in float64.

Forwards do no work that only the backward needs: a conv caches its input
and kernel, ReLU its output (the gradient mask is ``y > 0``) and max-pooling
its input and output (the backward finds each window's first maximum from
them). Max pooling and the decoder conv's up half work on the four stride-2
phase views ``x[:, :, r::2, c::2]``.

Every conv GEMM runs in ``conv2d_forward``/``conv2d_backward``; the decoder
conv's up half is a ``conv2d_forward`` over ``h`` with 4*Cout phase kernels
and no bias. A forward GEMM runs in bands of output rows through one reused
band-sized column buffer, so the columns stay in cache; ``_band_rows`` bands
only shapes whose banded products keep the bytes of the whole one, and
other planes run as one band. A conv's input is the batch or a ReLU or pool
output, which the net keeps anyway, so a training pass holds no columns:
each conv backward rebuilds its own, one whole-plane buffer at a time. Each
forward takes a ``cache`` flag; with ``cache=False`` (inference) it returns
None for the cache, and ReLU and sigmoid write into the array they are
given, which must be a fresh layer output that nothing else reads.

Every op runs on the samples it is given, and a backward sums nothing over
the batch: ``conv2d_backward`` and ``decoder_conv_backward`` return
weight-gradient and bias-gradient terms per sample. ``unet_forward`` and
``unet_backward`` run each contiguous chunk of a batch through every layer
and make the batch sums once, over the terms of all chunks in sample order,
so every result has the bytes of a whole-batch run.

No layer checks shapes: ``unet_forward`` and ``unet_backward`` check them
once per call, before any layer runs. They guarantee a conv a 4-D input with
the weight's input channels, a 1x1 or 3x3 kernel and one bias per output
channel; a pool even spatial dims; a decoder a skip at twice the spatial
dims of ``h`` and a weight over both; a backward its output's shape.
"""

from __future__ import annotations

import numpy as np

# Output rows per band of a forward GEMM (see ``_band_rows``).
_BAND_ROWS = 16


def _taps(xp: np.ndarray, k: int) -> np.ndarray:
    """Read-only (..., C, k, k, out_h, out_w) view of the kernel taps over a padded (..., C, Hp, Wp) input."""
    *lead, c, hp, wp = xp.shape
    *lead_strides, sc, sh, sw = xp.strides
    shape = (*lead, c, k, k, hp - k + 1, wp - k + 1)
    return np.lib.stride_tricks.as_strided(xp, shape, (*lead_strides, sc, sh, sw, sh, sw), writeable=False)


def _band_rows(m: int, h: int, w: int) -> int:
    """Output rows per band for an (m, K) x (K, h*w) GEMM over an h x w plane.

    Bands are used where the plane is at least 64 wide, every band's pixel
    count (the last band's too) is a multiple of 16 and m > 1. There, 16-row
    bands had the whole product's bytes with this numpy's OpenBLAS on every
    U-Net conv shape tried, float32 and float64, with 1 and 2 BLAS threads.
    One-row products (the head conv) differed by about 1e-7 in float32 on
    planes from 128x136 up, and so did bands of 1-7 rows on planes 20-40
    wide. Every other plane runs as one band.
    """
    last = h % _BAND_ROWS or _BAND_ROWS
    return _BAND_ROWS if m > 1 and w >= 64 and last * w % 16 == 0 else h


def _columns(x: np.ndarray, k: int, rows: int):
    """Yield ``(r0, r1, cols)``, ``rows`` output rows at a time: the (B, C*k*k, (r1-r0)*W) columns of a k x k
    kernel over the replicate-padded (B, C, H, W) ``x``, copied from the tap view into one buffer every band reuses.
    """
    taps = _taps(_replicate_pad(x, k // 2) if k > 1 else x, k)
    bsz, c, _, _, h, w = taps.shape
    buf = np.empty((bsz, c * k * k, min(rows, h) * w), dtype=x.dtype)
    for r0 in range(0, h, rows):
        r1 = min(r0 + rows, h)
        cols = buf[:, :, : (r1 - r0) * w]
        np.copyto(cols.reshape(bsz, c, k, k, r1 - r0, w), taps[..., r0:r1, :])
        yield r0, r1, cols


def _banded_gemm(wmat: np.ndarray, x: np.ndarray, k: int, out: np.ndarray) -> None:
    """``out`` (B, M, H*W) = ``wmat`` times the ``_columns`` of ``x``, one BLAS product per sample and band."""
    h, w = x.shape[2:]
    for r0, r1, cols in _columns(x, k, _band_rows(len(wmat), h, w)):
        np.matmul(wmat, cols, out=out[:, :, r0 * w : r1 * w])


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


def _col2im(gcols: np.ndarray, k: int, pad: int, out: np.ndarray) -> None:
    """Adjoint of the tap columns and the replicate pad: (B, C*k*k, H*W) columns -> the (B, C, H, W) gradient ``out``.

    ``pad`` is 0 (1x1) or 1 (3x3). Each padded cell sums its taps in raster
    order from 0, so the first tap is ``0 + tap``: -0.0 becomes 0.0, as in a
    zero-filled buffer. Only the strips that tap leaves uncovered are
    zero-filled. Each pad cell then adds into the edge cell it replicated:
    rows, then columns, then corners.
    """
    bsz, c, h, w = out.shape
    taps = gcols.reshape(bsz, c, k, k, h, w)
    if pad == 0:
        np.add(0, taps[:, :, 0, 0], out=out)
        return
    gxp = np.empty((bsz, c, h + 2, w + 2), dtype=out.dtype)
    np.add(0, taps[:, :, 0, 0], out=gxp[:, :, :h, :w])
    gxp[:, :, h:] = 0
    gxp[:, :, :h, w:] = 0
    for i in range(k):
        for j in range(k):
            if i or j:
                gxp[:, :, i : i + h, j : j + w] += taps[:, :, i, j]
    gxp[:, :, 1, 1:-1] += gxp[:, :, 0, 1:-1]
    gxp[:, :, -2, 1:-1] += gxp[:, :, -1, 1:-1]
    gxp[:, :, 1:-1, 1] += gxp[:, :, 1:-1, 0]
    gxp[:, :, 1:-1, -2] += gxp[:, :, 1:-1, -1]
    gxp[:, :, 1, 1] += gxp[:, :, 0, 0]
    gxp[:, :, 1, -2] += gxp[:, :, 0, -1]
    gxp[:, :, -2, 1] += gxp[:, :, -1, 0]
    gxp[:, :, -2, -2] += gxp[:, :, -1, -1]
    out[...] = gxp[:, :, 1:-1, 1:-1]


def conv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray, cache: bool = True):
    """Same-size convolution, stride 1: (B, Cin, H, W) input, (Cout, Cin, k, k) kernel, (Cout,) bias.

    k is 1 or 3, as ``_col2im`` folds only a pad of 0 or 1; ``check_weights`` guarantees it.
    """
    bsz, _, h, wid = x.shape
    cout, _, k, _ = w.shape
    wmat = w.reshape(cout, -1)
    y = np.empty((bsz, cout, h * wid), dtype=np.result_type(wmat, x))
    _banded_gemm(wmat, x, k, y)
    y += b[:, None]
    return y.reshape(bsz, cout, h, wid), ((x, w) if cache else None)


def conv2d_backward(cache, gy: np.ndarray, input_grad: bool = True):
    """(input gradient, weight-gradient terms, bias-gradient terms); the input gradient is None unless ``input_grad``.

    The weight terms are (B, *w.shape), one product per sample, and their
    ``sum(axis=0)`` is the batch's weight gradient. The bias terms are the
    (B, Cout, 1, 1) per-sample sums of ``gy``, or ``gy`` itself when Cout is
    1: numpy sums a one-channel gradient over batch and plane in one pass,
    which no per-sample sum repeats. Either way their ``sum(axis=(0, 2, 3))``
    is the batch's bias gradient.

    The columns are rebuilt from the cached input, whole-plane, and the input
    gradient's columns overwrite them where the dtypes allow.
    """
    x, w = cache
    bsz, _, h, wid = x.shape
    cout, _, k, _ = w.shape
    ((_, _, cols),) = _columns(x, k, h)
    gy_mat = gy.reshape(bsz, cout, h * wid)
    gw = np.matmul(gy_mat, cols.transpose(0, 2, 1)).reshape(bsz, *w.shape)
    gx = None
    if input_grad:
        gx = np.empty(x.shape, dtype=np.result_type(w, gy_mat))
        gcols = np.matmul(w.reshape(cout, -1).T, gy_mat, out=cols if cols.dtype == gx.dtype else None)
        _col2im(gcols, k, k // 2, gx)
    return gx, gw, (gy.sum(axis=(2, 3), keepdims=True) if cout > 1 else gy)


def relu_forward(x: np.ndarray, cache: bool = True):
    """max(x, 0); with ``cache=False`` written into ``x``."""
    if not cache:
        return np.maximum(x, 0, out=x), None
    y = np.maximum(x, 0)
    return y, y


def relu_backward(cache, gy: np.ndarray):
    return gy * (cache > 0)  # x > 0 exactly where max(x, 0) > 0, NaN included


def maxpool2_forward(x: np.ndarray, cache: bool = True):
    """2x2 max pooling, stride 2; spatial dims must be even.

    The max over the four phases is folded from the last to the first:
    ``np.maximum`` returns its second argument on a tie, so a tied window
    yields its first maximum in raster order, the one the backward routes
    the gradient to. The choice shows only when -0.0 ties with +0.0.
    """
    y = np.maximum(x[:, :, 1::2, 1::2], x[:, :, 1::2, 0::2])
    np.maximum(y, x[:, :, 0::2, 1::2], out=y)
    np.maximum(y, x[:, :, 0::2, 0::2], out=y)
    return y, ((x, y) if cache else None)


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


def decoder_conv_forward(skip: np.ndarray, h: np.ndarray, w: np.ndarray, b: np.ndarray, cache: bool = True, *, w4=None):
    """3x3 conv over ``[skip ; nearest 2x upsample of h]`` without forming the upsample.

    ``skip`` is (B, Cs, 2h, 2w) for an (B, Cup, h, w) ``h``, and ``w`` is (Cout, Cs + Cup, 3, 3).
    The skip channels go through ``conv2d_forward``. The up half is a ``conv2d_forward``
    over ``h`` on its own grid with the 4*Cout phase kernels and no bias; phase (r, c)
    adds into ``y[:, :, r::2, c::2]``. ``w4`` is ``_fold_up`` of the up half of ``w``, for
    a caller whose weights do not change between calls; it is folded here when None.
    """
    bsz, cs = skip.shape[:2]
    _, cup, hl, wl = h.shape
    cout = w.shape[0]
    y, skip_cache = conv2d_forward(skip, w[:, :cs], b, cache=cache)
    if w4 is None:
        w4 = _fold_up(w[:, cs:])
    w_phases = w4.reshape(4 * cout, cup, 3, 3)
    z, up_cache = conv2d_forward(h, w_phases, np.zeros(4 * cout, w4.dtype), cache=cache)
    z = z.reshape(bsz, 2, 2, cout, hl, wl)
    for r in (0, 1):
        for c in (0, 1):
            y[:, :, r::2, c::2] += z[:, r, c]
    return y, ((skip_cache, up_cache) if cache else None)


def decoder_conv_backward(cache, gy: np.ndarray):
    """(skip gradient, ``h`` gradient, skip-half weight terms, up-half terms, bias terms), per sample.

    The skip-half terms are (B, Cout, Cs, 3, 3). The up-half terms are those
    of the (B, 4*Cout, Cup, 3, 3) phase kernels; ``_fold_up_grad`` of their
    batch sum is the up half's weight gradient.
    """
    skip_cache, up_cache = cache
    g_skip, gw_skip, gb = conv2d_backward(skip_cache, gy)
    bsz, _, hl, wl = up_cache[0].shape  # the cache of a conv holds its input, here h
    cout = gy.shape[1]
    # Phase-major, as the rows of w4: gz[:, (2 * r + c) * cout + o] = gy[:, o, r::2, c::2].
    gz = gy.reshape(bsz, cout, hl, 2, wl, 2).transpose(0, 3, 5, 1, 2, 4).reshape(bsz, 4 * cout, hl, wl)
    g_h, gw4, _ = conv2d_backward(up_cache, gz)
    return g_skip, g_h, gw_skip, gw4, gb


def _fold_up_grad(gw4: np.ndarray) -> np.ndarray:
    """(4*Cout, Cup, 3, 3) phase-kernel gradient -> (Cout, Cup, 3, 3) gradient of the kernel over the upsample."""
    cout, cup = len(gw4) // 4, gw4.shape[1]
    gw_up = np.matmul(gw4.reshape(4, cout, cup, 9).transpose(1, 2, 0, 3).reshape(cout, cup, 36), _FOLD.T)
    return gw_up.reshape(cout, cup, 3, 3)


def sigmoid_forward(x: np.ndarray, cache: bool = True):
    """``1 / (1 + e)`` where ``x >= 0`` and ``e / (1 + e)`` elsewhere, with ``e = exp(-|x|)``, which never overflows.

    NaN stays NaN. With ``cache=False`` the output is written into ``x``.
    """
    pos = x >= 0
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    d = 1.0 + e
    y = np.divide(e, d, out=e if cache else x)
    np.divide(1.0, d, out=y, where=pos)
    return y, (y if cache else None)


def sigmoid_backward(cache, gy: np.ndarray):
    y = cache
    return gy * y * (1.0 - y)
