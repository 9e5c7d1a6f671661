"""Independent reference implementations the tests check against.

These deliberately use the slowest, most literal formulation of each
operation (per-voxel loops, recursion, explicit construction) and share no
code with the package paths they verify.
"""

from __future__ import annotations

import sys

import numpy as np

from c2fseg.components import component_stats, label_components
from c2fseg.errors import GeometryError
from c2fseg.geometry import resize_slice
from c2fseg.nn import layers


def trilinear_oracle(data: np.ndarray, out_dims, step_ratios) -> np.ndarray:
    """Closed-form trilinear interpolation evaluated voxel by voxel.

    Output voxel (i, j, k) samples source coordinate (i*rz, j*ry, k*rx),
    edge-clamped, blending the 8 surrounding corners in float64.
    """
    src = data.astype(np.float64)
    out = np.empty(out_dims, dtype=np.float64)
    nd, nh, nw = src.shape
    for i in range(out_dims[0]):
        z = min(max(i * step_ratios[0], 0.0), nd - 1)
        z0 = min(int(np.floor(z)), nd - 1)
        z1 = min(z0 + 1, nd - 1)
        fz = z - z0
        for j in range(out_dims[1]):
            y = min(max(j * step_ratios[1], 0.0), nh - 1)
            y0 = min(int(np.floor(y)), nh - 1)
            y1 = min(y0 + 1, nh - 1)
            fy = y - y0
            for k in range(out_dims[2]):
                x = min(max(k * step_ratios[2], 0.0), nw - 1)
                x0 = min(int(np.floor(x)), nw - 1)
                x1 = min(x0 + 1, nw - 1)
                fx = x - x0
                c = 0.0
                for zz, wz in ((z0, 1 - fz), (z1, fz)):
                    for yy, wy in ((y0, 1 - fy), (y1, fy)):
                        for xx, wx in ((x0, 1 - fx), (x1, fx)):
                            c += wz * wy * wx * src[zz, yy, xx]
                out[i, j, k] = c
    return out


def _corner_axis(n_src: int, n_out: int, step_ratio: float, linear: bool):
    x = np.clip(np.arange(n_out, dtype=np.float64) * step_ratio, 0.0, float(n_src - 1))
    if not linear:
        return np.clip(np.floor(x + 0.5).astype(np.intp), 0, n_src - 1)
    i0 = np.minimum(np.floor(x).astype(np.intp), n_src - 1)
    return i0, np.minimum(i0 + 1, n_src - 1), x - i0


def corner_blend_oracle(data: np.ndarray, out_dims, step_ratios, linear: bool) -> np.ndarray:
    """The 2^n-corner formulation of 2D/3D resampling (bilinear/trilinear or nearest).

    Gathers every corner of every output sample from a float64 copy of the
    source and lerps ``v0 + f * (v1 - v0)`` along W, then H, then D; linear
    results are cast to float32. The package must match it byte for byte.
    """
    nd = data.ndim
    if nd not in (2, 3):
        raise ValueError(f"corner_blend_oracle takes 2D or 3D data, got {nd}D")

    def grid(axis_index, ax):
        shape = [1] * nd
        shape[ax] = -1
        return axis_index.reshape(shape)

    axes = [_corner_axis(data.shape[ax], out_dims[ax], step_ratios[ax], linear) for ax in range(nd)]
    if not linear:
        return data[tuple(grid(idx, ax) for ax, idx in enumerate(axes))]

    work = data.astype(np.float64)

    def lerp(v0, v1, f):
        return v0 + f * (v1 - v0)

    def take(*corner):
        return work[tuple(grid(axes[ax][c], ax) for ax, c in enumerate(corner))]

    if nd == 2:
        fr, fc = grid(axes[0][2], 0), grid(axes[1][2], 1)
        top = lerp(take(0, 0), take(0, 1), fc)
        bot = lerp(take(1, 0), take(1, 1), fc)
        return lerp(top, bot, fr).astype(np.float32)
    fz, fy, fx = (grid(axes[ax][2], ax) for ax in range(3))
    c00 = lerp(take(0, 0, 0), take(0, 0, 1), fx)
    c01 = lerp(take(0, 1, 0), take(0, 1, 1), fx)
    c10 = lerp(take(1, 0, 0), take(1, 0, 1), fx)
    c11 = lerp(take(1, 1, 0), take(1, 1, 1), fx)
    c0 = lerp(c00, c01, fy)
    c1 = lerp(c10, c11, fy)
    return lerp(c0, c1, fz).astype(np.float32)


def pad_then_crop_oracle(data: np.ndarray, center, patch_dims) -> np.ndarray:
    """Crop via explicit zero-padding: pad generously, then plain-slice."""
    pr, pc = patch_dims
    pad_r, pad_c = pr + 1, pc + 1
    padded = np.pad(data, ((pad_r, pad_r), (pad_c, pad_c)))
    r0 = center[0] - pr // 2 + pad_r
    c0 = center[1] - pc // 2 + pad_c
    return padded[r0 : r0 + pr, c0 : c0 + pc].copy()


def crop_window_oracle(center, patch_dims, source_dims):
    """A crop window's placement written out longhand.

    Returns the (top, bottom, left, right) zero padding, then the (rows,
    cols) slices of the window's in-source part on the source and on the
    patch.
    """
    pr, pc = patch_dims
    rows, cols = source_dims
    r0 = center[0] - pr // 2
    c0 = center[1] - pc // 2
    top = max(0, -r0)
    left = max(0, -c0)
    bottom = max(0, r0 + pr - rows)
    right = max(0, c0 + pc - cols)
    source = (slice(r0 + top, r0 + pr - bottom), slice(c0 + left, c0 + pc - right))
    patch = (slice(top, pr - bottom), slice(left, pc - right))
    return (top, bottom, left, right), source, patch


def full_frame_sagittal_oracle(vol_data: np.ndarray, coarse_data: np.ndarray, window, predict, threshold: float):
    """The Abnormal correction through full-frame sagittal stacks.

    Centres the (depth, row) window on the coarse mask's global centroid (the
    volume centre if the mask is empty), copies every sagittal plane, crops
    each with zero padding, predicts it with ``predict(patch) -> probs``,
    pastes the predictions into a zeroed full-frame stack, composes that
    back to (D, H, W) and thresholds it to a uint8 mask.
    """
    coords = np.nonzero(coarse_data)
    if coords[0].size:
        centroid = [float(c.mean()) for c in coords]
    else:
        centroid = [(n - 1) / 2.0 for n in vol_data.shape]
    center = (int(round(centroid[0])), int(round(centroid[1])))
    sagittal = np.ascontiguousarray(vol_data.transpose(2, 0, 1))
    nd, nh = sagittal.shape[1:]
    pr, pc = window
    r0, c0 = center[0] - pr // 2 + pr, center[1] - pc // 2 + pc  # window origin in a frame padded by the window
    frame = np.zeros(sagittal.shape, dtype=np.float32)
    for k, plane in enumerate(sagittal):
        padded = np.zeros((nd + 2 * pr, nh + 2 * pc), dtype=np.float32)
        padded[r0 : r0 + pr, c0 : c0 + pc] = predict(pad_then_crop_oracle(plane, center, window))
        frame[k] = padded[pr : pr + nd, pc : pc + nh]
    return (frame.transpose(1, 2, 0) >= threshold).astype(np.uint8)


def flood_fill_labels(mask: np.ndarray, connectivity: int) -> np.ndarray:
    """Recursive flood-fill labeling; ids in first-encounter scan order."""
    offsets = []
    for dz in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                if (dz, dy, dx) == (0, 0, 0):
                    continue
                if connectivity == 6 and abs(dz) + abs(dy) + abs(dx) != 1:
                    continue
                offsets.append((dz, dy, dx))
    d, h, w = mask.shape
    labels = np.zeros(mask.shape, dtype=np.int32)
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, mask.size + 1000))

    def fill(z, y, x, lab):
        labels[z, y, x] = lab
        for dz, dy, dx in offsets:
            nz, ny, nx = z + dz, y + dy, x + dx
            if 0 <= nz < d and 0 <= ny < h and 0 <= nx < w:
                if mask[nz, ny, nx] and not labels[nz, ny, nx]:
                    fill(nz, ny, nx, lab)

    try:
        next_label = 0
        for z in range(d):
            for y in range(h):
                for x in range(w):
                    if mask[z, y, x] and not labels[z, y, x]:
                        next_label += 1
                        fill(z, y, x, next_label)
    finally:
        sys.setrecursionlimit(old_limit)
    return labels


def labelings_equivalent(a: np.ndarray, b: np.ndarray) -> bool:
    """True iff two labelings agree up to a bijective relabeling."""
    if a.shape != b.shape or not np.array_equal(a > 0, b > 0):
        return False
    fg = a > 0
    pairs = set(zip(a[fg].tolist(), b[fg].tolist()))
    return len(pairs) == len({p[0] for p in pairs}) == len({p[1] for p in pairs})


def conv3x3_replicate_oracle(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Direct-summation 3x3 same convolution with replicated edges."""
    bs, cin, h, wid = x.shape
    cout = w.shape[0]
    out = np.zeros((bs, cout, h, wid), dtype=np.float64)
    for n in range(bs):
        for co in range(cout):
            for r in range(h):
                for c in range(wid):
                    acc = float(b[co])
                    for ci in range(cin):
                        for i in range(3):
                            for j in range(3):
                                rr = min(max(r + i - 1, 0), h - 1)
                                cc = min(max(c + j - 1, 0), wid - 1)
                                acc += w[co, ci, i, j] * x[n, ci, rr, cc]
                    out[n, co, r, c] = acc
    return out


def maxpool2_argmax_oracle(x: np.ndarray, gy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """2x2/stride-2 max pooling by window argmax: (output, input gradient).

    Each window's four pixels are laid out in raster order; the output takes
    the first maximum and the gradient goes to that pixel alone.
    """
    bsz, c, h, w = x.shape
    windows = (
        x.reshape(bsz, c, h // 2, 2, w // 2, 2)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(bsz, c, h // 2, w // 2, 4)
    )
    idx = windows.argmax(axis=-1)
    y = np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]
    gwin = np.zeros((bsz, c, h // 2, w // 2, 4), dtype=gy.dtype)
    np.put_along_axis(gwin, idx[..., None], gy[..., None], axis=-1)
    gx = gwin.reshape(bsz, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(bsz, c, h, w)
    return y, gx


# The decoder conv as the package ran it before the sub-pixel form: one
# buffer holding the skip channels and a nearest 2x copy of ``h``, then a
# 3x3 conv over all of it. ``decoder_conv_*`` must match this chain within
# a rounding tolerance. The conv itself is the package's ``conv2d_*``, which
# ``conv3x3_replicate_oracle`` and the finite-difference tests check apart.


def upcat_forward(skip: np.ndarray, h: np.ndarray):
    """Decoder input in one fresh buffer: the skip channels, then a nearest 2x copy of ``h``."""
    b, cs, hs, ws = skip.shape
    y = np.empty((b, cs + h.shape[1], hs, ws), dtype=np.result_type(skip, h))
    y[:, :cs] = skip
    up = y[:, cs:]
    up[:, :, 0::2, 0::2] = h
    up[:, :, 0::2, 1::2] = h
    up[:, :, 1::2] = up[:, :, 0::2]
    return y, cs


def upcat_backward(cs: int, gy: np.ndarray):
    """(skip gradient, gradient of ``h`` summed over the four phases)."""
    g = gy[:, cs:]
    return gy[:, :cs], g[:, :, 0::2, 0::2] + g[:, :, 0::2, 1::2] + g[:, :, 1::2, 0::2] + g[:, :, 1::2, 1::2]


def decoder_conv_oracle(skip: np.ndarray, h: np.ndarray, w: np.ndarray, b: np.ndarray, cache: bool = True, *, w4=None):
    """``upcat_forward``, then ``conv2d_forward`` over the joined tensor: (output, cache).

    Takes ``decoder_conv_forward``'s arguments so that it can stand in for it
    inside ``unet_forward``, but ignores ``cache`` and the folded ``w4``.
    """
    x, cs = upcat_forward(skip, h)
    y, conv_cache = layers.conv2d_forward(x, w, b)
    return y, (cs, conv_cache)


def decoder_conv_oracle_backward(cache, gy: np.ndarray):
    """(skip gradient, ``h`` gradient, weight gradient, bias gradient) through the same chain."""
    cs, conv_cache = cache
    gx, gw, gb = layers.conv2d_backward(conv_cache, gy)
    return (*upcat_backward(cs, gx), gw, gb)


# The batched layer ops as the package ran them before each batch was split
# into per-CPU chunks: every op over the whole batch at once, with fresh
# buffers. The split ops must give these bytes. The pad is numpy's edge pad
# (byte-equal to the package's replicate pad); the decoder's phase kernels
# come from the package's ``_fold_up``, which the split does not touch.


def _unsplit_im2col(xp: np.ndarray, kh: int, kw: int, out_h: int, out_w: int) -> np.ndarray:
    b, c, _, _ = xp.shape
    sb, sc, sh, sw = xp.strides
    patches = np.lib.stride_tricks.as_strided(
        xp, shape=(b, c, kh, kw, out_h, out_w), strides=(sb, sc, sh, sw, sh, sw), writeable=False
    )
    return np.ascontiguousarray(patches).reshape(b, c * kh * kw, out_h * out_w)


def unsplit_col2im(gcols: np.ndarray, x_shape, k: int, pad: int) -> np.ndarray:
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


def _edge_pad(x: np.ndarray, pad: int) -> np.ndarray:
    return np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="edge")


def unsplit_conv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """(output, cache); the cache is laid out as ``conv2d_forward``'s."""
    bsz, _, h, wid = x.shape
    cout, _, kh, kw = w.shape
    pad = kh // 2
    cols = _unsplit_im2col(_edge_pad(x, pad) if pad else x, kh, kw, h, wid)
    y = np.matmul(w.reshape(cout, -1), cols).reshape(bsz, cout, h, wid)
    y += b[None, :, None, None]
    return y, (cols, w, x.shape, pad)


def unsplit_conv2d_backward(cache, gy: np.ndarray):
    """(input gradient, weight gradient, bias gradient)."""
    cols, w, x_shape, pad = cache
    bsz, _, h, wid = x_shape
    cout, _, kh, _ = w.shape
    gy_mat = gy.reshape(bsz, cout, h * wid)
    gw = np.matmul(gy_mat, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
    gb = gy.sum(axis=(0, 2, 3))
    gx = unsplit_col2im(np.matmul(w.reshape(cout, -1).T, gy_mat), x_shape, kh, pad)
    return gx, gw, gb


def unsplit_decoder_conv_forward(skip: np.ndarray, h: np.ndarray, w: np.ndarray, b: np.ndarray):
    """(output, cache); the cache is laid out as ``decoder_conv_forward``'s."""
    bsz, cs = skip.shape[:2]
    _, cup, hl, wl = h.shape
    cout = w.shape[0]
    y, skip_cache = unsplit_conv2d_forward(skip, w[:, :cs], b)
    cols = _unsplit_im2col(_edge_pad(h, 1), 3, 3, hl, wl)
    w4 = layers._fold_up(w[:, cs:])
    z = np.matmul(w4, cols).reshape(bsz, 2, 2, cout, hl, wl)
    for r in (0, 1):
        for c in (0, 1):
            y[:, :, r::2, c::2] += z[:, r, c]
    return y, (skip_cache, (cols, w4.reshape(4 * cout, cup, 3, 3), h.shape, 1))


def unsplit_decoder_conv_backward(cache, gy: np.ndarray):
    """(skip gradient, ``h`` gradient, weight gradient, bias gradient)."""
    skip_cache, (cols, w4, h_shape, _) = cache
    w4 = w4.reshape(len(w4), -1)
    g_skip, gw_skip, gb = unsplit_conv2d_backward(skip_cache, gy)
    bsz, cup, hl, wl = h_shape
    cout = gy.shape[1]
    gz = np.stack([gy[:, :, r::2, c::2] for r in (0, 1) for c in (0, 1)], axis=1).reshape(bsz, 4 * cout, hl * wl)
    gw4 = np.matmul(gz, cols.transpose(0, 2, 1)).sum(axis=0)
    gw_up = np.matmul(gw4.reshape(4, cout, cup, 9).transpose(1, 2, 0, 3).reshape(cout, cup, 36), layers._FOLD.T)
    g_h = unsplit_col2im(np.matmul(w4.T, gz), h_shape, 3, 1)
    gw = np.concatenate([gw_skip, gw_up.reshape(cout, cup, 3, 3)], axis=1)
    return g_skip, g_h, gw, gb


def unsplit_maxpool2_backward(cache, gy: np.ndarray) -> np.ndarray:
    """Input gradient of ``maxpool2_forward``'s (x, y) cache."""
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


# The training sets as the package built them before they were one array:
# one (image, label) pair of planes per sample, each plane cut or resized
# on its own, then checked for one shape and stacked. ``prepare_*_set``
# must give the bytes of ``stack_pairs`` over these lists. Resizing and the
# component windows use the package's ``resize_slice`` and labeling, which
# are checked apart against ``corner_blend_oracle`` and ``flood_fill_labels``.


def stack_pairs(pairs: list[tuple[np.ndarray, np.ndarray]], dims) -> np.ndarray:
    """(N, 2, H, W) float32: the images, then the labels, of pairs that all have ``dims``."""
    for img, lab in pairs:
        if img.shape != tuple(dims) or lab.shape != tuple(dims):
            raise GeometryError(f"pair dims {img.shape}/{lab.shape}, expected {dims}")
    if not pairs:
        return np.empty((0, 2, *dims), dtype=np.float32)
    x = np.stack([img for img, _ in pairs])[:, None]
    y = np.stack([lab for _, lab in pairs])[:, None]
    return np.concatenate([x, y], axis=1).astype(np.float32)


def coarse_pairs_oracle(cases, cfg) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each axial plane resized alone: bilinear for the image, nearest for the label."""
    pairs = []
    for vol, label in cases:
        for k in range(vol.dims[0]):
            img, _ = resize_slice(vol.data[k], cfg.coarse_dims, mode="bilinear")
            lab, _ = resize_slice(label.data[k], cfg.coarse_dims, mode="nearest")
            pairs.append((img, lab))
    return pairs


def fine_pairs_oracle(cases, cfg) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per component, biggest first: the zero-padded axial window at its centroid, plane by plane over its slices."""
    pairs = []
    for vol, label in cases:
        lm = label_components(label, cfg.connectivity)
        for st in component_stats(lm):
            center = (int(round(st.centroid[1])), int(round(st.centroid[2])))
            zz = np.nonzero((lm.data == st.id).any(axis=(1, 2)))[0]
            for k in range(zz[0], zz[-1] + 1):
                img = pad_then_crop_oracle(vol.data[k], center, cfg.fine_dims)
                lab = pad_then_crop_oracle(label.data[k], center, cfg.fine_dims)
                pairs.append((img, lab))
    return pairs


def abnormal_pairs_oracle(cases, cfg) -> list[tuple[np.ndarray, np.ndarray]]:
    """Every sagittal plane's zero-padded window at the foreground centroid's (depth, row)."""
    pairs = []
    for vol, label in cases:
        if not label.data.any():
            continue
        center = tuple(int(round(c)) for c in brute_centroid(label.data)[:2])
        for k in range(vol.dims[2]):
            img = pad_then_crop_oracle(vol.data[:, :, k], center, cfg.abnormal_dims)
            lab = pad_then_crop_oracle(label.data[:, :, k], center, cfg.abnormal_dims)
            pairs.append((img, lab))
    return pairs


def sigmoid_two_gather_oracle(x: np.ndarray) -> np.ndarray:
    """The logistic sigmoid as the package computed it before its one-exp form.

    ``1 / (1 + exp(-x))`` gathered where ``x >= 0``, ``exp(x) / (1 + exp(x))``
    gathered elsewhere, each scattered back into a fresh output.
    """
    y = np.empty_like(x)
    pos = x >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    y[~pos] = ex / (1.0 + ex)
    return y


def relu_mask_oracle(x: np.ndarray, gy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ReLU as max(x, 0), its gradient as gy times the input mask x > 0: (output, input gradient)."""
    return np.maximum(x, 0), gy * (x > 0)


def brute_centroid(mask: np.ndarray) -> tuple[float, float, float]:
    """Mean coordinate of foreground voxels via an explicit loop."""
    total = np.zeros(3)
    count = 0
    d, h, w = mask.shape
    for z in range(d):
        for y in range(h):
            for x in range(w):
                if mask[z, y, x]:
                    total += (z, y, x)
                    count += 1
    return tuple(total / count)


def numeric_gradient(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function, elementwise."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * h)
    return g


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Scale-normalized max deviation between two gradient arrays."""
    denom = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-12)
    return float(np.abs(analytic - numeric).max() / denom)
