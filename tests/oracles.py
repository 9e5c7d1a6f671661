"""Independent reference implementations the tests check against.

These deliberately use the slowest, most literal formulation of each
operation (per-voxel loops, recursion, explicit construction) and share no
code with the package paths they verify.
"""

from __future__ import annotations

import sys

import numpy as np

from c2fseg.errors import GeometryError


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


# The decoder input as two layer pairs, a 2x nearest upsample and then a
# channel concatenation: the package's code before the two were fused into
# one buffer. ``upcat_*`` must match this chain byte for byte.


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
