"""3D connected-component labeling and the normal/abnormal kidney-count criterion.

Labeling works on runs, the maximal foreground stretches along W (He, Chao &
Suzuki, "A Run-Based Two-Scan Labeling Algorithm", IEEE TIP 2008), all in
numpy with no per-voxel Python:

1. Runs are cut from the sorted foreground indices wherever the index jumps
   or a row begins, so they come out in raster order. The indices come from
   ``foreground_indices``, which scans only the W-rows that hold foreground.
2. Each run is joined to the runs it touches on its prior rows (the row
   above, and for the slice above the rows the connectivity reaches). Those
   runs sit in one contiguous range of the sorted run keys, found with two
   binary searches per prior row.
3. Equivalences are resolved by array union-find: every round hooks each
   root to the smallest root it shares an edge with, then pointer-jumps to a
   fixed point, until a round changes nothing. Each component ends up keyed
   by its first run.
4. Components are numbered in the order of their first runs, which is
   first-encounter raster order, so ids are contiguous from 1 and
   deterministic, and painted back run by run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .volume import LabelMap3D, Mask3D, voxel_volume_ml

Connectivity = int  # 6 or 26

# Prior-row neighbours of a run as (dz, dy) row offsets, and the column slack
# with which runs on those rows touch: 1 lets 26-connectivity join diagonals.
_PRIOR_ROWS = {6: (((0, -1), (-1, 0)), 0), 26: (((0, -1), (-1, -1), (-1, 0), (-1, 1)), 1)}


@dataclass(frozen=True)
class ComponentStats:
    id: int
    voxel_count: int
    volume_ml: float
    centroid: tuple[float, float, float]
    z_range: tuple[int, int] | None = None  # first and last axial slice, inclusive


@dataclass(frozen=True)
class AbnormalityVerdict:
    """Result of the kidney-count criterion: Normal iff exactly two components pass the size threshold."""

    n_kidney: int
    verdict: str  # "Normal" | "Abnormal"
    kidney_ids: tuple[int, ...]

    @property
    def is_normal(self) -> bool:
        return self.verdict == "Normal"


def _check_connectivity(connectivity: int):
    if connectivity not in (6, 26):
        raise ValueError(f"connectivity must be 6 or 26, got {connectivity}")


def foreground_indices(data: np.ndarray) -> np.ndarray:
    """The flat indices of ``data``'s nonzero elements: the same array as ``np.flatnonzero``.

    One ``any`` over each W-row (the last axis), then ``nonzero`` over only
    the rows that hold foreground, which costs far less than a scan of every
    element when the foreground is a small share of the rows.
    """
    w = data.shape[-1]
    rows = data.reshape(-1, w)
    hit = np.flatnonzero(rows.any(axis=1))
    r, c = np.nonzero(rows[hit])
    return hit[r] * w + c


def _run_edges(row, start, stop, h, w, connectivity):
    """Index pairs (a, b), b < a, of runs that touch across a prior row."""
    offsets, slack = _PRIOR_ROWS[connectivity]
    pitch = w + 2  # keys of one row stay clear of its neighbours' even with slack
    start_keys = row * pitch + start
    stop_keys = row * pitch + stop
    z, y = np.divmod(row, h)
    lo_parts, count_parts = [], []
    for dz, dy in offsets:
        base = (row + dz * h + dy) * pitch
        # Runs of the prior row overlap [start - slack, stop + slack) in one
        # contiguous range: from the first that stops past our start to the
        # last that starts before our stop.
        lo = np.searchsorted(stop_keys, base + start - slack, side="right")
        hi = np.searchsorted(start_keys, base + stop + slack, side="left")
        valid = (z + dz >= 0) & (y + dy >= 0) & (y + dy < h)
        lo_parts.append(lo)
        count_parts.append(np.where(valid, hi - lo, 0))
    lo = np.concatenate(lo_parts)
    counts = np.concatenate(count_parts)
    a = np.repeat(np.tile(np.arange(row.size), len(offsets)), counts)
    first = np.cumsum(counts) - counts
    b = np.arange(a.size) - np.repeat(first - lo, counts)
    return a, b


def _resolve(n_runs, a, b):
    """Smallest run index of each run's component, by array union-find.

    Each round hooks every root to the smallest root it shares an edge with,
    then pointer-jumps until every run points at its root; it stops when a
    round changes nothing. Hooking roots, not runs, merges whole trees at
    once, so long chains take few rounds.
    """
    lab = np.arange(n_runs)
    while True:
        la, lb = lab[a], lab[b]
        low = np.minimum(la, lb)
        new = lab.copy()
        np.minimum.at(new, la, low)
        np.minimum.at(new, lb, low)
        while True:
            jumped = new[new]
            if np.array_equal(jumped, new):
                break
            new = jumped
        if np.array_equal(new, lab):
            return lab
        lab = new


def label_components(mask: Mask3D, connectivity: Connectivity = 26) -> LabelMap3D:
    """Label maximal connected foreground regions of a binary mask.

    Two voxels share an id iff a foreground path connects them under the
    given connectivity (6 = faces, 26 = faces+edges+corners). Ids are
    assigned in first-encounter raster-scan order.
    """
    _check_connectivity(connectivity)
    d, h, w = mask.dims
    out = np.zeros((d, h, w), dtype=np.int32)
    fi = foreground_indices(mask.data)
    if fi.size == 0:
        return LabelMap3D(out, mask.spacing, 0)

    # Maximal runs along W, in raster order.
    is_start = np.empty(fi.size, dtype=bool)
    is_start[0] = True
    np.not_equal(np.diff(fi), 1, out=is_start[1:])
    is_start |= fi % w == 0
    first = np.flatnonzero(is_start)
    lengths = np.diff(first, append=fi.size)
    row, start = np.divmod(fi[first], w)
    stop = start + lengths

    a, b = _run_edges(row, start, stop, h, w, connectivity)
    # Components keyed by their first run number in raster order, which is
    # first-encounter order of their voxels.
    roots, comp = np.unique(_resolve(first.size, a, b), return_inverse=True)
    out.ravel()[fi] = np.repeat(comp.astype(np.int32) + 1, lengths)
    return LabelMap3D(out, mask.spacing, roots.size)


def component_stats(lm: LabelMap3D) -> list[ComponentStats]:
    """Exact voxel counts, physical volumes, centroids and z-ranges per component.

    Sorted by voxel count descending, ties by ascending id.
    """
    n = lm.n_components
    if n == 0:
        return []
    d, h, w = lm.dims
    fi = foreground_indices(lm.data)
    ids = lm.data.ravel()[fi]
    zz, rest = np.divmod(fi, h * w)
    yy, xx = np.divmod(rest, w)
    counts = np.bincount(ids, minlength=n + 1)
    csz = np.bincount(ids, weights=zz, minlength=n + 1)
    csy = np.bincount(ids, weights=yy, minlength=n + 1)
    csx = np.bincount(ids, weights=xx, minlength=n + 1)
    z0 = np.full(n + 1, d, dtype=np.int64)
    z1 = np.full(n + 1, -1, dtype=np.int64)
    np.minimum.at(z0, ids, zz)
    np.maximum.at(z1, ids, zz)
    stats = [
        ComponentStats(
            id=i,
            voxel_count=int(counts[i]),
            volume_ml=voxel_volume_ml(lm.spacing, int(counts[i])),
            centroid=(
                float(csz[i] / counts[i]),
                float(csy[i] / counts[i]),
                float(csx[i] / counts[i]),
            ),
            z_range=(int(z0[i]), int(z1[i])),
        )
        for i in range(1, n + 1)
    ]
    stats.sort(key=lambda c: (-c.voxel_count, c.id))
    return stats


def classify(stats: list[ComponentStats], th_vn: int) -> AbnormalityVerdict:
    """Count components at least th_vn voxels big; exactly two means Normal."""
    if th_vn <= 0:
        raise ValueError(f"th_vn must be positive, got {th_vn}")
    kidney_ids = tuple(sorted(c.id for c in stats if c.voxel_count >= th_vn))
    n = len(kidney_ids)
    return AbnormalityVerdict(
        n_kidney=n,
        verdict="Normal" if n == 2 else "Abnormal",
        kidney_ids=kidney_ids,
    )

