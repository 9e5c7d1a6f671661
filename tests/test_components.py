import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c2fseg import (
    ComponentStats,
    Mask3D,
    Spacing,
    classify,
    component_stats,
    label_components,
    remove_small,
)
from data import random_mask_data
from oracles import flood_fill_labels, labelings_equivalent


def mask_of(data, spacing=Spacing(1, 1, 1)):
    return Mask3D(np.asarray(data, dtype=np.uint8), spacing)


class TestLabelComponents:
    def test_empty_mask(self):
        lm = label_components(mask_of(np.zeros((3, 3, 3))))
        assert lm.n_components == 0
        assert not lm.data.any()

    def test_face_adjacent_joined_at_6(self):
        m = np.zeros((2, 2, 2))
        m[0, 0, 0] = m[0, 0, 1] = 1
        lm = label_components(mask_of(m), connectivity=6)
        assert lm.n_components == 1

    def test_corner_only_split_at_6_joined_at_26(self):
        m = np.zeros((2, 2, 2))
        m[0, 0, 0] = m[1, 1, 1] = 1
        assert label_components(mask_of(m), connectivity=6).n_components == 2
        assert label_components(mask_of(m), connectivity=26).n_components == 1

    def test_ids_follow_scan_order(self):
        m = np.zeros((1, 1, 5))
        m[0, 0, 0] = m[0, 0, 4] = m[0, 0, 2] = 1
        lm = label_components(mask_of(m), connectivity=6)
        assert lm.data[0, 0, 0] == 1
        assert lm.data[0, 0, 2] == 2
        assert lm.data[0, 0, 4] == 3

    @pytest.mark.parametrize("connectivity", [6, 26])
    def test_matches_flood_fill_oracle(self, rng, connectivity):
        for _ in range(30):
            p = rng.uniform(0.1, 0.6)
            data = random_mask_data(rng, (8, 8, 8), p=p)
            lm = label_components(mask_of(data), connectivity)
            expected = flood_fill_labels(data, connectivity)
            assert labelings_equivalent(lm.data, expected)
            assert lm.n_components == expected.max()

    @pytest.mark.parametrize("connectivity", [6, 26])
    def test_scan_order_invariance_vs_oracle(self, rng, connectivity):
        data = random_mask_data(rng, (6, 7, 8), p=0.4)
        for view in (data[::-1], data[:, ::-1], data.transpose(2, 1, 0), data[::-1, :, ::-1]):
            arr = np.ascontiguousarray(view)
            lm = label_components(mask_of(arr), connectivity)
            assert labelings_equivalent(lm.data, flood_fill_labels(arr, connectivity))

    def test_connectivity_validated(self):
        with pytest.raises(ValueError):
            label_components(mask_of(np.zeros((2, 2, 2))), connectivity=18)

    @settings(max_examples=150, deadline=None)
    @given(
        dims=st.tuples(st.integers(1, 12), st.integers(1, 12), st.integers(1, 12)),
        p=st.floats(0.02, 0.9),
        seed=st.integers(0, 2**32 - 1),
        connectivity=st.sampled_from([6, 26]),
    )
    def test_ids_identical_to_flood_fill(self, dims, p, seed, connectivity):
        data = random_mask_data(np.random.default_rng(seed), dims, p=p)
        lm = label_components(mask_of(data), connectivity)
        expected = flood_fill_labels(data, connectivity)
        assert np.array_equal(lm.data, expected)
        assert lm.n_components == expected.max()

    @pytest.mark.parametrize("connectivity", [6, 26])
    def test_agrees_with_scipy_label(self, rng, connectivity):
        ndimage = pytest.importorskip("scipy.ndimage")
        structure = ndimage.generate_binary_structure(3, 1 if connectivity == 6 else 3)
        for dims, p in [((20, 30, 40), 0.3), ((16, 48, 48), 0.55), ((40, 20, 10), 0.1)]:
            data = random_mask_data(rng, dims, p=p)
            expected, n = ndimage.label(data, structure=structure)
            lm = label_components(mask_of(data), connectivity)
            assert lm.n_components == n
            assert labelings_equivalent(lm.data, expected)

    @pytest.mark.parametrize("connectivity", [6, 26])
    def test_long_u_is_one_component_quickly(self, connectivity):
        # Two 4-wide pillars of 20000 rows joined at the bottom: each pillar
        # is a 20000-run chain, and the two chains meet only at the last row.
        data = np.zeros((1, 20001, 12), dtype=np.uint8)
        data[0, :, :4] = data[0, :, 8:] = 1
        data[0, -1] = 1
        mask = mask_of(data)
        t0 = time.perf_counter()
        lm = label_components(mask, connectivity)
        elapsed = time.perf_counter() - t0
        assert lm.n_components == 1
        assert np.array_equal(lm.data, data.astype(np.int32))
        assert elapsed < 5.0, f"{elapsed:.2f} s"

    def test_memory_peak_near_output_size(self):
        data = np.zeros((67, 393, 393), dtype=np.uint8)
        data[20:45, 150:230, 80:140] = 1
        data[22:48, 160:240, 250:310] = 1
        mask = mask_of(data)
        out_bytes = data.size * np.dtype(np.int32).itemsize
        tracemalloc.start()
        try:
            lm = label_components(mask, 26)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert lm.n_components == 2
        assert peak <= 1.5 * out_bytes, f"peak {peak / out_bytes:.2f}x the int32 output"


class TestComponentStats:
    def test_single_voxel(self):
        m = np.zeros((4, 5, 6))
        m[2, 3, 4] = 1
        st_ = component_stats(label_components(mask_of(m)))
        assert len(st_) == 1
        assert st_[0].voxel_count == 1
        assert st_[0].centroid == (2.0, 3.0, 4.0)

    def test_collinear_run_centroid(self):
        m = np.zeros((2, 2, 3))
        m[0, 0, 0] = m[0, 0, 1] = m[0, 0, 2] = 1
        st_ = component_stats(label_components(mask_of(m), connectivity=26))
        assert len(st_) == 1
        assert st_[0].centroid == (0.0, 0.0, 1.0)

    def test_two_voxel_centroid(self):
        m = np.zeros((2, 2, 2))
        m[0, 0, 0] = m[0, 0, 1] = 1
        st_ = component_stats(label_components(mask_of(m), connectivity=26))
        assert len(st_) == 1
        assert st_[0].centroid == (0.0, 0.0, 0.5)

    def test_reference_component_volume(self, reference_spacing):
        m = np.zeros((10, 40, 25))
        m[:, :, :] = 1  # 10000 voxels, one dense block
        st_ = component_stats(label_components(Mask3D(m.astype(np.uint8), reference_spacing)))
        assert st_[0].voxel_count == 10000
        assert st_[0].volume_ml == pytest.approx(18.327, abs=1e-3)

    def test_sorted_desc_ties_by_id(self):
        m = np.zeros((1, 1, 7))
        m[0, 0, 0] = m[0, 0, 2] = m[0, 0, 4] = m[0, 0, 5] = 1
        st_ = component_stats(label_components(mask_of(m), connectivity=6))
        assert [(s.id, s.voxel_count) for s in st_] == [(3, 2), (1, 1), (2, 1)]

    @pytest.mark.parametrize("connectivity", [6, 26])
    def test_z_range_matches_brute_scan(self, rng, connectivity):
        for _ in range(20):
            data = random_mask_data(rng, tuple(rng.integers(1, 10, size=3)), p=rng.uniform(0.05, 0.5))
            lm = label_components(mask_of(data), connectivity)
            for s in component_stats(lm):
                zz = np.nonzero((lm.data == s.id).any(axis=(1, 2)))[0]
                assert s.z_range == (int(zz[0]), int(zz[-1]))

    def test_counts_sum_to_foreground(self, rng):
        data = random_mask_data(rng, (9, 9, 9), p=0.5)
        lm = label_components(mask_of(data))
        assert sum(s.voxel_count for s in component_stats(lm)) == int(data.sum())


def stats_from_counts(counts):
    return [
        ComponentStats(id=i + 1, voxel_count=c, volume_ml=c / 1000.0, centroid=(0.0, 0.0, 0.0))
        for i, c in enumerate(counts)
    ]


class TestClassify:
    def test_two_above_threshold_is_normal(self):
        v = classify(stats_from_counts([12000, 11000, 500]), 10000)
        assert v.n_kidney == 2 and v.verdict == "Normal"
        assert v.kidney_ids == (1, 2)

    def test_one_above_threshold_is_abnormal(self):
        v = classify(stats_from_counts([12000]), 10000)
        assert v.verdict == "Abnormal" and v.n_kidney == 1

    def test_three_above_threshold_is_abnormal(self):
        v = classify(stats_from_counts([12000, 11000, 10500]), 10000)
        assert v.n_kidney == 3 and v.verdict == "Abnormal"

    def test_threshold_is_inclusive(self):
        v = classify(stats_from_counts([10000, 10000]), 10000)
        assert v.verdict == "Normal"

    def test_th_validated(self):
        with pytest.raises(ValueError):
            classify([], 0)

    @settings(max_examples=50, deadline=None)
    @given(
        counts=st.lists(st.integers(1, 20000), min_size=0, max_size=6),
        seed=st.integers(0, 2**31),
    )
    def test_order_invariance(self, counts, seed):
        rng = np.random.default_rng(seed)
        stats = stats_from_counts(counts)
        shuffled = list(stats)
        rng.shuffle(shuffled)
        a, b = classify(stats, 5000), classify(shuffled, 5000)
        assert a.verdict == b.verdict
        assert set(a.kidney_ids) == set(b.kidney_ids)


class TestRemoveSmall:
    def test_keeps_only_large(self):
        m = np.zeros((4, 10, 10))
        m[0:3, 0:8, 0:5] = 1  # 120 voxels
        m[3, 9, 9] = 1  # 1 voxel
        out = remove_small(label_components(mask_of(m)), 50)
        assert out.foreground_count() == 120
        assert out.data[3, 9, 9] == 0

    def test_all_below_threshold_gives_empty(self):
        m = np.zeros((3, 3, 3))
        m[0, 0, 0] = 1
        out = remove_small(label_components(mask_of(m)), 10)
        assert out.foreground_count() == 0

    def test_agrees_with_oracle_filter(self, rng):
        for _ in range(10):
            data = random_mask_data(rng, (8, 8, 8), p=0.35)
            th = int(rng.integers(1, 12))
            got = remove_small(label_components(mask_of(data)), th)
            labels = flood_fill_labels(data, 26)
            counts = np.bincount(labels.ravel())
            expected = np.zeros_like(data)
            for lab in range(1, labels.max() + 1):
                if counts[lab] >= th:
                    expected[labels == lab] = 1
            assert np.array_equal(got.data, expected)

    def test_idempotent(self, rng):
        data = random_mask_data(rng, (8, 8, 8), p=0.4)
        once = remove_small(label_components(mask_of(data)), 5)
        twice = remove_small(label_components(once), 5)
        assert np.array_equal(once.data, twice.data)
