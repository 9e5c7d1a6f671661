import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c2fseg import (
    GeometryError,
    LabelMap3D,
    Mask3D,
    Spacing,
    Volume3D,
    binarize,
    compose_slices,
    extract_slices,
    voxel_volume_ml,
)
from data import random_mask_data, random_volume_data


class TestSpacing:
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan")])
    def test_rejects_nonpositive_or_nonfinite(self, bad):
        with pytest.raises(ValueError):
            Spacing(bad, 1.0, 1.0)

    def test_canonical_f32(self):
        s = Spacing(3.0, 0.7816, 0.7816)
        assert s.h == float(np.float32(0.7816))


class TestContainers:
    def test_volume_rejects_non3d(self):
        with pytest.raises(GeometryError):
            Volume3D(np.zeros((2, 2)), Spacing(1, 1, 1))

    def test_volume_rejects_nonfinite(self):
        data = np.zeros((2, 2, 2), dtype=np.float32)
        data[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            Volume3D(data, Spacing(1, 1, 1))

    @pytest.mark.parametrize("bad", [2, -1, 0.5])
    def test_mask_rejects_nonbinary(self, bad):
        data = np.zeros((2, 2, 2))
        data[1, 1, 1] = bad
        with pytest.raises(ValueError, match=rf"found value {float(bad)}$"):
            Mask3D(data, Spacing(1, 1, 1))

    def test_immutability(self, rng):
        v = Volume3D(random_volume_data(rng, (2, 3, 4)), Spacing(1, 1, 1))
        with pytest.raises(ValueError):
            v.data[0, 0, 0] = 1.0

    def test_constructor_owns_an_input_that_needs_no_copy(self, rng):
        # float32 C-contiguous input: kept as is, so the caller's own array turns read-only
        owned = random_volume_data(rng, (2, 3, 4)).astype(np.float32)
        v = Volume3D(owned, Spacing(1, 1, 1))
        assert np.shares_memory(v.data, owned) and not owned.flags.writeable
        # float64 input: converted into a copy, and the caller's array is left alone
        kept = random_volume_data(rng, (2, 3, 4)).astype(np.float64)
        before = kept.copy()
        v = Volume3D(kept, Spacing(1, 1, 1))
        assert not np.shares_memory(v.data, kept) and kept.flags.writeable
        assert np.array_equal(kept, before)
        kept[0, 0, 0] += 1.0
        assert v.data[0, 0, 0] == np.float32(before[0, 0, 0])

    @pytest.mark.parametrize("make", [lambda a: Volume3D(a, Spacing(1, 1, 1))], ids=["Volume3D"])
    def test_transposed_input_is_copied_once(self, make):
        view = np.zeros((40, 50, 60), dtype=np.float32).transpose(2, 0, 1)
        tracemalloc.start()
        try:
            out = make(view)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.data.flags.c_contiguous and np.array_equal(out.data, view)
        assert peak <= 1.3 * view.nbytes, f"peak {peak / view.nbytes:.2f}x the array"  # the copy and isfinite's mask

    def test_uint8_mask_checked_without_a_mask_size_temporary(self):
        data = np.zeros((40, 50, 60), dtype=np.uint8)
        data[10:20, 5:30, 7:50] = 1
        tracemalloc.start()
        try:
            m = Mask3D(data, Spacing(1, 1, 1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(m.data, data)
        assert peak < 0.1 * data.nbytes, f"peak {peak / data.nbytes:.2f}x the mask"

    def test_uint8_mask_names_first_value_above_one(self):
        data = np.zeros((2, 2, 2), dtype=np.uint8)
        data[0, 1, 0], data[1, 0, 0] = 7, 3
        with pytest.raises(ValueError, match=r"found value 7\b"):
            Mask3D(data, Spacing(1, 1, 1))


CONTAINERS = {
    "Volume3D": (Volume3D, "volume data", "volume dims"),
    "Mask3D": (Mask3D, "mask data", "mask dims"),
    "LabelMap3D": (lambda a, sp: LabelMap3D(a, sp, 0), "label map", "label map dims"),
}


class TestGrid:
    """The checks every container shares: 3D, positive dims, and ``check_grid`` (its mismatch errors: test_pipeline)."""

    @pytest.mark.parametrize("kind", sorted(CONTAINERS))
    def test_shape_checks_are_geometry_errors_in_order(self, kind):
        make, data_noun, dims_noun = CONTAINERS[kind]
        with pytest.raises(GeometryError, match=rf"^{data_noun} must be 3D, got shape \(0, 2\)$"):
            make(np.zeros((0, 2)), Spacing(1, 1, 1))  # not 3D is reported before zero size
        with pytest.raises(GeometryError, match=rf"^{dims_noun} must be positive, got \(2, 0, 3\)$"):
            make(np.zeros((2, 0, 3)), Spacing(1, 1, 1))

    def test_check_grid_accepts_any_container_on_the_same_grid(self):
        sp = Spacing(3, 2, 1)
        grids = [make(np.zeros((2, 3, 4)), sp) for make, _, _ in CONTAINERS.values()]
        for a in grids:
            for b in grids:
                assert a.check_grid(b, "other") is None


class TestExtractSlices:
    def test_axial_counts_and_geometry(self, rng):
        v = Volume3D(random_volume_data(rng, (4, 6, 8)), Spacing(3, 2, 1))
        stack = extract_slices(v, "axial")
        assert stack.shape == (4, 6, 8)
        assert all(np.array_equal(stack[k], v.data[k]) for k in range(4))

    def test_sagittal_counts_and_geometry(self, rng):
        v = Volume3D(random_volume_data(rng, (4, 6, 8)), Spacing(3, 2, 1))
        stack = extract_slices(v, "sagittal")
        assert stack.shape == (8, 4, 6)
        assert all(np.array_equal(stack[k], v.data[:, :, k]) for k in range(8))

    @pytest.mark.parametrize("plane", ["axial", "sagittal"])
    @pytest.mark.parametrize("make", [lambda a: Volume3D(a, Spacing(3, 2, 1)),
                                      lambda a: Mask3D(a > 0, Spacing(3, 2, 1))], ids=["Volume3D", "Mask3D"])
    def test_stack_is_a_read_only_view_of_the_volume(self, rng, make, plane):
        v = make(random_volume_data(rng, (4, 6, 8)))
        stack = extract_slices(v, plane)
        assert np.shares_memory(stack, v.data) and stack.dtype == v.data.dtype
        assert not stack.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            stack[0, 0, 0] = 1

    def test_voxel_relocation(self):
        data = np.zeros((4, 6, 8), dtype=np.float32)
        data[2, 3, 5] = 7.0
        v = Volume3D(data, Spacing(1, 1, 1))
        assert extract_slices(v, "axial")[2, 3, 5] == 7.0
        assert extract_slices(v, "sagittal")[5, 2, 3] == 7.0


class TestComposeSlices:
    @settings(max_examples=40, deadline=None)
    @given(
        d=st.integers(1, 5),
        h=st.integers(1, 5),
        w=st.integers(1, 5),
        plane=st.sampled_from(["axial", "sagittal"]),
        seed=st.integers(0, 2**31),
    )
    def test_roundtrip_bit_exact(self, d, h, w, plane, seed):
        rng = np.random.default_rng(seed)
        v = Volume3D(random_volume_data(rng, (d, h, w)), Spacing(2, 3, 4))
        out = compose_slices(extract_slices(v, plane), plane, v.dims, v.spacing)
        assert np.array_equal(out.data, v.data)

    def test_mask_roundtrip(self, rng):
        m = Mask3D(random_mask_data(rng, (5, 5, 5)), Spacing(1, 1, 1))
        out = compose_slices(extract_slices(m, "sagittal"), "sagittal", m.dims, m.spacing)
        assert isinstance(out, Volume3D)
        assert np.array_equal(out.data, m.data)
        assert np.array_equal(binarize(out).data, m.data)

    def test_prob_maps_compose(self):
        maps = 0.25 * np.arange(3, dtype=np.float32)[:, None, None] * np.ones((3, 4, 4), dtype=np.float32)
        out = compose_slices(maps, "axial", (3, 4, 4), Spacing(1, 1, 1))
        assert out.dims == (3, 4, 4)
        assert np.allclose(out.data[2], 0.5)

    def test_count_mismatch_rejected(self):
        stack = np.zeros((2, 4, 4), dtype=np.float32)
        with pytest.raises(GeometryError, match=r"needs a stack of shape \(3, 4, 4\), got \(2, 4, 4\)"):
            compose_slices(stack, "axial", (3, 4, 4), Spacing(1, 1, 1))

    def test_dims_mismatch_rejected(self):
        stack = np.zeros((3, 4, 5), dtype=np.float32)
        with pytest.raises(GeometryError, match=r"needs a stack of shape \(4, 3, 4\), got \(3, 4, 5\)"):
            compose_slices(stack, "sagittal", (3, 4, 4), Spacing(1, 1, 1))


class TestVoxelVolumeMl:
    def test_reference_threshold_volume(self, reference_spacing):
        assert voxel_volume_ml(reference_spacing, 10000) == pytest.approx(18.327, abs=1e-3)

    def test_zero_voxels(self, reference_spacing):
        assert voxel_volume_ml(reference_spacing, 0) == 0.0

    def test_unit_cube(self):
        assert voxel_volume_ml(Spacing(1, 1, 1), 1000) == pytest.approx(1.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            voxel_volume_ml(Spacing(1, 1, 1), -1)

    @settings(max_examples=40, deadline=None)
    @given(a=st.integers(0, 10**6), b=st.integers(0, 10**6))
    def test_linear_in_count(self, a, b):
        s = Spacing(2.0, 0.5, 1.5)
        assert voxel_volume_ml(s, a) + voxel_volume_ml(s, b) == pytest.approx(
            voxel_volume_ml(s, a + b), rel=1e-12
        )

    def test_multiplicative_in_spacing(self):
        assert voxel_volume_ml(Spacing(2, 1, 1), 500) == pytest.approx(
            2 * voxel_volume_ml(Spacing(1, 1, 1), 500)
        )


def prob_volume(data):
    return Volume3D(np.asarray(data, dtype=np.float32)[None], Spacing(1, 1, 1))


class TestBinarize:
    def test_boundary_is_inclusive(self):
        assert binarize(prob_volume(np.full((3, 3), 0.5)), 0.5).data.sum() == 9

    def test_below_threshold(self):
        assert binarize(prob_volume(np.full((3, 3), 0.49)), 0.5).data.sum() == 0

    def test_mixed_values(self):
        assert binarize(prob_volume([[0.2, 0.9]]), 0.5).data.tolist() == [[[0, 1]]]

    def test_volume_becomes_mask(self, rng):
        v = Volume3D(rng.uniform(0, 1, (3, 3, 3)).astype(np.float32), Spacing(1, 1, 1))
        out = binarize(v, 0.5)
        assert isinstance(out, Mask3D)
        assert np.array_equal(out.data, (v.data >= 0.5).astype(np.uint8))

    def test_compares_straight_into_the_mask(self, rng):
        v = Volume3D(rng.uniform(0, 1, (64, 128, 128)).astype(np.float32), Spacing(1, 1, 1))
        tracemalloc.start()
        try:
            out = binarize(v, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(out.data, (v.data >= 0.5).astype(np.uint8))
        assert peak <= 1.5 * out.data.nbytes, f"peak {peak / out.data.nbytes:.2f}x the mask"  # no bool copy

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5])
    def test_threshold_domain(self, bad):
        with pytest.raises(ValueError):
            binarize(prob_volume(np.zeros((2, 2))), bad)
