import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c2fseg import (
    GeometryError,
    Mask3D,
    Slice2D,
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
        with pytest.raises(ValueError):
            Mask3D(data, Spacing(1, 1, 1))

    def test_immutability(self, rng):
        v = Volume3D(random_volume_data(rng, (2, 3, 4)), Spacing(1, 1, 1))
        with pytest.raises(ValueError):
            v.data[0, 0, 0] = 1.0

    def test_slice_is_read_only_float32(self):
        s = Slice2D(np.array([[0.0, 0.5], [1.0, 0.25]]), (0.5, 2))
        assert s.data.dtype == np.float32 and not s.data.flags.writeable
        assert (s.dims, s.pixel_spacing) == ((2, 2), (0.5, 2.0))


class TestExtractSlices:
    def test_axial_counts_and_geometry(self, rng):
        v = Volume3D(random_volume_data(rng, (4, 6, 8)), Spacing(3, 2, 1))
        slices = extract_slices(v, "axial")
        assert len(slices) == 4
        assert all(s.dims == (6, 8) for s in slices)
        assert all(s.pixel_spacing == (2.0, 1.0) for s in slices)
        assert all(np.array_equal(s.data, v.data[k]) for k, s in enumerate(slices))

    def test_sagittal_counts_and_geometry(self, rng):
        v = Volume3D(random_volume_data(rng, (4, 6, 8)), Spacing(3, 2, 1))
        slices = extract_slices(v, "sagittal")
        assert len(slices) == 8
        assert all(s.dims == (4, 6) for s in slices)
        assert all(s.pixel_spacing == (3.0, 2.0) for s in slices)
        assert all(np.array_equal(s.data, v.data[:, :, k]) for k, s in enumerate(slices))

    def test_voxel_relocation(self):
        data = np.zeros((4, 6, 8), dtype=np.float32)
        data[2, 3, 5] = 7.0
        v = Volume3D(data, Spacing(1, 1, 1))
        assert extract_slices(v, "axial")[2].data[3, 5] == 7.0
        assert extract_slices(v, "sagittal")[5].data[2, 3] == 7.0


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
        maps = [
            Slice2D(np.full((4, 4), 0.25 * k, dtype=np.float32), (1, 1))
            for k in range(3)
        ]
        out = compose_slices(maps, "axial", (3, 4, 4), Spacing(1, 1, 1))
        assert out.dims == (3, 4, 4)
        assert np.allclose(out.data[2], 0.5)

    def test_count_mismatch_rejected(self):
        slices = [Slice2D(np.zeros((4, 4), dtype=np.float32), (1, 1)) for _ in range(2)]
        with pytest.raises(GeometryError, match="needs 3 slices"):
            compose_slices(slices, "axial", (3, 4, 4), Spacing(1, 1, 1))

    def test_dims_mismatch_rejected(self):
        slices = [Slice2D(np.zeros((4, 5), dtype=np.float32), (1, 1)) for _ in range(3)]
        with pytest.raises(GeometryError, match="dims"):
            compose_slices(slices, "axial", (3, 4, 4), Spacing(1, 1, 1))


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

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5])
    def test_threshold_domain(self, bad):
        with pytest.raises(ValueError):
            binarize(prob_volume(np.zeros((2, 2))), bad)
