import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from c2fseg import (
    CropRecord,
    GeometryError,
    Mask3D,
    Slice2D,
    Spacing,
    Volume3D,
    crop_patch,
    resample_volume,
    resize_slice,
    uncrop_patch,
    unresize,
)
from data import random_mask_data, random_volume_data
from oracles import corner_blend_oracle, pad_then_crop_oracle, trilinear_oracle


def make_slice(data, ps=(1.0, 1.0)):
    return Slice2D(np.asarray(data, dtype=np.float32), ps)


class TestResampleVolume:
    def test_identity_is_bit_exact(self, rng):
        v = Volume3D(random_volume_data(rng, (3, 4, 5)), Spacing(2, 3, 4))
        out = resample_volume(v, Spacing(2, 3, 4), mode="trilinear")
        assert np.array_equal(out.data, v.data)
        m = Mask3D(random_mask_data(rng, (3, 4, 5)), Spacing(2, 3, 4))
        out_m = resample_volume(m, Spacing(2, 3, 4))
        assert np.array_equal(out_m.data, m.data)

    def test_halved_spacing_inserts_midpoint(self):
        v = Volume3D(np.array([0.0, 2.0]).reshape(2, 1, 1), Spacing(2, 1, 1))
        out = resample_volume(v, Spacing(1, 1, 1), mode="trilinear")
        assert out.dims == (4, 1, 1)
        assert out.data[1, 0, 0] == 1.0  # inserted sample halfway between 0 and 2
        assert out.data[0, 0, 0] == 0.0 and out.data[2, 0, 0] == 2.0

    def test_matches_pointwise_oracle(self, rng):
        for _ in range(5):
            dims = tuple(int(d) for d in rng.integers(2, 7, size=3))
            v = Volume3D(random_volume_data(rng, dims), Spacing(1.5, 0.8, 2.5))
            target = Spacing(1.0, 1.0, 1.0)
            out = resample_volume(v, target, mode="trilinear")
            ratios = tuple(t / s for s, t in zip(v.spacing.as_tuple(), target.as_tuple()))
            expected = trilinear_oracle(v.data, out.dims, ratios)
            np.testing.assert_allclose(out.data, expected, atol=1e-4)

    def test_output_spacing_is_target(self, rng, reference_spacing):
        v = Volume3D(random_volume_data(rng, (4, 8, 8)), Spacing(5.0, 1.0, 1.0))
        out = resample_volume(v, reference_spacing, mode="trilinear")
        assert out.spacing == reference_spacing

    def test_round_half_up_dims(self):
        v = Volume3D(np.zeros((3, 5, 2), dtype=np.float32), Spacing(1, 1, 1))
        out = resample_volume(v, Spacing(2, 2, 4), mode="trilinear")
        # 3/2 -> 2, 5/2 -> 3 (2.5 rounds up), 2/4 -> 1 (0.5 rounds up)
        assert out.dims == (2, 3, 1)

    def test_nearest_keeps_mask_binary(self, rng):
        m = Mask3D(random_mask_data(rng, (4, 6, 6)), Spacing(3, 1, 1))
        out = resample_volume(m, Spacing(1, 1, 1))
        assert isinstance(out, Mask3D)
        assert set(np.unique(out.data)).issubset({0, 1})

    def test_trilinear_on_mask_rejected(self, rng):
        m = Mask3D(random_mask_data(rng, (4, 4, 4)), Spacing(1, 1, 1))
        with pytest.raises(ValueError, match="nearest"):
            resample_volume(m, Spacing(2, 2, 2), mode="trilinear")

    @settings(max_examples=30, deadline=None)
    @given(
        value=st.floats(min_value=-50, max_value=50, allow_nan=False).filter(lambda v: v != 0),
        sa=st.floats(0.5, 4.0),
        sb=st.floats(0.5, 4.0),
    )
    def test_constant_roundtrip_exact(self, value, sa, sb):
        const = np.float32(value)
        v = Volume3D(np.full((3, 4, 5), const), Spacing(sa, sa, sa))
        there = resample_volume(v, Spacing(sb, sb, sb), mode="trilinear")
        back = resample_volume(there, Spacing(sa, sa, sa), mode="trilinear", target_dims=(3, 4, 5))
        assert np.all(back.data == const)

    def test_forced_target_dims(self, rng):
        v = Volume3D(random_volume_data(rng, (5, 5, 5)), Spacing(1, 1, 1))
        out = resample_volume(v, Spacing(2, 2, 2), mode="trilinear", target_dims=(5, 5, 5))
        assert out.dims == (5, 5, 5)


class TestResizeSlice:
    def test_identity(self, rng):
        s = make_slice(rng.uniform(size=(7, 9)))
        out, rec = resize_slice(s, (7, 9))
        assert np.array_equal(out.data, s.data)
        assert rec.original_dims == (7, 9) and rec.target_dims == (7, 9)

    def test_pixel_spacing_rescales_by_dim_ratio(self, rng):
        s = make_slice(rng.uniform(size=(512, 512)), ps=(0.7816, 0.7816))
        out, _ = resize_slice(s, (128, 128))
        assert out.dims == (128, 128)
        assert out.pixel_spacing[0] == pytest.approx(0.7816 * 512 / 128)

    def test_constant_preserved(self):
        s = make_slice(np.full((10, 6), 3.25))
        out, _ = resize_slice(s, (4, 15))
        assert np.all(out.data == np.float32(3.25))

    def test_nearest_keeps_labels_binary(self, rng):
        s = make_slice((rng.uniform(size=(9, 9)) < 0.5).astype(np.float32))
        out, _ = resize_slice(s, (5, 5), mode="nearest")
        assert set(np.unique(out.data)).issubset({0.0, 1.0})

    def test_unknown_mode_rejected(self, rng):
        s = make_slice(rng.uniform(size=(8, 8)))
        with pytest.raises(ValueError, match="unknown resize mode 'bilnear'"):
            resize_slice(s, (4, 4), mode="bilnear")
        small, rec = resize_slice(s, (4, 4))
        with pytest.raises(ValueError, match="unknown resize mode 'bilnear'"):
            unresize(small, rec, mode="bilnear")


class TestUnresize:
    def test_dims_mismatch_rejected(self, rng):
        s = make_slice(rng.uniform(size=(8, 8)))
        _, rec = resize_slice(s, (4, 4))
        bad = make_slice(np.zeros((5, 5)))
        with pytest.raises(GeometryError):
            unresize(bad, rec)

    def test_restores_geometry(self, rng):
        s = make_slice(rng.uniform(size=(10, 12)), ps=(0.5, 0.25))
        small, rec = resize_slice(s, (5, 6))
        back = unresize(small, rec)
        assert back.dims == (10, 12)
        assert back.pixel_spacing == (0.5, 0.25)

    def test_constant_roundtrip_exact(self):
        s = make_slice(np.full((12, 12), 0.625))
        small, rec = resize_slice(s, (6, 6))
        back = unresize(small, rec)
        assert np.all(back.data == np.float32(0.625))

    def test_square_mask_roundtrip_dsc(self):
        # 12x12 centred square in 32x32, nearest both ways through 16x16.
        # Pixel-count oracle: dice computed directly from the arrays.
        mask = np.zeros((32, 32), dtype=np.float32)
        mask[10:22, 10:22] = 1.0
        s = make_slice(mask)
        small, rec = resize_slice(s, (16, 16), mode="nearest")
        back = unresize(small, rec, mode="nearest")
        inter = float((back.data * mask).sum())
        dice = 2 * inter / float(back.data.sum() + mask.sum())
        assert dice >= 0.8
        assert dice == pytest.approx(0.8402777777777778)  # frozen from the oracle count

    def test_mm_sizes_match_reference_pipeline(self, rng):
        s = make_slice(rng.uniform(size=(512, 512)), ps=(0.7816, 0.7816))
        small, rec = resize_slice(s, (128, 128))
        assert unresize(small, rec).dims == (512, 512)


class TestInversesKeepType:
    """Both inverses hand back a Slice2D at the source dims."""

    @pytest.mark.parametrize("cls", [Slice2D])
    @pytest.mark.parametrize("target", [(4, 6), (8, 12)], ids=["resized", "same_dims"])
    def test_unresize(self, rng, cls, target):
        small, rec = resize_slice(make_slice(rng.uniform(size=(8, 12))), target)
        back = unresize(cls(small.data, small.pixel_spacing), rec)
        assert type(back) is cls and back.dims == (8, 12)

    @pytest.mark.parametrize("cls", [Slice2D])
    def test_uncrop_patch(self, rng, cls):
        patch, rec = crop_patch(make_slice(rng.uniform(size=(8, 12))), (1, 10), (6, 6))
        back = uncrop_patch(cls(patch.data, patch.pixel_spacing), rec)
        assert type(back) is cls and back.dims == (8, 12)


# Finite float32 values, with signed zeros and the extremes drawn often.
_F32 = st.one_of(
    st.sampled_from([-0.0, 0.0, 1.0, -3.4e38, 3.4e38, 1e-45]),
    st.floats(width=32, allow_nan=False, allow_infinity=False),
)
# Few distinct values, so equal source and target spacings (ratio-1 axes) are common.
_MM = st.sampled_from([0.5, 0.7816, 0.8, 1.0, 2.5, 3.0])


def _dims(n, hi=6):
    return st.tuples(*[st.integers(1, hi)] * n)


class TestSeparableMatchesCornerBlend:
    """The separable resampler is byte-identical to the 2^n-corner blend."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), is_mask=st.booleans(), nearest=st.booleans())
    def test_resample_volume(self, data, is_mask, nearest):
        dims = data.draw(_dims(3))
        spacing, target = (Spacing(*data.draw(st.tuples(_MM, _MM, _MM))) for _ in range(2))
        if is_mask:
            vol = Mask3D(data.draw(hnp.arrays(np.uint8, dims, elements=st.integers(0, 1))), spacing)
        else:
            vol = Volume3D(data.draw(hnp.arrays(np.float32, dims, elements=_F32, fill=st.nothing())), spacing)
        forced = data.draw(st.none() | _dims(3, hi=8))
        linear = not (is_mask or nearest)
        out = resample_volume(vol, target, mode="trilinear" if linear else "nearest", target_dims=forced)
        if out.dims == vol.dims and target == vol.spacing:
            expected = vol.data  # already on the target grid: handed back untouched
        else:
            ratios = tuple(t / s for s, t in zip(vol.spacing.as_tuple(), target.as_tuple()))
            expected = corner_blend_oracle(vol.data, out.dims, ratios, linear)
        assert out.data.dtype == expected.dtype
        assert out.data.tobytes() == expected.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), mode=st.sampled_from(["bilinear", "nearest"]), prob=st.booleans())
    def test_resize_and_unresize(self, data, mode, prob):
        dims = data.draw(_dims(2, hi=9))
        target = data.draw(_dims(2, hi=9))
        linear = mode == "bilinear"
        s = make_slice(data.draw(hnp.arrays(np.float32, dims, elements=_F32, fill=st.nothing())))
        small, rec = resize_slice(s, target, mode=mode)
        ratios = (dims[0] / target[0], dims[1] / target[1])
        expected = s.data if target == dims else corner_blend_oracle(s.data, target, ratios, linear)
        assert small.data.tobytes() == expected.tobytes()

        # probabilities, signed zeros included, or any finite values
        cells = st.one_of(st.sampled_from([-0.0, 0.0, 1.0]), st.floats(0.0, 1.0, width=32)) if prob else _F32
        p = make_slice(data.draw(hnp.arrays(np.float32, target, elements=cells, fill=st.nothing())))
        back = unresize(p, rec, mode=mode)
        if target == dims:
            expected = p.data
        else:
            inv = (target[0] / dims[0], target[1] / dims[1])
            expected = corner_blend_oracle(p.data, dims, inv, linear)
        assert back.data.tobytes() == expected.tobytes()


    def test_ratio_one_axes_are_still_lerped(self):
        # W and H keep their spacing; lerping them with f = 0 turns the -0.0
        # next to 1.0 into +0.0, which the D lerp then keeps.
        data = np.array([-0.0, 1.0, -1.0, 1.0], dtype=np.float32).reshape(2, 1, 2)
        vol = Volume3D(data, Spacing(1, 1, 1))
        out = resample_volume(vol, Spacing(0.5, 1, 1), mode="trilinear")
        expected = corner_blend_oracle(data, out.dims, (0.5, 1.0, 1.0), True)
        assert out.data.tobytes() == expected.tobytes()
        assert out.data[0, 0, 0] == 0.0 and not np.signbit(out.data[0, 0, 0])


class TestResampleMemory:
    def test_trilinear_peak_within_8x_input(self):
        rng = np.random.default_rng(0)
        vol = Volume3D(rng.standard_normal((32, 192, 192)).astype(np.float32), Spacing(2.5, 0.8, 0.8))
        tracemalloc.start()
        try:
            resample_volume(vol, Spacing(3.0, 0.7816, 0.7816), mode="trilinear")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * vol.data.nbytes, f"peak {peak / vol.data.nbytes:.1f}x the input"


class TestCropPatch:
    def test_reference_window_arithmetic(self, rng):
        s = make_slice(rng.uniform(size=(512, 512)))
        patch, rec = crop_patch(s, (256, 256), (160, 160))
        assert np.array_equal(patch.data, s.data[176:336, 176:336])
        assert rec.pad == (0, 0, 0, 0)

    def test_corner_crop_matches_pad_oracle(self, rng):
        s = make_slice(rng.uniform(size=(8, 8)))
        patch, rec = crop_patch(s, (0, 0), (4, 4))
        assert rec.pad == (2, 0, 2, 0)
        expected = pad_then_crop_oracle(s.data, (0, 0), (4, 4))
        assert np.array_equal(patch.data, expected)

    def test_full_window_is_identity(self, rng):
        s = make_slice(rng.uniform(size=(8, 8)))
        patch, rec = crop_patch(s, (4, 4), (8, 8))
        assert np.array_equal(patch.data, s.data)
        assert rec.pad == (0, 0, 0, 0)

    def test_random_windows_match_oracle(self, rng):
        for _ in range(50):
            rows, cols = rng.integers(2, 12, size=2)
            s = make_slice(rng.uniform(size=(rows, cols)))
            center = (int(rng.integers(0, rows)), int(rng.integers(0, cols)))
            pd = (int(rng.integers(1, 10)), int(rng.integers(1, 10)))
            patch, _ = crop_patch(s, center, pd)
            assert np.array_equal(patch.data, pad_then_crop_oracle(s.data, center, pd))

    def test_pixel_spacing_unchanged(self, rng):
        s = make_slice(rng.uniform(size=(16, 16)), ps=(0.5, 2.0))
        patch, _ = crop_patch(s, (8, 8), (4, 4))
        assert patch.pixel_spacing == (0.5, 2.0)

    def test_center_outside_rejected(self, rng):
        s = make_slice(rng.uniform(size=(8, 8)))
        with pytest.raises(GeometryError):
            crop_patch(s, (8, 0), (4, 4))


class TestUncropPatch:
    def test_all_ones_patch_placement(self):
        patch = make_slice(np.ones((4, 4)))
        rec = CropRecord((4, 4), (4, 4), (8, 8), (0, 0, 0, 0))
        out = uncrop_patch(patch, rec)
        assert out.data.sum() == 16
        assert np.array_equal(out.data[2:6, 2:6], np.ones((4, 4), dtype=np.float32))

    def test_padded_pixels_discarded(self, rng):
        s = make_slice(rng.uniform(1.0, 2.0, size=(6, 6)))
        patch, rec = crop_patch(s, (0, 5), (4, 4))
        marked = Slice2D(np.where(patch.data == 0, 9.0, patch.data), patch.pixel_spacing)
        out = uncrop_patch(marked, rec)
        assert not np.any(out.data == 9.0)

    @settings(max_examples=60, deadline=None)
    @given(
        center_r=st.integers(0, 15),
        center_c=st.integers(0, 15),
        pr=st.integers(1, 20),
        pc=st.integers(1, 20),
        seed=st.integers(0, 2**31),
    )
    def test_identity_on_window_zero_outside(self, center_r, center_c, pr, pc, seed):
        rng = np.random.default_rng(seed)
        s = make_slice((rng.uniform(size=(16, 16)) < 0.5).astype(np.float32))
        patch, rec = crop_patch(s, (center_r, center_c), (pr, pc))
        out = uncrop_patch(patch, rec)
        r0, c0 = center_r - pr // 2, center_c - pc // 2
        expected = np.zeros((16, 16), dtype=np.float32)
        rr0, rr1 = max(0, r0), min(16, r0 + pr)
        cc0, cc1 = max(0, c0), min(16, c0 + pc)
        if rr0 < rr1 and cc0 < cc1:
            expected[rr0:rr1, cc0:cc1] = s.data[rr0:rr1, cc0:cc1]
        assert np.array_equal(out.data, expected)

    def test_dims_mismatch_rejected(self):
        rec = CropRecord((4, 4), (4, 4), (8, 8), (0, 0, 0, 0))
        with pytest.raises(GeometryError):
            uncrop_patch(make_slice(np.zeros((3, 3))), rec)

    def test_record_validates_pad(self):
        with pytest.raises(ValueError, match="pad"):
            CropRecord((4, 4), (4, 4), (8, 8), (1, 0, 0, 0))
