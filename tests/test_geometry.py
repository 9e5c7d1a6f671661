import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import c2fseg.geometry
import c2fseg.parallel
from c2fseg import (
    CropRecord,
    GeometryError,
    Mask3D,
    ResizeRecord,
    Spacing,
    Volume3D,
    crop_patch,
    resample_volume,
    resize_slice,
    uncrop_patch,
    unresize,
)
from data import random_mask_data, random_volume_data
from oracles import corner_blend_oracle, crop_window_oracle, pad_then_crop_oracle, trilinear_oracle


def make_slice(data):
    return np.asarray(data, dtype=np.float32)


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
        assert np.array_equal(out, s)
        assert rec.original_dims == (7, 9) and rec.target_dims == (7, 9)

    def test_constant_preserved(self):
        s = make_slice(np.full((10, 6), 3.25))
        out, _ = resize_slice(s, (4, 15))
        assert np.all(out == np.float32(3.25))

    def test_nearest_keeps_labels_binary(self, rng):
        s = make_slice((rng.uniform(size=(9, 9)) < 0.5).astype(np.float32))
        out, _ = resize_slice(s, (5, 5), mode="nearest")
        assert set(np.unique(out)).issubset({0.0, 1.0})

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
        s = make_slice(rng.uniform(size=(10, 12)))
        small, rec = resize_slice(s, (5, 6))
        back = unresize(small, rec)
        assert back.shape == (10, 12)

    def test_constant_roundtrip_exact(self):
        s = make_slice(np.full((12, 12), 0.625))
        small, rec = resize_slice(s, (6, 6))
        back = unresize(small, rec)
        assert np.all(back == np.float32(0.625))

    def test_square_mask_roundtrip_dsc(self):
        # 12x12 centred square in 32x32, nearest both ways through 16x16.
        # Pixel-count oracle: dice computed directly from the arrays.
        mask = np.zeros((32, 32), dtype=np.float32)
        mask[10:22, 10:22] = 1.0
        s = make_slice(mask)
        small, rec = resize_slice(s, (16, 16), mode="nearest")
        back = unresize(small, rec, mode="nearest")
        inter = float((back * mask).sum())
        dice = 2 * inter / float(back.sum() + mask.sum())
        assert dice >= 0.8
        assert dice == pytest.approx(0.8402777777777778)  # frozen from the oracle count

    def test_mm_sizes_match_reference_pipeline(self, rng):
        s = make_slice(rng.uniform(size=(512, 512)))
        small, rec = resize_slice(s, (128, 128))
        assert unresize(small, rec).shape == (512, 512)


class TestSliceArrays:
    """The four slice transforms take a non-empty (H, W) plane or (N, H, W) stack, and nothing else."""

    TRANSFORMS = {
        "resize_slice": lambda a: resize_slice(a, (2, 2)),
        "unresize": lambda a: unresize(a, ResizeRecord((2, 2), (2, 2))),
        "crop_patch": lambda a: crop_patch(a, (0, 0), (2, 2)),
        "uncrop_patch": lambda a: uncrop_patch(a, CropRecord((1, 1), (2, 2), (2, 2))),
    }

    @pytest.mark.parametrize("shape", [(4,), (1, 2, 2, 2), (0, 2, 2), (2, 0)],
                             ids=["1d", "4d", "empty_stack", "empty_plane"])
    @pytest.mark.parametrize("name", sorted(TRANSFORMS))
    def test_other_shapes_rejected(self, name, shape):
        with pytest.raises(GeometryError, match=r"non-empty 2D plane or 3D stack, got shape"):
            self.TRANSFORMS[name](np.zeros(shape, dtype=np.float32))

    @pytest.mark.parametrize("mode", ["bilinear", "nearest"])
    @pytest.mark.parametrize("shape", [(5, 7), (3, 5, 7)], ids=["plane", "stack"])
    def test_equal_dims_hand_back_the_input_values(self, rng, mode, shape):
        a = rng.standard_normal(shape).astype(np.float32)
        a.flat[::4] = -0.0
        same, rec = resize_slice(a, (5, 7), mode=mode)
        assert same.shape == a.shape and same.tobytes() == a.tobytes()
        back = unresize(a, rec, mode=mode)
        assert back.shape == a.shape and back.tobytes() == a.tobytes()


class TestInversesKeepType:
    """Both inverses hand back an ndarray at the source dims."""

    @pytest.mark.parametrize("target", [(4, 6), (8, 12)], ids=["resized", "same_dims"])
    def test_unresize(self, rng, target):
        small, rec = resize_slice(make_slice(rng.uniform(size=(8, 12))), target)
        back = unresize(small, rec)
        assert type(back) is np.ndarray and back.shape == (8, 12)

    def test_uncrop_patch(self, rng):
        patch, rec = crop_patch(make_slice(rng.uniform(size=(8, 12))), (1, 10), (6, 6))
        back = uncrop_patch(patch, rec)
        assert type(back) is np.ndarray and back.shape == (8, 12)


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
        expected = s if target == dims else corner_blend_oracle(s, target, ratios, linear)
        assert small.tobytes() == expected.tobytes()

        # probabilities, signed zeros included, or any finite values
        cells = st.one_of(st.sampled_from([-0.0, 0.0, 1.0]), st.floats(0.0, 1.0, width=32)) if prob else _F32
        p = make_slice(data.draw(hnp.arrays(np.float32, target, elements=cells, fill=st.nothing())))
        back = unresize(p, rec, mode=mode)
        if target == dims:
            expected = p
        else:
            inv = (target[0] / dims[0], target[1] / dims[1])
            expected = corner_blend_oracle(p, dims, inv, linear)
        assert back.tobytes() == expected.tobytes()

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), case=st.sampled_from(["one input plane", "one output plane", "upsampled depth"]),
           linear=st.booleans())
    def test_plane_loop_edge_paths(self, data, case, linear):
        # The loop's edge paths: a one-plane input, a one-plane output, and D
        # indices that repeat (each input plane serves several output planes).
        # H and W often keep their spacing, so only the lerps decide the sign
        # of the -0.0 cells.
        nd = 1 if case == "one input plane" else data.draw(st.integers(2, 5))
        cells = st.one_of(st.sampled_from([-0.0, -0.0, 0.0, 1.0, -1.0]), _F32)
        src = data.draw(hnp.arrays(np.float32, (nd, *data.draw(_dims(2))), elements=cells, fill=st.nothing()))
        out_d = {"one input plane": data.draw(st.integers(1, 4)), "one output plane": 1,
                 "upsampled depth": data.draw(st.integers(nd + 1, 3 * nd))}[case]
        rd = data.draw(st.sampled_from([0.25, 0.4, 0.5]) if case == "upsampled depth" else _MM)
        rh, rw = data.draw(st.tuples(*[st.sampled_from([1.0, 1.0, 0.5, 0.8, 2.5])] * 2))
        dims = (out_d, *data.draw(st.sampled_from([src.shape[1:], (1, 1)]) | _dims(2, hi=8)))
        vol = Volume3D(src, Spacing(1.0, 1.0, 1.0))
        out = resample_volume(vol, Spacing(rd, rh, rw), mode="trilinear" if linear else "nearest", target_dims=dims)
        if out.dims == vol.dims and (rd, rh, rw) == (1.0, 1.0, 1.0):
            expected = vol.data  # already on the target grid: handed back untouched
        else:
            expected = corner_blend_oracle(src, dims, Spacing(rd, rh, rw).as_tuple(), linear)
        assert out.data.dtype == expected.dtype
        assert out.data.tobytes() == expected.tobytes()

    def test_ratio_one_axes_are_still_lerped(self):
        # W and H keep their spacing; lerping them with f = 0 turns the -0.0
        # next to 1.0 into +0.0, which the D lerp then keeps.
        data = np.array([-0.0, 1.0, -1.0, 1.0], dtype=np.float32).reshape(2, 1, 2)
        vol = Volume3D(data, Spacing(1, 1, 1))
        out = resample_volume(vol, Spacing(0.5, 1, 1), mode="trilinear")
        expected = corner_blend_oracle(data, out.dims, (0.5, 1.0, 1.0), True)
        assert out.data.tobytes() == expected.tobytes()
        assert out.data[0, 0, 0] == 0.0 and not np.signbit(out.data[0, 0, 0])


class TestStacksMatchPlanes:
    """Each slice transform does to an (N, H, W) stack what it does to every plane, byte for byte."""

    @staticmethod
    def stack(data, dims):
        n = data.draw(st.integers(1, 4))
        return data.draw(hnp.arrays(np.float32, (n, *dims), elements=_F32, fill=st.nothing()))

    @staticmethod
    def check(stack_out, plane_outs):
        assert stack_out.tobytes() == np.stack(plane_outs).tobytes()

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), mode=st.sampled_from(["bilinear", "nearest"]))
    def test_resize_and_unresize(self, data, mode):
        dims, target = data.draw(_dims(2, hi=9)), data.draw(_dims(2, hi=9))
        stack = self.stack(data, dims)
        small, rec = resize_slice(stack, target, mode=mode)
        planes = [resize_slice(p, target, mode=mode) for p in stack]
        assert all(r == rec for _, r in planes)
        self.check(small, [p for p, _ in planes])
        probs = self.stack(data, target)
        self.check(unresize(probs, rec, mode=mode), [unresize(p, rec, mode=mode) for p in probs])

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_crop_and_uncrop(self, data):
        rows, cols = data.draw(_dims(2, hi=9))
        center = (data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, cols - 1)))
        patch_dims = data.draw(_dims(2, hi=12))  # often larger than the source: padded on some side
        stack = self.stack(data, (rows, cols))
        patch, rec = crop_patch(stack, center, patch_dims)
        planes = [crop_patch(p, center, patch_dims) for p in stack]
        assert all(r == rec for _, r in planes)
        self.check(patch, [p for p, _ in planes])
        probs = self.stack(data, patch_dims)
        self.check(uncrop_patch(probs, rec), [uncrop_patch(p, rec) for p in probs])

    @pytest.mark.parametrize("n", [1, 3])
    def test_signed_zeros_and_padding(self, n):
        plane = np.array([[-0.0, 1.0, -0.0], [-0.0, -0.0, 2.0]], dtype=np.float32)
        stack = np.stack([plane * (k + 1) for k in range(n)])
        for mode in ("bilinear", "nearest"):
            small, rec = resize_slice(stack, (3, 5), mode=mode)
            self.check(small, [resize_slice(p, (3, 5), mode=mode)[0] for p in stack])
            if mode == "nearest":  # copies -0.0 through; bilinear's lerp turns it into +0.0
                assert np.signbit(small).any()
            self.check(unresize(small, rec, mode=mode), [unresize(p, rec, mode=mode) for p in small])
        patch, rec = crop_patch(stack, (0, 2), (4, 4))
        assert rec.pad == (2, 0, 0, 1)
        self.check(patch, [crop_patch(p, (0, 2), (4, 4))[0] for p in stack])
        self.check(uncrop_patch(patch, rec), [uncrop_patch(p, rec) for p in patch])


class TestRecordsOwnTheirArithmetic:
    """A crop record alone places its window, and unresize is a resize back to the recorded dims."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_crop_record_matches_longhand_window(self, data):
        source_dims = data.draw(_dims(2, hi=12))
        center = tuple(data.draw(st.integers(0, n - 1)) for n in source_dims)
        patch_dims = data.draw(_dims(2, hi=30))  # often larger than the source: padded on both sides
        rec = CropRecord(center, patch_dims, source_dims)
        pad, source, inside = crop_window_oracle(center, patch_dims, source_dims)
        assert rec.pad == pad
        assert rec.windows == (source, inside)

        s = data.draw(hnp.arrays(np.float32, source_dims, elements=_F32, fill=st.nothing()))
        patch, crop_rec = crop_patch(s, center, patch_dims)
        assert crop_rec == rec
        assert patch.tobytes() == pad_then_crop_oracle(s, center, patch_dims).tobytes()
        expected = np.zeros(source_dims, dtype=np.float32)
        expected[source] = s[source]
        assert uncrop_patch(patch, rec).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("make", [lambda c, p: CropRecord(c, p, (8, 8)),
                                      lambda c, p: crop_patch(np.zeros((8, 8), dtype=np.float32), c, p)],
                             ids=["record", "crop_patch"])
    def test_bad_windows_rejected(self, make):
        for center in [(8, 0), (0, 8), (-1, 3)]:
            with pytest.raises(GeometryError, match=f"^{re.escape(f'center {center} outside source dims (8, 8)')}$"):
                make(center, (4, 4))
        for dims in [(0, 4), (4, -1)]:
            with pytest.raises(ValueError, match=f"^{re.escape(f'patch dims must be positive, got {dims}')}$") as exc:
                make((4, 4), dims)
            assert type(exc.value) is ValueError

    def test_crop_record_casts_to_int(self):
        rec = CropRecord((np.int64(3), 2.0), [4, np.int32(5)], np.array([8, 9]))
        plain = CropRecord((3, 2), (4, 5), (8, 9))
        assert rec == plain and hash(rec) == hash(plain)
        assert all(type(v) is int for v in rec.center + rec.patch_dims + rec.source_dims)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), mode=st.sampled_from(["bilinear", "nearest"]), n=st.sampled_from([None, 1, 3]))
    def test_unresize_is_a_resize_back(self, data, mode, n):
        dims, target = data.draw(_dims(2, hi=9)), data.draw(_dims(2, hi=9))
        _, rec = resize_slice(np.zeros(dims, dtype=np.float32), target, mode=mode)
        cells = st.one_of(st.sampled_from([-0.0, -0.0, 0.0, 1.0]), _F32)
        shape = target if n is None else (n, *target)
        p = data.draw(hnp.arrays(np.float32, shape, elements=cells, fill=st.nothing()))
        assert unresize(p, rec, mode).tobytes() == resize_slice(p, rec.original_dims, mode)[0].tobytes()


class TestSplitPlaneLoop:
    """With ``parallel``'s gate forced open, the plane loop runs its chunks on 1-3 CPUs and returns
    the corner blend's bytes. The D ratios repeat input planes, so adjacent chunks need the same
    input plane and each resamples it on its own."""

    @pytest.fixture
    def split(self, monkeypatch, cpus):
        """``split(n_cpus, call)``: ``call()``'s result, after checking that no pool thread outlives it
        and that with more than one CPU some plane was resampled on a pool thread."""
        monkeypatch.setattr(c2fseg.parallel, "_SERIAL_PLANE_S", 0.0)
        names = set()
        resample_plane = c2fseg.geometry._resample_plane

        def recording(*args):
            names.add(threading.current_thread().name)
            return resample_plane(*args)

        monkeypatch.setattr(c2fseg.geometry, "_resample_plane", recording)

        def run(n_cpus, call):
            cpus(n_cpus)
            names.clear()
            out = call()
            assert [t for t in threading.enumerate() if t.name.startswith("c2fseg-batch")] == []
            assert any(name.startswith("c2fseg-batch") for name in names) == (n_cpus > 1)
            return out

        return run

    @staticmethod
    def planes_oracle(stack, target, linear):
        ratios = (stack.shape[1] / target[0], stack.shape[2] / target[1])
        return np.stack([corner_blend_oracle(p, target, ratios, linear) for p in stack])

    @pytest.mark.parametrize("n_cpus", [1, 2, 3])
    def test_trilinear_volume(self, rng, split, n_cpus):
        vol = Volume3D(random_volume_data(rng, (7, 9, 11)), Spacing(1.0, 1.0, 1.0))
        # 13 output planes, plane k reading input planes floor(0.55k) and the next. Planes 0 and 1,
        # 6 and 7 (2 CPUs), and 4 and 5 and 8 and 9 (3 CPUs) share their inputs across a chunk boundary.
        target = Spacing(0.55, 0.8, 1.3)
        out = split(n_cpus, lambda: resample_volume(vol, target, mode="trilinear"))
        assert out.dims == (13, 11, 8)
        assert out.data.tobytes() == corner_blend_oracle(vol.data, out.dims, target.as_tuple(), True).tobytes()

    @pytest.mark.parametrize("n_cpus", [1, 2, 3])
    def test_nearest_mask_onto_given_dims(self, rng, split, n_cpus):
        mask = Mask3D(random_mask_data(rng, (5, 8, 6), p=0.4), Spacing(1.0, 1.0, 1.0))
        # Output planes read input planes 0 0 1 1 2 2 3 3 4 4 4: planes 0 and 1, and with 3 CPUs 6 and 7,
        # read the same input plane across a chunk boundary.
        dims = (11, 7, 9)
        target = Spacing(0.45, 1.1, 0.7)
        out = split(n_cpus, lambda: resample_volume(mask, target, mode="nearest", target_dims=dims))
        assert out.data.tobytes() == corner_blend_oracle(mask.data, dims, target.as_tuple(), False).tobytes()

    @pytest.mark.parametrize("n_cpus", [1, 2, 3])
    @pytest.mark.parametrize("mode", ["bilinear", "nearest"])
    def test_resize_and_unresize(self, rng, split, n_cpus, mode):
        linear = mode == "bilinear"
        stack = random_volume_data(rng, (5, 9, 7))
        small, rec = split(n_cpus, lambda: resize_slice(stack, (4, 6), mode=mode))
        assert small.tobytes() == self.planes_oracle(stack, (4, 6), linear).tobytes()
        probs = rng.uniform(size=(7, 4, 6)).astype(np.float32)
        back = split(n_cpus, lambda: unresize(probs, rec, mode=mode))
        assert back.tobytes() == self.planes_oracle(probs, (9, 7), linear).tobytes()


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

    @pytest.mark.parametrize("mode", ["trilinear", "nearest"])
    def test_peak_within_1_5x_output(self, mode):
        # One plane at a time: only the output and a few planes are ever held.
        rng = np.random.default_rng(1)
        vol = Volume3D(rng.standard_normal((48, 96, 96)).astype(np.float32), Spacing(2.5, 0.8, 0.8))
        tracemalloc.start()
        try:
            out = resample_volume(vol, Spacing(3.0, 0.7816, 0.7816), mode=mode)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.dims == (40, 98, 98)
        assert peak <= 1.5 * out.data.nbytes, f"peak {peak / out.data.nbytes:.2f}x the output"


class TestCropPatch:
    def test_reference_window_arithmetic(self, rng):
        s = make_slice(rng.uniform(size=(512, 512)))
        patch, rec = crop_patch(s, (256, 256), (160, 160))
        assert np.array_equal(patch, s[176:336, 176:336])
        assert rec.pad == (0, 0, 0, 0)

    def test_corner_crop_matches_pad_oracle(self, rng):
        s = make_slice(rng.uniform(size=(8, 8)))
        patch, rec = crop_patch(s, (0, 0), (4, 4))
        assert rec.pad == (2, 0, 2, 0)
        expected = pad_then_crop_oracle(s, (0, 0), (4, 4))
        assert np.array_equal(patch, expected)

    def test_full_window_is_identity(self, rng):
        s = make_slice(rng.uniform(size=(8, 8)))
        patch, rec = crop_patch(s, (4, 4), (8, 8))
        assert np.array_equal(patch, s)
        assert rec.pad == (0, 0, 0, 0)

    def test_random_windows_match_oracle(self, rng):
        for _ in range(50):
            rows, cols = rng.integers(2, 12, size=2)
            s = make_slice(rng.uniform(size=(rows, cols)))
            center = (int(rng.integers(0, rows)), int(rng.integers(0, cols)))
            pd = (int(rng.integers(1, 10)), int(rng.integers(1, 10)))
            patch, _ = crop_patch(s, center, pd)
            assert np.array_equal(patch, pad_then_crop_oracle(s, center, pd))

    def test_center_outside_rejected(self, rng):
        s = make_slice(rng.uniform(size=(8, 8)))
        with pytest.raises(GeometryError):
            crop_patch(s, (8, 0), (4, 4))


class TestUncropPatch:
    def test_all_ones_patch_placement(self):
        patch = make_slice(np.ones((4, 4)))
        rec = CropRecord((4, 4), (4, 4), (8, 8))
        out = uncrop_patch(patch, rec)
        assert out.sum() == 16
        assert np.array_equal(out[2:6, 2:6], np.ones((4, 4), dtype=np.float32))

    def test_padded_pixels_discarded(self, rng):
        s = make_slice(rng.uniform(1.0, 2.0, size=(6, 6)))
        patch, rec = crop_patch(s, (0, 5), (4, 4))
        marked = np.where(patch == 0, 9.0, patch)
        out = uncrop_patch(marked, rec)
        assert not np.any(out == 9.0)

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
            expected[rr0:rr1, cc0:cc1] = s[rr0:rr1, cc0:cc1]
        assert np.array_equal(out, expected)

    def test_dims_mismatch_rejected(self):
        rec = CropRecord((4, 4), (4, 4), (8, 8))
        with pytest.raises(GeometryError):
            uncrop_patch(make_slice(np.zeros((3, 3))), rec)
