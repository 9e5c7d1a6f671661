import struct
import zlib

import numpy as np
import pytest

from c2fseg import ModelWeights, UNetSpec, load_weights, save_weights
from c2fseg.errors import FormatError
from c2fseg.nn.unet import init_weights


@pytest.fixture
def weights(rng):
    return ModelWeights(
        {
            "enc0.w": rng.standard_normal((4, 1, 3, 3)).astype(np.float32),
            "enc0.b": rng.standard_normal(4).astype(np.float32),
            "head.w": rng.standard_normal((1, 4, 1, 1)).astype(np.float32),
        }
    )


class TestRoundTrip:
    def test_bit_exact(self, weights, tmp_path):
        path = tmp_path / "w.c2fw"
        save_weights(weights, path)
        assert load_weights(path) == weights

    def test_full_net_roundtrip(self, tmp_path):
        spec = UNetSpec(depth=2, base_channels=8)
        w = ModelWeights(init_weights(spec, 42))
        save_weights(w, tmp_path / "net.c2fw")
        back = load_weights(tmp_path / "net.c2fw")
        assert back == w
        assert back.names() == w.names()

    def test_empty_parameter_set(self, tmp_path):
        w = ModelWeights({})
        save_weights(w, tmp_path / "empty.c2fw")
        assert len(load_weights(tmp_path / "empty.c2fw")) == 0

    def test_scalar_rank_zero(self, tmp_path):
        w = ModelWeights({"s": np.float32(3.5)})
        save_weights(w, tmp_path / "s.c2fw")
        assert load_weights(tmp_path / "s.c2fw")["s"] == np.float32(3.5)


class TestImmutable:
    def test_every_array_is_read_only(self, weights):
        for name, arr in weights.items():
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0.0

    def test_later_edits_to_the_dict_do_not_reach_the_weights(self, rng):
        params = {"a": rng.standard_normal((2, 3)).astype(np.float32)}
        w = ModelWeights(params)
        params["a"] = np.zeros((2, 3), dtype=np.float32)
        params["b"] = np.ones(4, dtype=np.float32)
        del params["a"]
        assert w.names() == ["a"] and w["a"].any()

    def test_takes_ownership_of_an_input_that_needs_no_copy(self, rng):
        # float32 C-contiguous input: kept as is, so the caller's own array turns read-only
        owned = rng.standard_normal((2, 3)).astype(np.float32)
        w = ModelWeights({"owned": owned})
        assert np.shares_memory(w["owned"], owned) and not owned.flags.writeable
        # float64 input: converted into a copy, and the caller's array is left alone
        kept = rng.standard_normal((2, 3))
        w = ModelWeights({"kept": kept})
        assert not np.shares_memory(w["kept"], kept) and kept.flags.writeable
        kept[0, 0] += 1.0
        assert w["kept"][0, 0] != np.float32(kept[0, 0])


class TestRejection:
    def test_bad_magic(self, weights, tmp_path):
        path = tmp_path / "w.c2fw"
        save_weights(weights, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="magic"):
            load_weights(path)

    def test_bad_version(self, weights, tmp_path):
        path = tmp_path / "w.c2fw"
        save_weights(weights, path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 9)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version 9"):
            load_weights(path)

    def test_truncation_names_parameter(self, weights, tmp_path):
        path = tmp_path / "w.c2fw"
        save_weights(weights, path)
        raw = path.read_bytes()
        # cut into the middle of the last parameter's payload
        path.write_bytes(raw[: len(raw) - 12])
        with pytest.raises(FormatError, match="truncated at parameter 2"):
            load_weights(path)

    def test_truncation_at_first_parameter(self, weights, tmp_path):
        path = tmp_path / "w.c2fw"
        save_weights(weights, path)
        path.write_bytes(path.read_bytes()[:14])
        with pytest.raises(FormatError, match="truncated at parameter 0"):
            load_weights(path)

    def test_every_cut_names_the_first_parameter_it_reaches_into(self, weights, tmp_path):
        path = tmp_path / "w.c2fw"
        save_weights(weights, path)
        raw = path.read_bytes()
        ends, off = [], 12  # where each parameter's bytes end
        for name, arr in weights.items():
            off += 2 + len(name.encode()) + 1 + 4 * arr.ndim + 4 * arr.size
            ends.append(off)
        assert len(ends) == 3 and ends[-1] == len(raw) - 4
        for cut in range(12, len(raw)):
            path.write_bytes(raw[:cut])  # its last 4 bytes are read as the checksum
            k = next(i for i, end in enumerate(ends) if end > cut - 4)
            with pytest.raises(FormatError, match=rf"^truncated at parameter {k}$"):
                load_weights(path)

    def test_crc_corruption(self, weights, tmp_path):
        path = tmp_path / "w.c2fw"
        save_weights(weights, path)
        raw = bytearray(path.read_bytes())
        raw[-8] ^= 0xFF  # inside the last parameter's payload, structure intact
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="checksum mismatch"):
            load_weights(path)

    def test_trailing_junk(self, weights, tmp_path):
        path = tmp_path / "w.c2fw"
        save_weights(weights, path)
        path.write_bytes(path.read_bytes() + b"JUNKJUNK")
        with pytest.raises(FormatError):
            load_weights(path)

    @pytest.mark.parametrize(
        "name, dims, match",
        [
            (b"\xff\xfeconv", (), "not UTF-8"),
            (b"w", (2**32 - 1, 2**32 - 1), "truncated at parameter 0"),
            (b"w", (2**16,) * 4, "truncated at parameter 0"),  # 2**64 wraps to 0 in int64
        ],
    )
    def test_hostile_parameter_header(self, tmp_path, name, dims, match):
        body = b"".join(
            [
                b"C2FW",
                struct.pack("<II", 1, 1),
                struct.pack("<H", len(name)),
                name,
                struct.pack(f"<B{len(dims)}I", len(dims), *dims),
                struct.pack("<f", 1.0),
            ]
        )
        path = tmp_path / "hostile.c2fw"
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(FormatError, match=match):
            load_weights(path)

    def test_nonfinite_parameters_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            ModelWeights({"w": np.array([np.inf], dtype=np.float32)})
