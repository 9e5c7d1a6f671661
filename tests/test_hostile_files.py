"""Hostile binary inputs: every rejection by a reader must be a FormatError.

Covers the three binary readers (RVOL volumes and masks, weight files and
NIfTI-1, plain and gzipped): header arithmetic that could overflow or go
negative, payloads that are non-finite behind a valid checksum, and a
mutation fuzz over valid files.
"""

import gzip
import struct
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from c2fseg import (
    FormatError,
    Mask3D,
    ModelWeights,
    Spacing,
    Volume3D,
    load_weights,
    read_nifti,
    read_volume,
    save_weights,
    write_volume,
)
from test_fileio import build_nifti


def with_crc(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def rvol_bytes(dims, dtype_code=0, payload=b"", spacing=(1.0, 1.0, 1.0)) -> bytes:
    header = b"RVOL" + struct.pack("<I3I3fB", 1, *dims, *spacing, dtype_code)
    return with_crc(header + payload)


def weights_bytes(params: dict[str, np.ndarray]) -> bytes:
    chunks = [b"C2FW", struct.pack("<II", 1, len(params))]
    for name, arr in params.items():
        chunks += [struct.pack("<H", len(name)), name.encode()]
        chunks += [struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape), arr.astype("<f4").tobytes()]
    return with_crc(b"".join(chunks))


READERS = {"rvol": read_volume, "weights": load_weights, "nifti": read_nifti}


def read_bytes(tmp_path, kind: str, raw: bytes):
    path = tmp_path / f"hostile.{kind}"
    path.write_bytes(raw)
    return READERS[kind](path)


class TestHeaderArithmetic:
    @pytest.mark.parametrize(
        "kind, raw, match",
        [
            # 2**21 * 2**21 * 2**22 == 2**64 wraps to 0 in int64, matching a 0-byte payload
            ("rvol", rvol_bytes((2**21, 2**21, 2**22)), "payload length mismatch"),
            ("rvol", rvol_bytes((2**21, 2**21, 2**22), dtype_code=1), "payload length mismatch"),
            ("weights", b"C2FW" + struct.pack("<II", 1, 0), "too short"),
            ("weights", b"C2FW" + struct.pack("<II", 1, 0) + b"\x00", "too short"),
            ("weights", b"C2FW" + struct.pack("<II", 1, 0) + b"\x00" * 3, "too short"),
        ],
        ids=["rvol_f32_dims_wrap", "rvol_mask_dims_wrap", "weights_12", "weights_13", "weights_15"],
    )
    def test_rejected_with_the_true_cause(self, tmp_path, kind, raw, match):
        with pytest.raises(FormatError, match=match):
            read_bytes(tmp_path, kind, raw)

    def test_parameter_free_weight_file_loads(self, tmp_path):
        assert len(read_bytes(tmp_path, "weights", with_crc(b"C2FW" + struct.pack("<II", 1, 0)))) == 0


class TestNonFinitePayload:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rvol_float_payload(self, tmp_path, bad):
        payload = np.array([0.0, 1.0, bad, 2.0], dtype="<f4").tobytes()
        with pytest.raises(FormatError, match="volume payload"):
            read_bytes(tmp_path, "rvol", rvol_bytes((1, 2, 2), payload=payload))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_weight_data(self, tmp_path, bad):
        raw = weights_bytes({"enc0.w": np.array([1.0, bad], dtype=np.float32)})
        with pytest.raises(FormatError, match="parameter 'enc0.w'"):
            read_bytes(tmp_path, "weights", raw)

    def test_empty_weight_name(self, tmp_path):
        with pytest.raises(FormatError, match="non-empty"):
            read_bytes(tmp_path, "weights", weights_bytes({"": np.ones(2, dtype=np.float32)}))

    @pytest.mark.parametrize("slope, inter", [(3e38, 0.0), (-3e38, 0.0), (2e38, 2e38)])
    def test_nifti_scaling_overflow(self, tmp_path, slope, inter):
        raw = build_nifti(scl_slope=slope, scl_inter=inter)  # int16 payload 0..7
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the overflow must not leak a numpy RuntimeWarning
            with pytest.raises(FormatError, match="scl_slope"):
                read_bytes(tmp_path, "nifti", raw)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nifti_float_payload(self, tmp_path, bad):
        payload = np.array([0, 1, 2, bad, 4, 5, 6, 7], dtype="<f4").tobytes()
        with pytest.raises(FormatError, match="invalid payload"):
            read_bytes(tmp_path, "nifti", build_nifti(datatype=16, payload=payload))


# --- mutation fuzz ----------------------------------------------------------


def _valid_files(tmp_path) -> dict[str, tuple[str, bytes, bool]]:
    """name -> (reader kind, valid file bytes, whether a CRC trailer can be fixed up)."""
    rng = np.random.default_rng(5)
    sp = Spacing(3.0, 0.7816, 0.7816)
    files = {}
    write_volume(Volume3D(rng.normal(size=(2, 3, 4)).astype(np.float32), sp), tmp_path / "v.rvol")
    write_volume(Mask3D((rng.uniform(size=(2, 3, 4)) < 0.5).astype(np.uint8), sp), tmp_path / "m.rvol")
    save_weights(
        ModelWeights({"enc0.w": rng.normal(size=(2, 1, 3, 3)), "enc0.b": np.zeros(2), "s": np.ones(())}),
        tmp_path / "w.c2fw",
    )
    files["rvol_f32"] = ("rvol", (tmp_path / "v.rvol").read_bytes(), True)
    files["rvol_mask"] = ("rvol", (tmp_path / "m.rvol").read_bytes(), True)
    files["weights"] = ("weights", (tmp_path / "w.c2fw").read_bytes(), True)
    scaled = build_nifti(dims=(4, 3, 2), scl_slope=0.5, scl_inter=-1.0)
    floats = build_nifti(dims=(2, 2, 2), datatype=16, payload=np.linspace(0, 1, 8, dtype="<f4").tobytes())
    files["nifti_i16"] = ("nifti", scaled, False)
    files["nifti_f32"] = ("nifti", floats, False)
    files["nifti_i16_gz"] = ("nifti", gzip.compress(scaled, mtime=0), False)
    files["nifti_i16_be"] = ("nifti", build_nifti(dims=(4, 3, 2), scl_slope=2.0, byte_order=">"), False)
    return files


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    return _valid_files(tmp_path_factory.mktemp("fuzz_inputs"))


WORDS = [0, 1, 2**31 - 1, 2**32 - 1]


@st.composite
def mutations(draw, size: int):
    kind = draw(st.sampled_from(["truncate", "bitflip", "overwrite", "append"]))
    if kind == "truncate":
        return kind, draw(st.integers(0, size - 1)), None
    if kind == "bitflip":
        return kind, draw(st.integers(0, size * 8 - 1)), None
    if kind == "overwrite":
        return kind, draw(st.integers(0, max(0, size - 4))), draw(st.sampled_from(WORDS))
    return kind, None, draw(st.binary(min_size=1, max_size=16))


def mutate(raw: bytes, mutation) -> bytes:
    kind, pos, value = mutation
    if kind == "truncate":
        return raw[:pos]
    if kind == "bitflip":
        out = bytearray(raw)
        out[pos // 8] ^= 1 << (pos % 8)
        return bytes(out)
    if kind == "overwrite":
        return raw[:pos] + struct.pack("<I", value) + raw[pos + 4 :]
    return raw + value


class TestReaderFuzz:
    @pytest.mark.parametrize(
        "name",
        [
            "rvol_f32", "rvol_mask", "weights", "nifti_i16", "nifti_i16_be", "nifti_f32",
            "nifti_i16_gz", "nifti_i16_gz_after",
        ],
    )
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_every_rejection_is_a_format_error(self, valid_files, tmp_path, name, data):
        gzip_after = name.endswith("_after")  # mutate the plain file, then compress it
        kind, raw, has_crc = valid_files[name.removesuffix("_gz_after") if gzip_after else name]
        bad = mutate(raw, data.draw(mutations(len(raw))))
        if has_crc and len(bad) >= 4 and data.draw(st.booleans()):
            bad = with_crc(bad[:-4])  # a valid checksum lets the mutation reach the parser
        if gzip_after:
            bad = gzip.compress(bad, mtime=0)
        try:
            read_bytes(tmp_path, kind, bad)
        except FormatError:
            pass
