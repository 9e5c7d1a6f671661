"""Seeded inputs, configurations and stage models of the three workloads.

Inputs depend only on the workload name and the seed. The program under test
sees only what is written here: phantom volumes, NIfTI files and weight files.
"""

from __future__ import annotations

import gzip
import json
import struct
from pathlib import Path

import numpy as np

from c2fseg import (
    FitParams,
    ModelWeights,
    PhantomSpec,
    PipelineConfig,
    Spacing,
    StageModels,
    ThresholdModel,
    UNetModel,
    UNetSpec,
    generate_phantom,
    load_weights,
    save_weights,
)
from c2fseg.nn import parameter_shapes

# One cycle: three two-kidney (Normal) cases, then one one-kidney case that
# takes the Abnormal path with sagittal correction. Runs measure whole cycles
# so every run weights the Abnormal minority the same.
CYCLE_KIDNEYS = (2, 2, 2, 1)

DESK_SPACING = Spacing(3.0, 0.7816, 0.7816)  # the normalized grid: resample short-circuits
DESK_DIMS = (64, 96, 96)
DESK_CFG = PipelineConfig(coarse_dims=(64, 64), fine_dims=(48, 48), abnormal_dims=(32, 64), th_vn=800)
DESK_POOL = 16 * len(CYCLE_KIDNEYS)  # distinct desk_oracle cases, reused cyclically

CT_SPACING = Spacing(2.5, 0.8, 0.8)
CT_DIMS = (80, 384, 384)
CT_NOISE = 0.05
CT_SCALE = 1000.0  # stored int16 = round(intensity * CT_SCALE); scl_slope = 1 / CT_SCALE
CT_SPEC = UNetSpec(depth=3, base_channels=8)  # the default net of the CLI config
CT_STAGES = ("coarse", "abnormal", "fine")

# A fixed split: kidney geometry never changes and the seed draws only the
# noise, so the training quality reported per run does not swing with the seed.
TRAIN_SPEC = UNetSpec(depth=2, base_channels=8)
TRAIN_PHANTOM = dict(dims=DESK_DIMS, spacing=DESK_SPACING, semi_axes_mm=((15, 21), (9, 12), (9, 12)))
TRAIN_NOISE = 0.1
TRAIN_CASES = 2
TRAIN_EPOCHS = {"coarse": 2, "fine": 3, "abnormal": 2}
TRAIN_LR, TRAIN_BATCH = 0.2, 8

# Threshold-equivalent U-Net: a unit centre tap carries the input through
# enc0 -> skip -> dec0, and the head turns it into a steep sigmoid around the
# oracle level. Every other weight is small noise, never zero, so the net does
# its full dense compute while its masks stay checkable. The sigmoid is centred
# THRESHOLD_MARGIN below the level so that an input exactly at the level (a
# bilinear halfway point) comes out as foreground, as ThresholdModel's >= does;
# the margin is larger than anything the noise weights add on the tapped path.
THRESHOLD_LEVEL = 0.5
THRESHOLD_GAIN = 1e7
THRESHOLD_MARGIN = 1e-5
WEIGHT_NOISE = 1e-7


def case_seed(seed: int, index: int) -> int:
    return seed * 1009 + index


def threshold_unet_weights(spec: UNetSpec, seed: int, level: float = THRESHOLD_LEVEL) -> ModelWeights:
    rng = np.random.default_rng(seed)
    params = {
        name: rng.uniform(-WEIGHT_NOISE, WEIGHT_NOISE, size=shape).astype(np.float32)
        for name, shape in parameter_shapes(spec).items()
    }
    params["enc0.w"][0, 0, 1, 1] = 1.0
    params["dec0.w"][0, 0, 1, 1] = 1.0  # input channel 0 of dec0 is skip channel 0
    params["head.w"][0, 0, 0, 0] = THRESHOLD_GAIN
    params["head.b"][0] = -THRESHOLD_GAIN * (level - THRESHOLD_MARGIN)
    return ModelWeights(params)


def nifti_int16_bytes(data: np.ndarray, spacing: Spacing, scale: float) -> bytes:
    """Single-file NIfTI-1 (348-byte header, 4 pad bytes), int16 payload with scl_slope 1/scale."""
    d, h, w = data.shape
    hdr = bytearray(348)
    struct.pack_into("<i", hdr, 0, 348)
    struct.pack_into("<8h", hdr, 40, 3, w, h, d, 1, 1, 1, 1)
    struct.pack_into("<hh", hdr, 70, 4, 16)  # datatype int16, bitpix
    struct.pack_into("<8f", hdr, 76, 1.0, spacing.w, spacing.h, spacing.d, 0, 0, 0, 0)
    struct.pack_into("<fff", hdr, 108, 352.0, 1.0 / scale, 0.0)  # vox_offset, scl_slope, scl_inter
    hdr[344:348] = b"n+1\x00"
    payload = np.round(data * scale).astype("<i2").tobytes()
    return bytes(hdr) + b"\x00" * 4 + payload


def _kidneys(index: int) -> int:
    return CYCLE_KIDNEYS[index % len(CYCLE_KIDNEYS)]


def generate(workload: str, seed: int, out: Path) -> None:
    """Write the workload's inputs for ``seed`` into the empty directory ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    cases = []
    if workload == "desk_oracle":
        for i in range(DESK_POOL):
            spec = PhantomSpec(dims=DESK_DIMS, spacing=DESK_SPACING, n_kidneys=_kidneys(i), seed=case_seed(seed, i))
            vol, gt = generate_phantom(spec)
            np.savez(out / f"case{i:02d}.npz", volume=vol.data, mask=gt.data)
            cases.append({"id": f"case{i:02d}", "kidneys": spec.n_kidneys})
    elif workload == "ct_unet":
        cases = [write_ct_case(seed, i, out) for i in range(len(CYCLE_KIDNEYS))]
        for k, stage in enumerate(CT_STAGES):
            save_weights(threshold_unet_weights(CT_SPEC, case_seed(seed, 100 + k)), out / f"{stage}.c2fw")
    elif workload == "train_desk":
        rng = np.random.default_rng(seed)
        for i in range(TRAIN_CASES):
            vol, gt = generate_phantom(PhantomSpec(seed=i, **TRAIN_PHANTOM))
            noisy = vol.data + np.float32(TRAIN_NOISE) * rng.standard_normal(vol.dims, dtype=np.float32)
            np.savez(out / f"train{i:02d}.npz", volume=noisy, mask=gt.data)
            cases.append({"id": f"train{i:02d}", "kidneys": 2})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    (out / "manifest.json").write_text(json.dumps({"cases": cases}, indent=1))


def write_ct_case(seed: int, index: int, out: Path) -> dict:
    """One CT-sized phantom as gzipped int16 NIfTI plus its ground-truth mask."""
    spec = PhantomSpec(
        dims=CT_DIMS, spacing=CT_SPACING, n_kidneys=_kidneys(index), noise_sigma=CT_NOISE, seed=case_seed(seed, index)
    )
    vol, gt = generate_phantom(spec)
    case_id = f"ct{index:02d}"
    raw = nifti_int16_bytes(vol.data, CT_SPACING, CT_SCALE)
    # mtime=0 keeps the gzip stream byte-identical for a given seed.
    (out / f"{case_id}.nii.gz").write_bytes(gzip.compress(raw, compresslevel=1, mtime=0))
    np.save(out / f"{case_id}_mask.npy", gt.data)
    return {"id": case_id, "kidneys": spec.n_kidneys}


def load_manifest(inputs: Path) -> list[dict]:
    return json.loads((inputs / "manifest.json").read_text())["cases"]


def stage_models(workload: str, inputs: Path):
    """What a user pays before the first case: weight loading and model construction."""
    if workload == "desk_oracle":
        oracle = ThresholdModel(THRESHOLD_LEVEL)
        return StageModels(coarse=oracle, abnormal=oracle, fine=oracle), DESK_CFG
    if workload == "ct_unet":
        nets = {stage: UNetModel(CT_SPEC, load_weights(inputs / f"{stage}.c2fw")) for stage in CT_STAGES}
        return StageModels(**nets), PipelineConfig()
    if workload == "train_desk":
        fit_params = {
            stage: FitParams(lr=TRAIN_LR, epochs=epochs, batch=TRAIN_BATCH, seed=11 + k)
            for k, (stage, epochs) in enumerate(TRAIN_EPOCHS.items())
        }
        return fit_params, DESK_CFG
    raise ValueError(f"unknown workload {workload!r}")
