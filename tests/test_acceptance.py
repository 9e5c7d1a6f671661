"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines; every
numeric bound is fixed here, not tuned at run time. The suite runs from an
installed package (``pip install -e .[test]``) and from an uninstalled
checkout with ``PYTHONPATH=src`` set from the repo root. Criterion 8 starts
real ``python -m c2fseg.cli`` processes in a temp directory and puts the
directory of the ``c2fseg`` it imported first on their ``PYTHONPATH``, so the
CLI runs the same code as the rest of the suite in either setup.

The learned-pipeline criterion's hyperparameters and achievable scores were
fixed by a pre-build pilot run (fine mean 0.9994, coarse mean 0.9709, 202 s
on 2 cores).
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import c2fseg as c
from c2fseg.nn import layers
from c2fseg.pipeline import prepare_abnormal_set, prepare_coarse_set, prepare_fine_set
from oracles import (
    batch_conv_grads,
    batch_decoder_grads,
    flood_fill_labels,
    labelings_equivalent,
    numeric_gradient,
    relative_error,
)

SP = c.Spacing(3.0, 0.7816, 0.7816)

SMALL_PHANTOM = dict(
    dims=(24, 48, 48), spacing=SP, n_kidneys=2, semi_axes_mm=((9, 12), (6, 8), (4.5, 5.5))
)
SMALL_CFG = dict(
    normalized_spacing=SP, coarse_dims=(32, 32), fine_dims=(32, 32),
    abnormal_dims=(16, 32), th_vn=300,
)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"criterion {criterion}: {detail}"


def oracle_models():
    m = c.ThresholdModel(0.5)
    return c.StageModels(coarse=m, abnormal=m, fine=m)


class HalfBlindOracle:
    """Threshold oracle blinded to the right lateral half of every slice."""

    def predict(self, s):
        p = (s >= 0.5).astype(np.float32)
        p[:, p.shape[1] // 2 :] = 0.0
        return p


def test_criterion_1_oracle_exactness():
    cfg = c.PipelineConfig(**SMALL_CFG)
    models = oracle_models()
    t0 = time.perf_counter()
    dscs, verdicts = [], []
    for seed in range(10):
        vol, gt = c.generate_phantom(c.PhantomSpec(seed=seed, **SMALL_PHANTOM))
        res = c.run_case(vol, models, cfg)
        verdicts.append(res.verdict.verdict)
        dscs.append(c.dsc(res.fine_mask, gt))
    elapsed = time.perf_counter() - t0
    ok = all(v == "Normal" for v in verdicts) and all(d == 1.0 for d in dscs) and elapsed < 30.0
    report(1, ok, f"10/10 noiseless phantoms: verdict Normal, fine DSC == 1.0 exactly ({elapsed:.1f}s < 30s)")


def test_criterion_2_abnormal_path_recovery():
    cfg = c.PipelineConfig(**SMALL_CFG)
    models = c.StageModels(coarse=HalfBlindOracle(), abnormal=c.ThresholdModel(0.5), fine=c.ThresholdModel(0.5))
    all_abnormal = all_recover = all_improved = True
    for seed in range(10):
        vol, gt = c.generate_phantom(c.PhantomSpec(seed=seed, **SMALL_PHANTOM))
        res = c.run_case(vol, models, cfg)
        all_abnormal &= res.verdict.verdict == "Abnormal"
        lm = c.label_components(gt, cfg.connectivity)
        for st in c.component_stats(lm):
            covered = int((res.guidance.data.astype(bool) & (lm.data == st.id)).sum())
            all_recover &= covered == st.voxel_count
        all_improved &= c.dsc(res.fine_mask, gt) > c.dsc(res.coarse_mask, gt)
    ok = all_abnormal and all_recover and all_improved
    report(2, ok, "10/10 blinded-coarse phantoms: Abnormal verdict, guidance covers both kidneys, fine DSC > coarse DSC")


def test_criterion_3_learned_desk_scale_pipeline():
    t0 = time.perf_counter()
    kw = dict(dims=(64, 96, 96), spacing=SP, n_kidneys=2,
              semi_axes_mm=((15, 21), (9, 12), (9, 12)), noise_sigma=0.1)
    train_cases = [c.generate_phantom(c.PhantomSpec(seed=s, **kw)) for s in range(40)]
    test_cases = [(f"t{s:02d}", *c.generate_phantom(c.PhantomSpec(seed=1000 + s, **kw)))
                  for s in range(10)]
    cfg = c.PipelineConfig(normalized_spacing=SP, coarse_dims=(64, 64), fine_dims=(48, 48),
                           abnormal_dims=(32, 64), th_vn=800)
    spec = c.UNetSpec(depth=2, base_channels=8)

    wc, _ = c.fit(spec, prepare_coarse_set(train_cases, cfg), c.FitParams(lr=0.2, epochs=3, batch=8, seed=11))
    wf, _ = c.fit(spec, prepare_fine_set(train_cases, cfg), c.FitParams(lr=0.2, epochs=4, batch=8, seed=12))
    wa, _ = c.fit(spec, prepare_abnormal_set(train_cases, cfg), c.FitParams(lr=0.2, epochs=2, batch=8, seed=13))

    models = c.StageModels(coarse=c.UNetModel(spec, wc), abnormal=c.UNetModel(spec, wa),
                           fine=c.UNetModel(spec, wf))
    rep = c.evaluate_split(test_cases, models, cfg)
    elapsed = time.perf_counter() - t0
    fine_mean = rep.fine_summary["mean"]
    coarse_mean = rep.coarse_summary["mean"]
    ok = (not rep.failures) and fine_mean >= 0.90 and fine_mean > coarse_mean and elapsed <= 900.0
    report(3, ok,
           f"40-train/10-test learned run: fine mean DSC {fine_mean:.4f} >= 0.90, "
           f"coarse mean {coarse_mean:.4f} < fine, runtime {elapsed:.0f}s <= 900s")


def _fd_layer_checks(seed: int) -> float:
    """Max relative FD error across every layer type, in float64."""
    rng = np.random.default_rng(seed)
    worst = 0.0

    def check(analytic, loss_fn, arr):
        nonlocal worst
        worst = max(worst, relative_error(analytic, numeric_gradient(loss_fn, arr)))

    # 3x3 convolution with bias
    x = rng.standard_normal((1, 2, 4, 4))
    w = rng.standard_normal((2, 2, 3, 3))
    b = rng.standard_normal(2)
    out, cache = layers.conv2d_forward(x, w, b)
    gy = rng.standard_normal(out.shape)
    loss = lambda: float((layers.conv2d_forward(x, w, b)[0] * gy).sum())
    gx, gw, gb = batch_conv_grads(layers.conv2d_backward(cache, gy))  # per-sample terms summed
    check(gx, loss, x)
    check(gw, loss, w)
    check(gb, loss, b)

    # 1x1 convolution
    w1 = rng.standard_normal((3, 2, 1, 1))
    b1 = rng.standard_normal(3)
    out, cache = layers.conv2d_forward(x, w1, b1)
    gy = rng.standard_normal(out.shape)
    loss = lambda: float((layers.conv2d_forward(x, w1, b1)[0] * gy).sum())
    gx, gw, gb = batch_conv_grads(layers.conv2d_backward(cache, gy))  # per-sample terms summed
    check(gx, loss, x)
    check(gw, loss, w1)
    check(gb, loss, b1)

    # ReLU, sampled away from the kink
    xr = rng.standard_normal((1, 2, 4, 4))
    xr += 0.1 * np.sign(xr)
    out, cache = layers.relu_forward(xr)
    gy = rng.standard_normal(out.shape)
    loss = lambda: float((layers.relu_forward(xr)[0] * gy).sum())
    check(layers.relu_backward(cache, gy), loss, xr)

    # 2x2 max pooling, ties broken by a deterministic nudge
    xp = rng.standard_normal((1, 2, 4, 4))
    xp += np.arange(xp.size).reshape(xp.shape) * 1e-3  # no exact ties
    out, cache = layers.maxpool2_forward(xp)
    gy = rng.standard_normal(out.shape)
    loss = lambda: float((layers.maxpool2_forward(xp)[0] * gy).sum())
    check(layers.maxpool2_backward(cache, gy), loss, xp)

    # decoder conv: 3x3 over the skip channels and a 2x nearest upsample
    xa = rng.standard_normal((1, 2, 6, 6))
    xu = rng.standard_normal((1, 3, 3, 3))
    wd = rng.standard_normal((2, 5, 3, 3))
    bd = rng.standard_normal(2)
    out, cache = layers.decoder_conv_forward(xa, xu, wd, bd)
    gy = rng.standard_normal(out.shape)
    loss = lambda: float((layers.decoder_conv_forward(xa, xu, wd, bd)[0] * gy).sum())
    ga, gu, gw, gb = batch_decoder_grads(layers.decoder_conv_backward(cache, gy))
    check(ga, loss, xa)
    check(gu, loss, xu)
    check(gw, loss, wd)
    check(gb, loss, bd)

    # sigmoid
    xs = rng.standard_normal((1, 2, 3, 3))
    out, cache = layers.sigmoid_forward(xs)
    gy = rng.standard_normal(out.shape)
    loss = lambda: float((layers.sigmoid_forward(xs)[0] * gy).sum())
    check(layers.sigmoid_backward(cache, gy), loss, xs)

    # Dice loss gradient
    p = rng.uniform(0.05, 0.95, (2, 1, 4, 4))
    y = (rng.uniform(size=(2, 1, 4, 4)) < 0.4).astype(float)
    check(c.dice_loss_grad(p, y), lambda: c.dice_loss(p, y), p)

    return worst


def test_criterion_4_gradient_correctness():
    worst = max(_fd_layer_checks(seed) for seed in range(50))
    ok = worst < 1e-5
    report(4, ok, f"dice loss and all 8 layer types over 50 seeds: max FD relative error {worst:.2e} < 1e-5")


def test_criterion_5_labeling_oracle_equivalence():
    rng = np.random.default_rng(77)
    checked = 0
    for i in range(200):
        p = rng.uniform(0.05, 0.6)
        data = (rng.uniform(size=(16, 16, 16)) < p).astype(np.uint8)
        mask = c.Mask3D(data, c.Spacing(1, 1, 1))
        for conn in (6, 26):
            got = c.label_components(mask, conn)
            expected = flood_fill_labels(data, conn)
            assert labelings_equivalent(got.data, expected), f"mask {i} connectivity {conn}"
            assert got.n_components == expected.max()
            checked += 1
    report(5, checked == 400, f"union-find equals recursive flood fill on 200 random 16^3 masks x {{6,26}}-connectivity")


def test_criterion_6_verdict_truth_table_and_threshold_volume():
    def stats(counts):
        return [
            c.ComponentStats(id=i + 1, voxel_count=n, volume_ml=0.0, centroid=(0.0, 0.0, 0.0))
            for i, n in enumerate(counts)
        ]

    th = 10000
    table = {
        (): "Abnormal",
        (12000,): "Abnormal",
        (12000, 11000): "Normal",
        (12000, 11000, 10500): "Abnormal",
    }
    truth_ok = all(c.classify(stats(list(counts)), th).verdict == v for counts, v in table.items())
    ml = c.voxel_volume_ml(SP, 10000)
    ml_ok = abs(ml - 18.327) <= 0.001
    report(6, truth_ok and ml_ok,
           f"component counts 0/1/2/3 -> Abnormal/Abnormal/Normal/Abnormal; 10000 voxels = {ml:.3f} ml (18.327 +- 0.001)")


def test_criterion_7_transform_and_file_round_trips(tmp_path):
    rng = np.random.default_rng(4242)

    # 1000 random crop windows, boundary-padded ones included
    for _ in range(1000):
        rows, cols = rng.integers(4, 20, size=2)
        s = (rng.uniform(size=(rows, cols)) < 0.5).astype(np.float32)
        center = (int(rng.integers(0, rows)), int(rng.integers(0, cols)))
        pdims = (int(rng.integers(1, 14)), int(rng.integers(1, 14)))
        patch, rec = c.crop_patch(s, center, pdims)
        back = c.uncrop_patch(patch, rec)
        r0, c0 = center[0] - pdims[0] // 2, center[1] - pdims[1] // 2
        expected = np.zeros((rows, cols), dtype=np.float32)
        rr0, rr1 = max(0, r0), min(int(rows), r0 + pdims[0])
        cc0, cc1 = max(0, c0), min(int(cols), c0 + pdims[1])
        if rr0 < rr1 and cc0 < cc1:
            expected[rr0:rr1, cc0:cc1] = s[rr0:rr1, cc0:cc1]
        assert np.array_equal(back, expected)

    # extract/compose bit-exact on both planes
    for plane in ("axial", "sagittal"):
        v = c.Volume3D(rng.uniform(-100, 200, (5, 6, 7)).astype(np.float32), SP)
        out = c.compose_slices(c.extract_slices(v, plane), plane, v.dims, v.spacing)
        assert np.array_equal(out.data, v.data)

    # resample to identical spacing bit-exact
    v = c.Volume3D(rng.uniform(-10, 10, (4, 5, 6)).astype(np.float32), SP)
    assert np.array_equal(c.resample_volume(v, SP, mode="trilinear").data, v.data)
    m = c.Mask3D((rng.uniform(size=(4, 5, 6)) < 0.4).astype(np.uint8), SP)
    assert np.array_equal(c.resample_volume(m, SP).data, m.data)

    # weight file round trip bit-exact
    spec = c.UNetSpec(depth=2, base_channels=4)
    from c2fseg.nn.unet import init_weights

    w = c.ModelWeights(init_weights(spec, 99))
    c.save_weights(w, tmp_path / "w.c2fw")
    assert c.load_weights(tmp_path / "w.c2fw") == w

    # RVOL round trips bit-exact
    c.write_volume(v, tmp_path / "v.rvol")
    back_v = c.read_volume(tmp_path / "v.rvol")
    assert np.array_equal(back_v.data, v.data) and back_v.spacing == v.spacing
    c.write_volume(m, tmp_path / "m.rvol")
    back_m = c.read_volume(tmp_path / "m.rvol")
    assert np.array_equal(back_m.data, m.data) and back_m.spacing == m.spacing

    report(7, True, "1000 crop/uncrop windows, extract/compose, same-spacing resample, weight and RVOL files all round-trip exactly")


DETERMINISM_CONFIG = """\
normalized_spacing = 3.0, 0.7816, 0.7816
coarse_dims = 32, 32
fine_dims = 32, 32
abnormal_dims = 16, 32
th_vn = 800
unet_depth = 2
unet_base_channels = 4
lr = 0.2
epochs = 6
batch = 8
seed = 5
"""


def _full_cli_run(workdir: Path) -> dict[str, bytes]:
    """phantom-gen -> train x3 -> predict -> eval, returning output file bytes."""
    workdir.mkdir(parents=True)
    cfg = workdir / "run.cfg"
    cfg.write_text(DETERMINISM_CONFIG)
    data = workdir / "data"
    pred = workdir / "pred"

    # The children run in workdir, where a relative PYTHONPATH (such as the
    # tier-1 ``PYTHONPATH=src``) points at nothing; put the directory holding
    # the c2fseg under test first so every child imports that same copy.
    parent_pkg = Path(c.__file__).resolve()
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(parent_pkg.parents[1]) + (os.pathsep + inherited if inherited else "")

    probe = [sys.executable, "-c", "import c2fseg; print(c2fseg.__file__)"]
    proc = subprocess.run(probe, capture_output=True, text=True, cwd=workdir, env=env)
    child_pkg = proc.stdout.strip()
    assert proc.returncode == 0 and Path(child_pkg).resolve() == parent_pkg, (
        f"CLI processes would import c2fseg from {child_pkg or '<nothing>'!r}, "
        f"not {str(parent_pkg)!r} (PYTHONPATH={env['PYTHONPATH']!r}): {proc.stderr}"
    )

    def cli(*args):
        cmd = [sys.executable, "-m", "c2fseg.cli", *args]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=workdir, env=env)
        assert proc.returncode == 0, (
            f"{cmd} (PYTHONPATH={env['PYTHONPATH']!r}) failed: {proc.stderr}"
        )

    cli("phantom-gen", "--count", "2", "--out", str(data), "--seed", "21",
        "--dims", "64,96,96", "--noise", "0.05")
    for stage in ("coarse", "fine", "abnormal"):
        cli("train", "--stage", stage, "--data", str(data), "--config", str(cfg),
            "--out", str(workdir / f"{stage}.c2fw"))
    for case in ("case0000", "case0001"):
        cli("predict", "--input", str(data / f"{case}_volume.rvol"),
            "--coarse", str(workdir / "coarse.c2fw"), "--abnormal", str(workdir / "abnormal.c2fw"),
            "--fine", str(workdir / "fine.c2fw"), "--config", str(cfg),
            "--out", str(pred / f"{case}_fine.rvol"),
            "--emit-coarse", str(pred / f"{case}_coarse.rvol"),
            "--report", str(pred / f"{case}_report.json"))
    cli("eval", "--pred", str(pred), "--gt", str(data), "--report", str(workdir / "report.txt"))

    outputs = {}
    for p in sorted(workdir.rglob("*")):
        if p.is_file() and p.suffix in (".c2fw", ".rvol", ".json", ".txt"):
            outputs[str(p.relative_to(workdir))] = p.read_bytes()
    return outputs


def _predicted_masks(workdir: Path, kind: str) -> list[np.ndarray]:
    return [c.read_volume(workdir / "pred" / f"{case}_{kind}.rvol").data for case in ("case0000", "case0001")]


def test_criterion_8_cli_determinism(tmp_path):
    a = _full_cli_run(tmp_path / "run_a")
    b = _full_cli_run(tmp_path / "run_b")
    # The nets must have learned something, or a predict that ignores its input would pass.
    for kind in ("coarse", "fine"):
        masks = _predicted_masks(tmp_path / "run_a", kind)
        for m in masks:
            assert 0 < np.count_nonzero(m) < m.size, f"a {kind} mask is empty or the whole volume"
        assert not np.array_equal(*masks), f"both cases got the same {kind} mask"
    assert set(a) == set(b)
    diffs = [name for name in a if a[name] != b[name]]
    ok = not diffs
    report(8, ok,
           f"two identical CLI pipelines produced byte-identical outputs ({len(a)} files)"
           + (f"; diffs: {diffs}" if diffs else ""))
