"""Tests of the benchmark itself: inputs, gates, tracing and the metric names.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import statistics
from pathlib import Path

import numpy as np
import pytest

import c2fseg
import c2fseg.nn.layers
import c2fseg.nn.models
import c2fseg.nn.train
import c2fseg.pipeline
import reference
import run
import tracing
import workloads
import worker
from c2fseg import PhantomSpec, PipelineConfig, Spacing, StageModels, ThresholdModel, UNetModel, UNetSpec

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _files(d: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


@pytest.mark.parametrize("workload", ["desk_oracle", "train_desk"])
def test_same_seed_same_inputs_other_seed_other_inputs(tmp_path, workload):
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        workloads.generate(workload, seed, tmp_path / name)
    a, b, c = (_files(tmp_path / n) for n in "abc")
    assert a == b
    assert a.keys() == c.keys() and a != c


def test_ct_inputs_reproducible(tmp_path):
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        (tmp_path / name).mkdir()
        workloads.write_ct_case(seed, 3, tmp_path / name)
        c2fseg.save_weights(workloads.threshold_unet_weights(workloads.CT_SPEC, seed), tmp_path / name / "net.c2fw")
    a, b, c = (_files(tmp_path / n) for n in "abc")
    assert a == b
    assert all(a[k] != c[k] for k in a)


@pytest.fixture(scope="module")
def desk_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("desk")
    workloads.generate("desk_oracle", 3, d)
    return d


def _desk_runner(inputs, level):
    model = ThresholdModel(level)
    return worker.Runner("desk_oracle", inputs, StageModels(model, model, model), workloads.DESK_CFG)


def test_gate_passes_the_oracle_and_counts_a_wrong_model(desk_inputs):
    good = _desk_runner(desk_inputs, 0.5).loop(0.0)
    assert len(good) == len(workloads.CYCLE_KIDNEYS)
    assert all(o is not None and o.ok for o in good)
    assert [o.abnormal for o in good] == [k == 1 for k in workloads.CYCLE_KIDNEYS]

    bad = _desk_runner(desk_inputs, 2.0).loop(0.0)  # sees no foreground at all
    assert len(bad) == len(workloads.CYCLE_KIDNEYS)
    assert all(o is not None and not o.ok for o in bad)


def test_every_item_is_bracketed_by_reference_timings(desk_inputs):
    with reference.Reference() as ref:
        outcomes = _desk_runner(desk_inputs, 0.5).loop(0.0, reference=ref.time)
    assert ref.proc.returncode == 0
    assert len(outcomes) == len(workloads.CYCLE_KIDNEYS)
    assert all(o is not None and 0.0 < o.ref < 60.0 for o in outcomes)
    metrics = worker._end_to_end(outcomes)
    assert metrics["case_ref.p50"] == statistics.median(o.seconds / o.ref for o in outcomes)


def _wrapped_names():
    mods = (c2fseg.pipeline, c2fseg.nn.models, c2fseg.nn.train, c2fseg.nn.layers)
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items() if callable(v)}


def test_traced_run_restores_every_wrapper_and_reports_every_metric(desk_inputs):
    before = _wrapped_names()
    runner = _desk_runner(desk_inputs, 0.5)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert _wrapped_names() != before
        outcomes = runner.loop(0.0, tracer)
    finally:
        tracer.uninstall()
    assert _wrapped_names() == before
    assert tracer.absent == []

    metrics = tracing.per_layer_metrics(tracer, len(outcomes), sum(o.abnormal for o in outcomes), 0.0)
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert all(run._unit(m["name"]) == m["unit"] for m in BENCHMARK["per_layer"])
    # Layers this workload bypasses: no resample, no net, no backward.
    for name in ("geometry.resample.trilinear.s", "nn.models.coarse.slices", "nn.layers.conv2d_fwd.calls",
                 "nn.layers.conv2d_bwd.s", "nn.unet.backward.s"):
        assert metrics[name] == 0.0
    assert metrics["components.label.calls"] == 2.0
    assert metrics["pipeline.abnormal_share"] == 0.25


def test_end_to_end_names_match_the_benchmark_file():
    done = [worker.Outcome(1.0, 64, 1.0, False, True, ref=0.5)]
    names = set(worker._end_to_end(done)) | {"peak_rss_mb", "setup_s"}
    assert names == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(run._unit(m["name"]) == m["unit"] for m in BENCHMARK["end_to_end"])


def test_a_missing_name_is_reported_absent(desk_inputs, monkeypatch):
    monkeypatch.delattr(c2fseg.pipeline, "binarize")
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
    finally:
        tracer.uninstall()
    assert tracer.absent == ["c2fseg.pipeline.binarize"]
    metrics = tracing.per_layer_metrics(tracer, 1, 0, 0.0)
    assert "volume.binarize.s" not in metrics and "volume.compose.s" in metrics


@pytest.mark.parametrize("kidneys", [2, 1])
def test_threshold_unet_gives_the_threshold_model_masks(kidneys):
    sp = Spacing(3.0, 0.7816, 0.7816)
    vol, _ = c2fseg.generate_phantom(PhantomSpec(
        dims=(24, 48, 48), spacing=sp, n_kidneys=kidneys, semi_axes_mm=((9, 12), (6, 8), (4.5, 5.5)), seed=4
    ))
    cfg = PipelineConfig(normalized_spacing=sp, coarse_dims=(32, 32), fine_dims=(32, 32), abnormal_dims=(16, 32), th_vn=300)
    spec = UNetSpec(depth=2, base_channels=8)
    net = UNetModel(spec, workloads.threshold_unet_weights(spec, seed=9))
    oracle = ThresholdModel(workloads.THRESHOLD_LEVEL)
    got = c2fseg.run_case(vol, StageModels(net, net, net), cfg)
    want = c2fseg.run_case(vol, StageModels(oracle, oracle, oracle), cfg)
    assert got.verdict == want.verdict
    assert want.verdict.is_normal == (kidneys == 2)
    for field in ("coarse_mask", "guidance", "fine_mask"):
        assert np.array_equal(getattr(got, field).data, getattr(want, field).data)
