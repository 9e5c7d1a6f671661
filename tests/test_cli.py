import gzip
import json
import re
import tracemalloc

import numpy as np
import pytest

import c2fseg.cli
from c2fseg import Mask3D, Spacing, Volume3D, read_volume, write_volume
from c2fseg.cli import build_parser, main
from c2fseg.config import load_config

DESK_CONFIG = """
normalized_spacing = 3.0, 1.5, 1.5
coarse_dims = 16, 16
fine_dims = 16, 16
abnormal_dims = 8, 16
th_vn = 40
unet_depth = 1
unet_base_channels = 2
lr = 0.5
epochs = 2
batch = 4
seed = 7
"""


@pytest.fixture
def desk_config(tmp_path):
    path = tmp_path / "desk.cfg"
    path.write_text(DESK_CONFIG)
    return path


def gen_args(out_dir, count=2, seed=3, dims="8,24,24"):
    return [
        "phantom-gen", "--count", str(count), "--out", str(out_dir),
        "--seed", str(seed), "--dims", dims, "--noise", "0.05",
    ]


class TestPhantomGen:
    def test_writes_pairs(self, tmp_path, capsys):
        # default semi-axes need production-size volumes
        assert main(gen_args(tmp_path / "d", count=3, dims="64,96,96")) == 0
        files = sorted(p.name for p in (tmp_path / "d").glob("*.rvol"))
        assert files == [
            "case0000_mask.rvol", "case0000_volume.rvol",
            "case0001_mask.rvol", "case0001_volume.rvol",
            "case0002_mask.rvol", "case0002_volume.rvol",
        ]
        vol = read_volume(tmp_path / "d" / "case0000_volume.rvol")
        mask = read_volume(tmp_path / "d" / "case0000_mask.rvol")
        assert isinstance(vol, Volume3D) and isinstance(mask, Mask3D)
        assert vol.dims == (64, 96, 96)

    def test_deterministic(self, tmp_path):
        main(gen_args(tmp_path / "a", dims="64,96,96"))
        main(gen_args(tmp_path / "b", dims="64,96,96"))
        for name in ("case0000_volume.rvol", "case0001_mask.rvol"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_single_kidney_fraction(self, tmp_path):
        from c2fseg import label_components

        assert main(gen_args(tmp_path / "s", count=3, dims="64,96,96")
                    + ["--single-kidney-fraction", "1.0"]) == 0
        for i in range(3):
            mask = read_volume(tmp_path / "s" / f"case{i:04d}_mask.rvol")
            assert label_components(mask).n_components == 1

    @pytest.mark.parametrize("extra, error", [
        (["--count", "0"], "argument --count: must be at least 1, got 0"),
        (["--count", "-1"], "argument --count: must be at least 1, got -1"),
        (["--count", "x"], "argument --count: invalid int value: 'x'"),
        (["--single-kidney-fraction", "-0.1"], "argument --single-kidney-fraction: must lie in [0, 1], got -0.1"),
        (["--single-kidney-fraction", "1.5"], "argument --single-kidney-fraction: must lie in [0, 1], got 1.5"),
        (["--single-kidney-fraction", "nan"], "argument --single-kidney-fraction: must lie in [0, 1], got nan"),
        (["--dims", "a,b,c"], "argument --dims: invalid dims value: 'a,b,c'"),
        (["--dims", "0,4,4"], "argument --dims: must be three positive ints D,H,W, got 0,4,4"),
        (["--dims", "8,24"], "argument --dims: must be three positive ints D,H,W, got 8,24"),
        (["--noise", "-1"], "argument --noise: must be finite and non-negative, got -1"),
        (["--noise", "nan"], "argument --noise: must be finite and non-negative, got nan"),
        (["--noise", "inf"], "argument --noise: must be finite and non-negative, got inf"),
        (["--seed", "-1"], "argument --seed: must be non-negative, got -1"),
    ])
    def test_bad_count_or_fraction_is_a_usage_error(self, tmp_path, capsys, extra, error):
        with pytest.raises(SystemExit) as exc:
            main(gen_args(tmp_path / "d") + extra)  # the last --count given wins
        assert exc.value.code == 2
        assert error in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("fraction", ["0", "1"])
    def test_count_one_and_the_fraction_bounds_are_accepted(self, tmp_path, fraction):
        args = build_parser().parse_args(gen_args(tmp_path / "d", count=1) + ["--single-kidney-fraction", fraction])
        assert args.count == 1 and args.single_kidney_fraction == float(fraction)


def write_tiny_cases(data_dir, n=2):
    """Handmade tiny cases the tiny config can train on."""
    data_dir.mkdir(parents=True, exist_ok=True)
    sp = Spacing(3.0, 1.5, 1.5)
    rng = np.random.default_rng(0)
    for i in range(n):
        mask = np.zeros((8, 24, 24), dtype=np.uint8)
        mask[2:6, 8:16, 3:9] = 1
        mask[2:6, 8:16, 15:21] = 1
        vol = mask * 1.0 + rng.normal(0, 0.05, mask.shape)
        write_volume(Volume3D(vol.astype(np.float32), sp), data_dir / f"case{i:04d}_volume.rvol")
        write_volume(Mask3D(mask, sp), data_dir / f"case{i:04d}_mask.rvol")


class TestTrain:
    def test_empty_data_dir_fails(self, tmp_path, desk_config, capsys):
        (tmp_path / "empty").mkdir()
        code = main([
            "train", "--stage", "coarse", "--data", str(tmp_path / "empty"),
            "--config", str(desk_config), "--out", str(tmp_path / "w.c2fw"),
        ])
        assert code == 2
        assert "no training pairs" in capsys.readouterr().err

    def test_trains_and_saves(self, tmp_path, desk_config, capsys):
        write_tiny_cases(tmp_path / "data")
        code = main([
            "train", "--stage", "coarse", "--data", str(tmp_path / "data"),
            "--config", str(desk_config), "--out", str(tmp_path / "w.c2fw"),
        ])
        assert code == 0
        assert (tmp_path / "w.c2fw").exists()

    def test_out_into_a_missing_directory(self, tmp_path, desk_config, capsys):
        write_tiny_cases(tmp_path / "data")
        out = tmp_path / "missing" / "sub" / "w.c2fw"
        code = main([
            "train", "--stage", "coarse", "--data", str(tmp_path / "data"),
            "--config", str(desk_config), "--out", str(out),
        ])
        assert code == 0, capsys.readouterr().err
        assert out.exists()

    def test_indivisible_dims_rejected(self, tmp_path, desk_config, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(DESK_CONFIG.replace("coarse_dims = 16, 16", "coarse_dims = 18, 18")
                       .replace("unet_depth = 1", "unet_depth = 2"))
        write_tiny_cases(tmp_path / "data")
        code = main([
            "train", "--stage", "coarse", "--data", str(tmp_path / "data"),
            "--config", str(bad), "--out", str(tmp_path / "w.c2fw"),
        ])
        assert code != 0
        assert "divisible" in capsys.readouterr().err

    def test_negative_seed_is_an_error_line(self, tmp_path, capsys):
        cfg = tmp_path / "neg.cfg"
        cfg.write_text(DESK_CONFIG.replace("seed = 7", "seed = -1"))
        write_tiny_cases(tmp_path / "data")
        code = main([
            "train", "--stage", "coarse", "--data", str(tmp_path / "data"),
            "--config", str(cfg), "--out", str(tmp_path / "w.c2fw"),
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
        assert not (tmp_path / "w.c2fw").exists()

    def test_missing_mask_reported_before_any_case_is_read(self, tmp_path, desk_config, monkeypatch, capsys):
        write_tiny_cases(tmp_path / "data", n=3)
        (tmp_path / "data" / "case0002_mask.rvol").unlink()
        reads = []
        monkeypatch.setattr(c2fseg.cli, "read_volume", lambda path: reads.append(path))
        code = main([
            "train", "--stage", "coarse", "--data", str(tmp_path / "data"),
            "--config", str(desk_config), "--out", str(tmp_path / "w.c2fw"),
        ])
        assert code == 1 and reads == []
        assert "no mask file for case0002_volume.rvol" in capsys.readouterr().err

    @pytest.mark.parametrize("stage", ["coarse", "fine", "abnormal"])
    def test_reads_one_case_at_a_time(self, tmp_path, stage, capsys):
        """The peak holds the set (twice, for the final concatenation) and two cases, not every case."""
        cfg = tmp_path / "once.cfg"
        cfg.write_text(DESK_CONFIG.replace("epochs = 2", "epochs = 0"))
        data = tmp_path / "data"
        assert main([*gen_args(data, count=6, dims="64,96,96"), "--config", str(cfg)]) == 0
        cases = [(read_volume(v), read_volume(str(v).replace("_volume", "_mask")))
                 for v in sorted(data.glob("*_volume.rvol"))]
        set_bytes = c2fseg.cli._STAGE_PREP[stage](cases, load_config(cfg).pipeline).nbytes
        case_bytes = cases[0][0].data.nbytes + cases[0][1].data.nbytes
        del cases
        tracemalloc.start()
        try:
            code = main([
                "train", "--stage", stage, "--data", str(data),
                "--config", str(cfg), "--out", str(tmp_path / "w.c2fw"),
            ])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0, capsys.readouterr().err
        assert peak < 2 * set_bytes + 2 * case_bytes, f"peak {peak / case_bytes:.2f} cases, set {set_bytes / case_bytes:.2f}"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
    def test_divergence_is_an_error_line(self, tmp_path, capsys):
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(DESK_CONFIG.replace("lr = 0.5", "lr = 1e30"))
        write_tiny_cases(tmp_path / "data")
        code = main([
            "train", "--stage", "coarse", "--data", str(tmp_path / "data"),
            "--config", str(cfg), "--out", str(tmp_path / "w.c2fw"),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: non-finite loss")
        assert not (tmp_path / "w.c2fw").exists()


@pytest.fixture
def trained_weights(tmp_path, desk_config):
    write_tiny_cases(tmp_path / "data")
    paths = {}
    for stage in ("coarse", "fine", "abnormal"):
        out = tmp_path / f"{stage}.c2fw"
        assert main([
            "train", "--stage", stage, "--data", str(tmp_path / "data"),
            "--config", str(desk_config), "--out", str(out),
        ]) == 0
        paths[stage] = out
    return paths


class TestPredictAndEval:
    def test_predict_writes_mask_and_report(self, tmp_path, desk_config, trained_weights, capsys):
        pred = tmp_path / "pred"
        code = main([
            "predict",
            "--input", str(tmp_path / "data" / "case0000_volume.rvol"),
            "--coarse", str(trained_weights["coarse"]),
            "--abnormal", str(trained_weights["abnormal"]),
            "--fine", str(trained_weights["fine"]),
            "--config", str(desk_config),
            "--out", str(pred / "case0000_fine.rvol"),
            "--emit-coarse", str(pred / "case0000_coarse.rvol"),
            "--report", str(pred / "case0000_report.json"),
        ])
        assert code == 0
        mask = read_volume(pred / "case0000_fine.rvol")
        assert isinstance(mask, Mask3D)
        assert mask.dims == (8, 24, 24)
        report = json.loads((pred / "case0000_report.json").read_text())
        assert report["case_id"] == "case0000"
        assert report["verdict"] in ("Normal", "Abnormal")
        timing = r"\[resample=[\d.]+s coarse=[\d.]+s guidance=[\d.]+s fine=[\d.]+s map_back=[\d.]+s\]"
        assert re.search(timing, capsys.readouterr().out)

    def predict_args(self, tmp_path, desk_config, trained_weights, out):
        return [
            "predict",
            "--input", str(tmp_path / "data" / "case0000_volume.rvol"),
            "--coarse", str(trained_weights["coarse"]),
            "--abnormal", str(trained_weights["abnormal"]),
            "--fine", str(trained_weights["fine"]),
            "--config", str(desk_config),
            "--out", str(out),
        ]

    def test_report_parent_directory_created(self, tmp_path, desk_config, trained_weights):
        args = self.predict_args(tmp_path, desk_config, trained_weights, tmp_path / "mask.rvol")
        assert main(args + ["--report", str(tmp_path / "reports" / "a.json")]) == 0
        assert json.loads((tmp_path / "reports" / "a.json").read_text())["case_id"] == "case0000"

    def test_out_is_a_directory_is_an_error_line(self, tmp_path, desk_config, trained_weights, capsys):
        (tmp_path / "taken").mkdir()
        assert main(self.predict_args(tmp_path, desk_config, trained_weights, tmp_path / "taken")) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_failed_report_write_leaves_no_mask(self, tmp_path, desk_config, trained_weights, capsys):
        # eval scores a case by its fine mask, so a predict that fails must not leave one
        (tmp_path / "rep").mkdir()
        args = self.predict_args(tmp_path, desk_config, trained_weights, tmp_path / "out" / "m.rvol")
        assert main(args + ["--report", str(tmp_path / "rep")]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out" / "m.rvol").exists()

    def test_eval_scores_and_reports(self, tmp_path, desk_config, trained_weights, capsys):
        pred = tmp_path / "pred"
        for i in range(2):
            main([
                "predict",
                "--input", str(tmp_path / "data" / f"case{i:04d}_volume.rvol"),
                "--coarse", str(trained_weights["coarse"]),
                "--abnormal", str(trained_weights["abnormal"]),
                "--fine", str(trained_weights["fine"]),
                "--config", str(desk_config),
                "--out", str(pred / f"case{i:04d}_fine.rvol"),
                "--emit-coarse", str(pred / f"case{i:04d}_coarse.rvol"),
                "--report", str(pred / f"case{i:04d}_report.json"),
            ])
        report_path = tmp_path / "report.txt"
        code = main([
            "eval", "--pred", str(pred), "--gt", str(tmp_path / "data"),
            "--report", str(report_path),
        ])
        assert code == 0
        text = report_path.read_text()
        assert "case0000" in text and "case0001" in text
        assert "coarse" in text and "fine" in text
        machine = json.loads((tmp_path / "report.txt.json").read_text())
        assert len(machine["cases"]) == 2
        assert set(machine["summary"]) == {"coarse", "fine"}

    def test_eval_geometry_mismatch_recorded_not_fatal(self, tmp_path, desk_config, trained_weights):
        pred = tmp_path / "pred"
        main([
            "predict",
            "--input", str(tmp_path / "data" / "case0000_volume.rvol"),
            "--coarse", str(trained_weights["coarse"]),
            "--abnormal", str(trained_weights["abnormal"]),
            "--fine", str(trained_weights["fine"]),
            "--config", str(desk_config),
            "--out", str(pred / "case0000_fine.rvol"),
        ])
        # wrong-geometry prediction for case0001
        write_volume(Mask3D(np.zeros((2, 2, 2), dtype=np.uint8), Spacing(3, 1.5, 1.5)),
                     pred / "case0001_fine.rvol")
        report_path = tmp_path / "report.txt"
        code = main([
            "eval", "--pred", str(pred), "--gt", str(tmp_path / "data"),
            "--report", str(report_path),
        ])
        assert code == 1  # failures present
        text = report_path.read_text()
        assert "case0001 ERROR" in text
        assert "case0000" in text  # batch completed

    def test_predict_accepts_nifti_input(self, tmp_path, desk_config, trained_weights):
        from test_fileio import build_nifti

        vol = read_volume(tmp_path / "data" / "case0000_volume.rvol")
        payload = vol.data.transpose(2, 1, 0).astype("<f4").tobytes()  # stored i-fastest
        nii = tmp_path / "case0000.nii"
        nii.write_bytes(
            build_nifti(
                dims=(24, 24, 8), pixdim=(1.5, 1.5, 3.0), datatype=16, payload=payload
            )
        )
        out = tmp_path / "nii_pred.rvol"
        code = main([
            "predict", "--input", str(nii),
            "--coarse", str(trained_weights["coarse"]),
            "--abnormal", str(trained_weights["abnormal"]),
            "--fine", str(trained_weights["fine"]),
            "--config", str(desk_config), "--out", str(out),
        ])
        assert code == 0
        mask = read_volume(out)
        assert mask.dims == (8, 24, 24)

    def test_truncated_gzip_input_is_an_error_line(self, tmp_path, desk_config, capsys):
        from test_fileio import build_nifti

        nii = tmp_path / "case.nii.gz"
        zipped = gzip.compress(build_nifti())
        nii.write_bytes(zipped[: len(zipped) // 2])
        code = main([
            "predict", "--input", str(nii),
            "--coarse", "x", "--abnormal", "y", "--fine", "z",
            "--config", str(desk_config), "--out", str(tmp_path / "o.rvol"),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_weights_that_do_not_fit_the_net_fail_before_any_stage(self, tmp_path, desk_config, capsys, monkeypatch):
        from c2fseg import ModelWeights, UNetSpec, cli, save_weights
        from c2fseg.nn.unet import init_weights

        def no_run_case(*args, **kwargs):
            raise AssertionError("run_case ran with weights that do not fit the net")

        monkeypatch.setattr(cli, "run_case", no_run_case)
        write_tiny_cases(tmp_path / "data", n=1)
        params = init_weights(UNetSpec(depth=1, base_channels=2), seed=0)
        save_weights(ModelWeights(params), tmp_path / "good.c2fw")
        del params["head.b"]
        save_weights(ModelWeights(params), tmp_path / "bad.c2fw")
        code = main([
            "predict", "--input", str(tmp_path / "data" / "case0000_volume.rvol"),
            "--coarse", str(tmp_path / "good.c2fw"), "--abnormal", str(tmp_path / "good.c2fw"),
            "--fine", str(tmp_path / "bad.c2fw"),
            "--config", str(desk_config), "--out", str(tmp_path / "o.rvol"),
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: missing parameter 'head.b' for layer 'head'\n"
        assert not (tmp_path / "o.rvol").exists()

    def test_stage_dims_the_net_cannot_take_exit_2_on_a_normal_case(self, tmp_path, capsys):
        """A Normal case never runs the abnormal net, so only a check up front catches its stage dims."""
        from test_pipeline import PHANTOM_KW, threshold_unet

        from c2fseg import PhantomSpec, UNetSpec, generate_phantom, save_weights

        cfg = tmp_path / "cfg"
        cfg.write_text(
            "normalized_spacing = 3.0, 0.7816, 0.7816\ncoarse_dims = 32, 32\nfine_dims = 32, 32\n"
            "abnormal_dims = 30, 64\nth_vn = 300\nunet_depth = 2\nunet_base_channels = 4\n"
        )
        for seed in (1, 2, 3):
            save_weights(threshold_unet(UNetSpec(depth=2, base_channels=4), seed).weights, tmp_path / f"{seed}.c2fw")
        vol, _ = generate_phantom(PhantomSpec(seed=8, **PHANTOM_KW))  # Normal: two kidneys
        write_volume(vol, tmp_path / "case_volume.rvol")
        code = main([
            "predict", "--input", str(tmp_path / "case_volume.rvol"),
            "--coarse", str(tmp_path / "1.c2fw"), "--abnormal", str(tmp_path / "2.c2fw"),
            "--fine", str(tmp_path / "3.c2fw"), "--config", str(cfg), "--out", str(tmp_path / "o.rvol"),
        ])
        assert (code, capsys.readouterr().err) == (2, "error: abnormal dims (30, 64) not divisible by 2^2\n")
        assert not (tmp_path / "o.rvol").exists()

    def test_missing_input_exits_nonzero(self, tmp_path, desk_config, capsys):
        code = main([
            "predict", "--input", str(tmp_path / "nope.rvol"),
            "--coarse", "x", "--abnormal", "y", "--fine", "z",
            "--config", str(desk_config), "--out", str(tmp_path / "o.rvol"),
        ])
        assert code != 0


def write_eval_dirs(tmp_path, masks):
    """Write ``{case_id: (gt, fine, coarse-or-None, verdict)}`` as the files ``c2fseg eval`` reads."""
    gt_dir, pred_dir = tmp_path / "gt", tmp_path / "pred"
    gt_dir.mkdir()
    pred_dir.mkdir()
    for case_id, (gt, fine, coarse, verdict) in masks.items():
        write_volume(gt, gt_dir / f"{case_id}_mask.rvol")
        write_volume(fine, pred_dir / f"{case_id}_fine.rvol")
        if coarse is not None:
            write_volume(coarse, pred_dir / f"{case_id}_coarse.rvol")
        (pred_dir / f"{case_id}_report.json").write_text(json.dumps({"verdict": verdict}))
    return ["eval", "--pred", str(pred_dir), "--gt", str(gt_dir), "--report", str(tmp_path / "report.txt")]


class TestEvalScoring:
    def test_matches_evaluate_split(self, tmp_path):
        from dataclasses import asdict

        from c2fseg import (
            PhantomSpec,
            PipelineConfig,
            StageModels,
            ThresholdModel,
            evaluate_split,
            generate_phantom,
        )
        from test_bench import PHANTOM_KW, SP

        cases = [
            (f"c{i}", *generate_phantom(PhantomSpec(seed=i, noise_sigma=0.4, **PHANTOM_KW)))
            for i in range(3)
        ]
        m = ThresholdModel(0.5)
        cfg = PipelineConfig(
            normalized_spacing=SP, coarse_dims=(32, 32), fine_dims=(32, 32),
            abnormal_dims=(16, 32), th_vn=300,
        )
        report = evaluate_split(cases, StageModels(coarse=m, abnormal=m, fine=m), cfg)
        assert report.fine_summary["std"] > 0  # noisy cases, so the summaries are not trivial
        args = write_eval_dirs(tmp_path, {
            cid: (gt, report.results[cid].fine_mask, report.results[cid].coarse_mask,
                  report.results[cid].verdict.verdict)
            for cid, _, gt in cases
        })
        assert main(args) == 0
        machine = json.loads((tmp_path / "report.txt.json").read_text())
        assert machine["summary"] == {"coarse": report.coarse_summary, "fine": report.fine_summary}
        assert machine["cases"] == [asdict(s) for s in report.scores]

    def test_missing_coarse_is_left_out_of_its_summary(self, tmp_path):
        sp = Spacing(1, 1, 1)
        gt = Mask3D(np.ones((1, 2, 2), dtype=np.uint8), sp)
        half = Mask3D(np.array([[[1, 1], [0, 0]]], dtype=np.uint8), sp)
        args = write_eval_dirs(tmp_path, {"a": (gt, gt, half, "Normal"), "b": (gt, half, None, "-")})
        assert main(args) == 0
        lines = (tmp_path / "report.txt").read_text().splitlines()
        assert lines[:2] == ["a 0.666667 1.000000 Normal", "b - 0.666667 -"]
        summary = json.loads((tmp_path / "report.txt.json").read_text())["summary"]
        assert summary["coarse"]["max"] == summary["coarse"]["min"] == pytest.approx(2 / 3)
        assert summary["fine"]["min"] == pytest.approx(2 / 3) and summary["fine"]["max"] == 1.0

    def test_non_mask_coarse_prediction_is_an_error_row(self, tmp_path, capsys):
        sp = Spacing(1, 1, 1)
        gt = Mask3D(np.ones((1, 2, 2), dtype=np.uint8), sp)
        intensity = Volume3D(np.full((1, 2, 2), 0.5, dtype=np.float32), sp)
        args = write_eval_dirs(tmp_path, {"a": (gt, gt, gt, "Normal"), "b": (gt, gt, intensity, "Normal")})
        assert main(args) == 1
        text = (tmp_path / "report.txt").read_text()
        assert "a 1.000000 1.000000 Normal" in text
        assert "b ERROR predictions and ground truth must be masks" in text
        assert "error: 1 case(s) failed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "report", ["[1, 2]", '"Normal"', '{"verdict": 3}', "null"], ids=["list", "string", "int-verdict", "null"]
    )
    def test_report_without_a_string_verdict_is_an_error_row(self, tmp_path, capsys, report):
        sp = Spacing(1, 1, 1)
        gt = Mask3D(np.ones((1, 2, 2), dtype=np.uint8), sp)
        args = write_eval_dirs(tmp_path, {"a": (gt, gt, gt, "Normal"), "b": (gt, gt, gt, "Normal")})
        (tmp_path / "pred" / "b_report.json").write_text(report)
        assert main(args) == 1
        text = (tmp_path / "report.txt").read_text()
        assert "a 1.000000 1.000000 Normal" in text
        assert "b ERROR b_report.json is not a JSON object with a string verdict" in text
        assert "error: 1 case(s) failed" in capsys.readouterr().err
