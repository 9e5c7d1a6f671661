"""Command-line surface: phantom-gen, train, predict, eval.

Reports never embed wall-clock values, so runs with identical inputs and
seeds produce byte-identical output files; timings go to stdout only.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .bench import CaseScore, PhantomSpec, dsc, generate_phantom, score_cases
from .config import RunConfig, default_config, load_config
from .errors import FormatError, TrainingDivergedError
from .fileio import read_nifti, read_volume, write_volume
from .nn.models import UNetModel
from .nn.train import fit
from .nn.weights import load_weights, save_weights
from .pipeline import (
    StageModels,
    prepare_abnormal_set,
    prepare_coarse_set,
    prepare_fine_set,
    run_case,
)
from .volume import Mask3D, Volume3D


def _checked(parse, ok, need: str):
    """An argparse type that parses with ``parse`` and rejects a value ``ok`` refuses."""

    def check(text: str):
        value = parse(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must {need}, got {text}")
        return value

    check.__name__ = parse.__name__  # argparse names it in "invalid int value: 'x'"
    return check


def _load_cases(data_dir: Path):
    """Check that every case has its mask file, then read and yield one (volume, mask) pair at a time."""
    vol_paths = sorted(data_dir.glob("*_volume.rvol"))
    paths = [(v, v.with_name(v.name.replace("_volume.rvol", "_mask.rvol"))) for v in vol_paths]
    for vol_path, mask_path in paths:
        if not mask_path.exists():
            raise FileNotFoundError(f"no mask file for {vol_path.name} (expected {mask_path.name})")
    for vol_path, mask_path in paths:
        vol = read_volume(vol_path)
        mask = read_volume(mask_path)
        if not isinstance(vol, Volume3D):
            raise FormatError(f"{vol_path.name}: expected an intensity volume")
        if not isinstance(mask, Mask3D):
            raise FormatError(f"{mask_path.name}: expected a mask")
        yield vol, mask


def _read_input_volume(path: Path, cfg: RunConfig) -> Volume3D:
    if path.suffix == ".rvol":
        vol = read_volume(path)
    else:
        vol = read_nifti(path, depth_axis=cfg.nifti_depth_axis)
    if not isinstance(vol, Volume3D):
        raise FormatError(f"{path.name}: expected an intensity volume, found a mask")
    return vol


def _case_id_from_path(path: Path) -> str:
    name = path.name
    for suffix in (".nii.gz", ".nii", ".rvol"):
        if name.endswith(suffix):
            name = name[: -len(suffix)]
            break
    if name.endswith("_volume"):
        name = name[: -len("_volume")]
    return name


def cmd_phantom_gen(args) -> int:
    cfg = load_config(args.config) if args.config else default_config()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    chooser = np.random.default_rng(args.seed)
    for i in range(args.count):
        single = chooser.uniform() < args.single_kidney_fraction
        spec = PhantomSpec(
            dims=args.dims,
            spacing=cfg.pipeline.normalized_spacing,
            n_kidneys=1 if single else 2,
            noise_sigma=args.noise,
            seed=args.seed * 100003 + i,
        )
        vol, mask = generate_phantom(spec)
        write_volume(vol, out_dir / f"case{i:04d}_volume.rvol")
        write_volume(mask, out_dir / f"case{i:04d}_mask.rvol")
    print(f"wrote {args.count} phantom case(s) to {out_dir}")
    return 0


_STAGE_PREP = {
    "coarse": prepare_coarse_set,
    "fine": prepare_fine_set,
    "abnormal": prepare_abnormal_set,
}


def _stage_dims_fit(cfg: RunConfig, stages) -> bool:
    """False, after an error line, if the dims of one of ``stages`` cannot be pooled ``cfg.unet.depth`` times."""
    step = 2**cfg.unet.depth
    for stage in stages:
        dims = getattr(cfg.pipeline, f"{stage}_dims")
        if dims[0] % step or dims[1] % step:
            print(f"error: {stage} dims {dims} not divisible by 2^{cfg.unet.depth}", file=sys.stderr)
            return False
    return True


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    if not _stage_dims_fit(cfg, [args.stage]):
        return 2
    pairs = _STAGE_PREP[args.stage](_load_cases(Path(args.data)), cfg.pipeline)
    if len(pairs) == 0:
        print("error: no training pairs", file=sys.stderr)
        return 2
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)  # before training, so the weights can be saved
    print(f"training {args.stage} model on {len(pairs)} slice pairs ...")
    weights, trace = fit(cfg.unet, pairs, cfg.train)
    save_weights(weights, args.out)
    print(f"epoch losses: {' '.join(f'{v:.4f}' for v in trace)}")
    print(f"saved weights to {args.out}")
    return 0


def cmd_predict(args) -> int:
    cfg = load_config(args.config)
    if not _stage_dims_fit(cfg, _STAGE_PREP):
        return 2
    vol = _read_input_volume(Path(args.input), cfg)
    models = StageModels(
        coarse=UNetModel(cfg.unet, load_weights(args.coarse)),
        abnormal=UNetModel(cfg.unet, load_weights(args.abnormal)),
        fine=UNetModel(cfg.unet, load_weights(args.fine)),
    )
    result = run_case(vol, models, cfg.pipeline)
    # The fine mask goes last: eval scores a case by it, so a failed write before it leaves none.
    if args.emit_coarse:
        Path(args.emit_coarse).parent.mkdir(parents=True, exist_ok=True)
        write_volume(result.coarse_mask, args.emit_coarse)
    if args.report:
        report = {
            "case_id": _case_id_from_path(Path(args.input)),
            "verdict": result.verdict.verdict,
            "n_kidney": result.verdict.n_kidney,
            "kidney_ids": list(result.verdict.kidney_ids),
            "flags": list(result.flags),
        }
        Path(args.report).parent.mkdir(parents=True, exist_ok=True)
        Path(args.report).write_text(json.dumps(report, indent=2) + "\n")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_volume(result.fine_mask, out)
    timing = " ".join(f"{k}={v:.2f}s" for k, v in result.timings.items())
    print(f"verdict={result.verdict.verdict} n_kidney={result.verdict.n_kidney} [{timing}]")
    print(f"wrote mask to {out}")
    return 0


def _format_summary_line(stage: str, stats: dict[str, float]) -> str:
    return (
        f"{stage:<7} {stats['mean'] * 100:.2f} ± {stats['std'] * 100:.2f}"
        f"  max {stats['max'] * 100:.2f}  min {stats['min'] * 100:.2f}"
    )


def _score_prediction(case_id: str, gt_path: Path, pred_dir: Path) -> CaseScore:
    """Score ``<case>_fine.rvol``, and ``<case>_coarse.rvol`` if present, against ``gt_path``."""
    gt = read_volume(gt_path)
    fine_path = pred_dir / f"{case_id}_fine.rvol"
    if not fine_path.exists():
        raise FileNotFoundError(f"missing prediction {fine_path.name}")
    fine = read_volume(fine_path)
    if not isinstance(fine, Mask3D) or not isinstance(gt, Mask3D):
        raise FormatError("predictions and ground truth must be masks")
    fine_dsc = dsc(fine, gt)
    coarse_path = pred_dir / f"{case_id}_coarse.rvol"
    coarse_dsc = None
    if coarse_path.exists():
        coarse = read_volume(coarse_path)
        if not isinstance(coarse, Mask3D):
            raise FormatError("predictions and ground truth must be masks")
        coarse_dsc = dsc(coarse, gt)
    verdict = "-"
    report_path = pred_dir / f"{case_id}_report.json"
    if report_path.exists():
        report = json.loads(report_path.read_text())
        if not isinstance(report, dict) or not isinstance(verdict := report.get("verdict", "-"), str):
            raise FormatError(f"{report_path.name} is not a JSON object with a string verdict")
    return CaseScore(case_id, coarse_dsc, fine_dsc, verdict)


def cmd_eval(args) -> int:
    pred_dir, gt_dir = Path(args.pred), Path(args.gt)
    gt_files = sorted(gt_dir.glob("*_mask.rvol"))
    if not gt_files:
        print(f"error: no ground-truth masks (*_mask.rvol) in {gt_dir}", file=sys.stderr)
        return 2
    report = score_cases(
        ((p.name[: -len("_mask.rvol")], p, pred_dir) for p in gt_files),
        _score_prediction,
    )

    lines = []
    for s in report.scores:
        coarse_txt = f"{s.coarse_dsc:.6f}" if s.coarse_dsc is not None else "-"
        lines.append(f"{s.case_id} {coarse_txt} {s.fine_dsc:.6f} {s.verdict}")
    for case_id, message in report.failures:
        lines.append(f"{case_id} ERROR {message}")

    lines.append("")
    lines.append("# stage   mean±std [%]  max [%]  min [%]")
    summary_json: dict[str, dict] = {}
    for stage, stats in (("coarse", report.coarse_summary), ("fine", report.fine_summary)):
        if stats:
            lines.append(_format_summary_line(stage, stats))
            summary_json[stage] = stats
        else:
            lines.append(f"{stage:<7} n/a")

    report_path = Path(args.report)
    report_path.parent.mkdir(parents=True, exist_ok=True)
    report_path.write_text("\n".join(lines) + "\n")
    machine = {
        "cases": [asdict(s) for s in report.scores],
        "failures": [{"case_id": c, "error": m} for c, m in report.failures],
        "summary": summary_json,
    }
    Path(str(report_path) + ".json").write_text(json.dumps(machine, indent=2) + "\n")

    print("\n".join(lines))
    if report.failures:
        print(f"error: {len(report.failures)} case(s) failed", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="c2fseg",
        description="Coarse-to-fine volumetric binary segmentation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def dims(text: str) -> tuple[int, ...]:  # argparse names it in "invalid dims value: 'x'"
        return tuple(int(part) for part in text.split(","))

    p = sub.add_parser("phantom-gen", help="generate synthetic phantom volume/mask pairs")
    p.add_argument("--count", type=_checked(int, lambda n: n >= 1, "be at least 1"), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_checked(int, lambda n: n >= 0, "be non-negative"), required=True)
    p.add_argument(
        "--single-kidney-fraction", type=_checked(float, lambda x: 0.0 <= x <= 1.0, "lie in [0, 1]"), default=0.0
    )
    p.add_argument(
        "--dims", type=_checked(dims, lambda d: len(d) == 3 and min(d) >= 1, "be three positive ints D,H,W"),
        default=(64, 96, 96),
    )
    p.add_argument(
        "--noise", type=_checked(float, lambda x: 0.0 <= x < np.inf, "be finite and non-negative"), default=0.0
    )
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_phantom_gen)

    p = sub.add_parser("train", help="train one stage model on volume/mask pairs")
    p.add_argument("--stage", choices=("coarse", "fine", "abnormal"), required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="run the full pipeline on one volume")
    p.add_argument("--input", required=True)
    p.add_argument("--coarse", required=True)
    p.add_argument("--abnormal", required=True)
    p.add_argument("--fine", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--emit-coarse", default=None)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="score predicted masks against ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, TrainingDivergedError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
