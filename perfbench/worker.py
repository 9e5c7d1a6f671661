"""Benchmark worker process: input generation, set-up probes and the timed run.

``run.py`` starts this script with the BLAS thread count already pinned in the
environment. Nothing heavy is imported at module level, so the set-up time
measured by ``setup`` and ``run`` includes importing numpy and c2fseg.

    python3 perfbench/worker.py gen   --workload W --inputs DIR --seed N
    python3 perfbench/worker.py setup --workload W --inputs DIR
    python3 perfbench/worker.py run   --workload W --inputs DIR --seconds S --trace 0|1 --spans FILE
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
import traceback
from collections.abc import Callable
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Every end-to-end median rests on at least this many cycles: with one
# ct_unet cycle the median would rest on only four cases.
MIN_CYCLES = 2

# The reference kernel runs between items, at least every REF_EVERY_S seconds
# of item time, so every item is bracketed by two reference timings.
REF_EVERY_S = 2.0

# Fine DSC floor of the ct_unet gate. Resampling to the normalized grid and
# mapping back with nearest neighbour costs about 2% DSC on these phantoms.
CT_DSC_FLOOR = 0.97


@dataclass
class Outcome:
    seconds: float
    slices: int  # inference: input axial slices; training: slice pairs x epochs
    dsc: float  # fine DSC; for training, the fine net's last-epoch soft Dice
    abnormal: bool
    ok: bool
    why: str = ""
    ref: float = math.nan  # mean time of the two reference runs that bracket this item


def _setup(workload: str, inputs: Path):
    """Import, weight loading and model construction, timed as set-up."""
    t0 = time.perf_counter()
    import workloads

    models, cfg = workloads.stage_models(workload, inputs)
    setup_s = time.perf_counter() - t0
    import c2fseg

    if Path(c2fseg.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: c2fseg was imported from {c2fseg.__file__}, not from {SRC}")
    return models, cfg, setup_s


def _load_desk(path: Path):
    import numpy as np

    from c2fseg import Mask3D, Volume3D
    from workloads import DESK_SPACING

    arrays = np.load(path)
    return Volume3D(arrays["volume"], DESK_SPACING), Mask3D(arrays["mask"], DESK_SPACING)


def _span(tracer, name: str, **attrs):
    return tracer.span(name, **attrs) if tracer is not None else nullcontext()


class Runner:
    """Runs one item of a workload (a case, or a whole training run) and gates its output."""

    def __init__(self, workload: str, inputs: Path, models, cfg):
        import workloads

        self.workload, self.models, self.cfg = workload, models, cfg
        self.first_cycle_rss_mb = math.nan  # set by loop() when the first cycle ends
        suffix = ".nii.gz" if workload == "ct_unet" else ".npz"
        self.items = [(case, inputs / f"{case['id']}{suffix}") for case in workloads.load_manifest(inputs)]
        if workload == "train_desk":
            self.items = [[_load_desk(path) for _, path in self.items]]  # one item: the whole training split
            self.cycle = 1
        else:
            self.cycle = len(workloads.CYCLE_KIDNEYS)

    def run(self, item, tracer=None) -> Outcome:
        if self.workload == "train_desk":
            return self._train(item, tracer)
        return self._case(item, tracer)

    def _case(self, item, tracer) -> Outcome:
        import numpy as np

        from c2fseg import Mask3D, dsc, read_nifti, run_case, write_volume

        case, path = item
        if tracer is not None:
            tracer.case = case["id"]
        if self.workload == "ct_unet":
            mb = path.stat().st_size / 1e6
            t0 = time.perf_counter()
            with _span(tracer, "case"):
                with _span(tracer, "fileio.read_nifti", mb=mb):
                    vol = read_nifti(path)
                res = run_case(vol, self.models, self.cfg)
                with _span(tracer, "fileio.write_volume"):
                    write_volume(res.fine_mask, path.with_name(f"{case['id']}_fine.rvol"))
            seconds = time.perf_counter() - t0
            gt = Mask3D(np.load(path.with_name(f"{case['id']}_mask.npy")), vol.spacing)
            floor = CT_DSC_FLOOR
        else:
            vol, gt = _load_desk(path)  # one case at a time, so inputs do not inflate peak RSS
            t0 = time.perf_counter()
            with _span(tracer, "case"):
                res = run_case(vol, self.models, self.cfg)
            seconds = time.perf_counter() - t0
            floor = 1.0  # the threshold oracle must reproduce the mask exactly
        expected = "Normal" if case["kidneys"] == 2 else "Abnormal"
        score = dsc(res.fine_mask, gt)
        why = []
        if res.verdict.verdict != expected:
            why.append(f"verdict {res.verdict.verdict}, expected {expected}")
        if not score >= floor:
            why.append(f"fine DSC {score:.5f} < {floor}")
        return Outcome(seconds, vol.dims[0], score, not res.verdict.is_normal, not why, "; ".join(why))

    def _train(self, cases, tracer) -> Outcome:
        from c2fseg import fit
        from c2fseg.pipeline import prepare_abnormal_set, prepare_coarse_set, prepare_fine_set
        from workloads import TRAIN_SPEC

        prepare = {"coarse": prepare_coarse_set, "fine": prepare_fine_set, "abnormal": prepare_abnormal_set}
        if tracer is not None:
            tracer.case = "train"
        losses, slices = {}, 0
        t0 = time.perf_counter()
        with _span(tracer, "case"):
            for stage, hyper in self.models.items():
                with _span(tracer, "pipeline.prepare"):
                    pairs = prepare[stage](cases, self.cfg)
                with _span(tracer, "nn.train.fit"):
                    _, losses[stage] = fit(TRAIN_SPEC, pairs, hyper)
                slices += len(pairs) * hyper.epochs
        seconds = time.perf_counter() - t0
        why = [
            f"{stage} losses {trace} not finite and falling"
            for stage, trace in losses.items()
            if not (all(math.isfinite(v) for v in trace) and trace[-1] < trace[0])
        ]
        return Outcome(seconds, slices, 1.0 - losses["fine"][-1], False, not why, "; ".join(why))

    def loop(
        self, seconds: float, tracer=None, min_cycles: int = 1, reference: Callable[[], float] | None = None
    ) -> list[Outcome | None]:
        """Closed loop, one item at a time, in as many whole cycles as fit in
        ``seconds`` (judged by the mean cycle time so far), and at least ``min_cycles``.

        An item that raises is reported and recorded as None; it is never retried.
        With ``reference`` (a function that times the reference kernel once), the
        kernel runs before the first item, after the last, and between items at
        least every ``REF_EVERY_S`` seconds of item time; each item's ``ref`` is
        the mean of the two timings that bracket it.
        """
        outcomes: list[Outcome | None] = []
        pending: list[Outcome | None] = []  # items since the last reference run
        ref_before = reference() if reference else math.nan
        since_ref = 0.0
        start = time.perf_counter()
        while True:
            item = self.items[len(outcomes) % len(self.items)]
            t0 = time.perf_counter()
            try:
                outcome = self.run(item, tracer)
            except Exception:  # the run must go on; the failure is counted
                traceback.print_exc()
                outcome = None
            since_ref += time.perf_counter() - t0
            if outcome is not None and not outcome.ok:
                print(f"gate failed: {outcome.why}", file=sys.stderr)
            outcomes.append(outcome)
            pending.append(outcome)
            cycles, partial = divmod(len(outcomes), self.cycle)
            if cycles == 1 and not partial:
                self.first_cycle_rss_mb = _peak_rss_mb()
            stop = not partial and cycles >= min_cycles and (time.perf_counter() - start) * (cycles + 1) / cycles > seconds
            if reference and (stop or since_ref >= REF_EVERY_S):
                ref_after = reference()
                for o in pending:
                    if o is not None:
                        o.ref = (ref_before + ref_after) / 2
                ref_before, pending, since_ref = ref_after, [], 0.0
            if stop:
                return outcomes


def _end_to_end(done: list[Outcome]) -> dict[str, float]:
    """Item times in reference units: each item's wall time over the reference time that brackets it."""
    total = sum(o.seconds / o.ref for o in done)
    return {
        "case_ref.p50": statistics.median(o.seconds / o.ref for o in done),
        "cases_per_ref": len(done) / total,
        "slices_per_ref": sum(o.slices for o in done) / total,
        "fine_dsc.mean": statistics.fmean(o.dsc for o in done),
    }


def _wall_clock(done: list[Outcome]) -> dict[str, float]:
    """The same figures in plain seconds, for the run context."""
    total = sum(o.seconds for o in done)
    return {
        "case_s.p50": statistics.median(o.seconds for o in done),
        "cases_per_s": len(done) / total,
        "slices_per_s": sum(o.slices for o in done) / total,
        "ref_s.p50": statistics.median(o.ref for o in done),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # ru_maxrss is KiB on Linux


def cmd_run(args) -> dict:
    models, cfg, setup_s = _setup(args.workload, args.inputs)
    runner = Runner(args.workload, args.inputs, models, cfg)
    rss_before = _peak_rss_mb()
    if args.trace:
        import tracing

        untraced = runner.loop(args.seconds / 2)
        tracer = tracing.Tracer()
        try:
            tracing.install(tracer)
            traced = runner.loop(args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        outcomes = untraced + traced
    else:
        from reference import Reference

        with Reference() as ref:
            outcomes = runner.loop(args.seconds, min_cycles=MIN_CYCLES, reference=ref.time)
    done = [o for o in outcomes if o is not None]
    if not done:
        raise SystemExit("error: every item raised; nothing was measured")
    failed = sum(1 for o in outcomes if o is None or not o.ok)
    if args.trace:
        plain = [o for o in untraced if o is not None]
        seen = [o for o in traced if o is not None]
        if not plain or not seen:
            raise SystemExit("error: the untraced or the traced phase measured nothing")
        overhead = statistics.median(o.seconds for o in seen) / statistics.median(o.seconds for o in plain) - 1
        metrics = tracing.per_layer_metrics(tracer, len(seen), sum(o.abnormal for o in seen), overhead)
        tracer.write(args.spans)
        extra = {"traced_items": len(seen), "absent": tracer.absent, "spans": len(tracer.spans)}
    else:
        # The high-water mark after one whole cycle: every kind of case has run
        # once. Later cycles only add the allocator's history (see README).
        metrics = {**_end_to_end(done), "peak_rss_mb": runner.first_cycle_rss_mb}
        extra = {
            "rss_before_timed_mb": rss_before,
            "rss_whole_run_mb": _peak_rss_mb(),
            "wall_clock": _wall_clock(done),
            "item_ref": [round(o.ref, 4) for o in done],
        }
    import numpy as np

    context = {
        "items": len(done),
        "abnormal_items": sum(o.abnormal for o in done),
        "fail_share": failed / len(outcomes),
        "item_s": [round(o.seconds, 4) for o in done],
        "numpy": np.__version__,
        **extra,
    }
    return {"attempted": len(outcomes), "failed": failed, "metrics": metrics, "setup_s": setup_s, "context": context}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("mode", choices=("gen", "setup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.mode == "gen":
        import workloads

        workloads.generate(args.workload, args.seed, args.inputs)
        return 0
    if args.mode == "setup":
        result = {"setup_s": _setup(args.workload, args.inputs)[2]}
    else:
        result = cmd_run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
