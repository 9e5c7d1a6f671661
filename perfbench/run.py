"""Seeded benchmark of c2fseg: one command prints every metric of one run.

Run from the repository root:

    python3 perfbench/run.py --workload desk_oracle --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs a separate
traced pass and prints the per-layer metrics. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``; the line before it holds the run context. Both are also
written to ``perfbench/results/``. See ``perfbench/README.md``.

This script imports only the standard library. Input generation, the set-up
probes and the timed run each happen in a child process of ``worker.py``, so
the timed run's peak RSS is not inflated by input generation. The untraced
timed run starts one more process of its own, the reference kernel of
``reference.py``, and stops it before it ends.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
RESULTS = HERE / "results"
WORK = HERE / ".work"

WORKLOADS = ("desk_oracle", "ct_unet", "train_desk")

# One client, one BLAS thread: the steadiest timings on a small shared box.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

# Set-up is measured in this many fresh processes besides the timed one; the median is reported.
SETUP_PROBES = 6

DEADLINE_S = 170.0  # the whole run, generation included, must end within 180 s


def _commit() -> str:
    """HEAD of the checkout, read from .git without running git (which would search parent directories)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))


def _worker(env, deadline: float, *args) -> dict | None:
    """Run one worker child to completion; return its JSON line (None for ``gen``)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise SystemExit("error: out of time before the run finished")
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args], env=env, cwd=ROOT, stdout=subprocess.PIPE, timeout=remaining, text=True
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: worker {args[0]} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    # On SIGTERM, unwind like an exception: subprocess.run then kills and waits for the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "c2fseg" / "__init__.py").is_file():
        print(f"error: no c2fseg sources under {SRC}", file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    inputs = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ("--workload", args.workload, "--inputs", str(inputs))
    try:
        _worker(env, deadline, "gen", *common, "--seed", str(args.seed))
        probes = [_worker(env, deadline, "setup", *common)["setup_s"] for _ in range(SETUP_PROBES)]
        run = _worker(
            env, deadline, "run", *common, "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--spans", str(RESULTS / f"{tag}-spans.jsonl"),
        )
    except subprocess.TimeoutExpired:
        print("error: the run did not finish in time", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    setup = probes + [run["setup_s"]]
    metrics = {name: {"value": value, "unit": _unit(name)} for name, value in run["metrics"].items()}
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "commit": _commit(),
        "src_lines": _src_lines(),
        "setup_s_samples": setup,
        **run["context"],
    }
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    (RESULTS / f"{tag}.json").write_text(json.dumps({"context": context, "result": result}, indent=1) + "\n")
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


def _unit(name: str) -> str:
    for suffix, unit in _UNITS:
        if name.endswith(suffix):
            return unit
    raise KeyError(f"no unit for metric {name!r}")


_UNITS = (
    ("gflop_per_s", "GFLOP/s"),
    ("mvox_per_s", "Mvox/s"),
    ("_per_s", "1/s"),
    ("_per_ref", "1/ref"),
    ("_ref.p50", "ref"),
    ("_s", "s"),
    (".s", "s"),
    ("_mb", "MB"),
    (".mb", "MB"),
    (".gflop", "GFLOP"),
    ("_share", "share"),
    (".mean", "dsc"),
    (".calls", "count"),
    (".slices", "count"),
    (".fg_voxels", "count"),
    (".batch_mean", "count"),
)


if __name__ == "__main__":
    raise SystemExit(main())
