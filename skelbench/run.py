"""Benchmark of skelcl: one workload, one seed, one run.

    python3 skelbench/run.py --blas-threads 1 --workload desk-pretrain \
        --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The data are generated from --seed
and written under .skelbench/ (removed afterwards); a second process
then runs the workload for about --seconds seconds and checks its
outputs.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.  Lines above it
show every metric with its unit, the error rate, and any failed check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("desk-pretrain", "queue-pretrain", "probe-eval")
DEADLINE_S = 175.0
PREPARE_TIMEOUT_S = 90.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", type=int, default=1)
    return parser.parse_args(argv)


def child_env(blas_threads: int) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], env: dict, timeout: float) -> None:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=env, cwd=ROOT, timeout=timeout, stdout=subprocess.PIPE, text=True,
    )
    if proc.stdout:
        sys.stderr.write(proc.stdout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited with code {proc.returncode}")


def report(result: dict, traced: bool) -> dict:
    """Print the human-readable lines; return the result line."""
    reported = result["reported"]
    attempted, failed = result["attempted"], result["failed"]
    for name, metric in reported.items():
        print(f"{name:34s} {metric['value']:14.6g} {metric['unit']}")
    error_rate = failed / attempted if attempted else 1.0
    print(f"{'error_rate':34s} {error_rate:14.6g} (failed {failed} of {attempted} attempted)")
    for key, value in result["notes"].items():
        print(f"note {key}: {value}")
    for problem in result["problems"]:
        print(f"FAILED CHECK: {problem}")
    complete = traced or all(
        name in reported and reported[name]["value"] > 0 for name in result["expected"]
    )
    if not complete:
        print("FAILED CHECK: some end-to-end metric is missing or not positive")
    return {
        "correct": failed == 0 and attempted > 0 and complete,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": reported,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    if not (ROOT / "src" / "skelcl" / "__init__.py").is_file():
        print(f"error: no skelcl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    if not 1 <= args.blas_threads <= nproc:
        print(f"error: --blas-threads {args.blas_threads} outside 1..{nproc}", file=sys.stderr)
        return 2

    base = ROOT / ".skelbench"
    workdir = base / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    spans_path = base / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
    env = child_env(args.blas_threads)
    try:
        workdir.mkdir(parents=True)
        run_child(["prepare", args.workload, str(args.seed), str(workdir)], env, PREPARE_TIMEOUT_S)
        remaining = DEADLINE_S - (time.monotonic() - started)
        run_child(
            ["measure", args.workload, str(workdir), str(args.seconds), str(args.trace),
             str(spans_path)],
            env, remaining,
        )
        result = json.loads((workdir / "result.json").read_text())
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"blas_threads {args.blas_threads}")
    print(json.dumps(report(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
