"""Run alternating parent/change pairs of the benchmark on one workload.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload probe-eval \
        --seed 2222 --pairs 10 [--out pairs.json] [--workdir DIR]

DIR is the root of a checkout (a `git archive` of a commit will do).
Each side runs from a fresh copy of its tree, made in a new directory,
removed afterwards, under --workdir (created if missing; a temporary
one by default): the directory a tree runs from has moved desk-pretrain
`step_ms_p50` by 13% with the code unchanged, so both sides get one
made the same way.  The
command is `BENCHMARK.json`'s, from the change's tree, with
`--workload`, `--seed` and `--seconds` (its `run_seconds`) added; pair
i runs the parent first when i is even and the change first when it is
odd.

For each end-to-end metric `BENCHMARK.json` lists, the summary holds
each side's median and quartiles (NumPy percentiles 25, 50 and 75), the
pairs the change wins (ties count for neither side), the relative change
of the medians, whether that change is worse than the metric's bound,
and a verdict: "better" or "worse" only where the medians differ by more
than the parent's interquartile range, else "unresolved".  Where the
parent's runs do not vary (an interquartile range of 0, as for a
deterministic loss) no gap can be told from rounding, so the verdict is
"identical" or "changed", with the relative change beside it.
`gain_shown` is true where the change wins at least nine tenths of the
pairs and its median is better by more than a non-zero parent range.
The JSON written to --out also keeps every run.  Standard library and
NumPy only.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def quartiles(values) -> dict:
    """Median and quartiles of `values` (NumPy percentiles 25, 50, 75)."""
    q1, median, q3 = np.percentile(np.asarray(values, dtype=float), [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def compare(parent, change, better: str, bound: float) -> dict:
    """The summary of one metric over pairs: `parent[i]` and `change[i]`
    are the two sides of pair i; `better` is "lower" or "higher"; `bound`
    is the relative worsening the benchmark allows."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need one parent and one change value for each of at least one pair")
    sign = 1.0 if better == "lower" else -1.0  # > 0 where the change is worse
    p, c = quartiles(parent), quartiles(change)
    diffs = [sign * (b - a) for a, b in zip(parent, change)]
    wins = sum(d < 0 for d in diffs)
    worse = sign * (c["median"] - p["median"])  # in the metric's unit
    iqr = p["q3"] - p["q1"]
    relative = (c["median"] - p["median"]) / p["median"] if p["median"] else math.nan
    if iqr == 0:
        verdict = "changed" if worse else "identical"
    elif abs(worse) > iqr:
        verdict = "worse" if worse > 0 else "better"
    else:
        verdict = "unresolved"
    return {
        "better": better,
        "parent": p,
        "change": c,
        "relative_change": relative,
        "parent_iqr": iqr,
        "change_better_in_pairs": wins,
        "ties": sum(d == 0 for d in diffs),
        "pairs": len(diffs),
        "bound": bound,
        "worse_than_bound": sign * relative > bound,
        "verdict": verdict,
        "gain_shown": wins >= math.ceil(0.9 * len(diffs)) and -worse > iqr > 0,
    }


def parse_output(stdout: str) -> dict:
    """A run's result line (the last line of its standard output) and its
    `note` lines, as {correct, attempted, failed, metrics, notes}."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    notes = {}
    for line in lines:
        if line.startswith("note "):
            key, _, value = line[5:].partition(": ")
            try:
                notes[key] = float(value)
            except ValueError:
                notes[key] = value
    return {
        "correct": bool(result.get("correct", False)),
        "attempted": int(result.get("attempted", 0)),
        "failed": int(result.get("failed", 0)),
        "metrics": {name: m["value"] for name, m in result.get("metrics", {}).items()},
        "notes": notes,
    }


def run_once(tree: Path, command: list[str], workload: str, seed: int,
             seconds: float) -> dict:
    """One benchmark run from `tree`; a run that exits non-zero or prints
    no result line counts as incorrect, with no metrics."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        run = parse_output(proc.stdout) if proc.returncode == 0 else None
    except (ValueError, KeyError, TypeError):
        run = None
    if run is None:
        run = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}, "notes": {},
               "error": (proc.stderr.strip().splitlines() or ["no output"])[-1]}
    return run


def fresh_copy(src: Path, dst: Path) -> Path:
    """Copy the checkout at `src` to the new directory `dst`, without its
    history or anything a run or a test left behind."""
    shutil.copytree(src, dst, ignore=shutil.ignore_patterns(
        ".git", ".skelbench", "__pycache__", ".pytest_cache"))
    return dst


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per-metric summaries of `runs` (each tagged with its pair and side)
    over the pairs where both sides reported the metric."""
    by_pair: dict[int, dict] = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run
    metrics = {}
    for spec in end_to_end:
        name = spec["name"]
        pairs = [p for _, p in sorted(by_pair.items())
                 if all(name in p.get(side, {}).get("metrics", {}) for side in SIDES)]
        if pairs:
            metrics[name] = dict(compare(
                [p["parent"]["metrics"][name] for p in pairs],
                [p["change"]["metrics"][name] for p in pairs],
                spec["better"], spec["bound"]), unit=spec["unit"])
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--workdir", type=Path)
    args = parser.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    if args.workdir:
        args.workdir.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="bench_pairs-", dir=args.workdir))
    try:
        trees = {side: fresh_copy(getattr(args, side).resolve(), workdir / side)
                 for side in SIDES}
        runs = []
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                run = run_once(trees[side], bench["command"], args.workload, args.seed, seconds)
                runs.append(dict(run, pair=pair, side=side, ran_first=side == order[0]))
                print(f"pair {pair} {side:6s} correct {run['correct']} "
                      + " ".join(f"{k} {v:.6g}" for k, v in run["metrics"].items()), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = summarize(runs, bench["end_to_end"])
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "pairs": args.pairs,
        "command": [*bench["command"], "--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(seconds)],
        "order": "the parent runs first in even-numbered pairs, the change in odd ones; "
                 "each side runs from a fresh copy of its tree",
        "all_runs_correct": all(run["correct"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "metrics": metrics,
        "runs": runs,
    }
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"{'metric':18s} {'parent':>11s} {'change':>11s} {'change':>8s} "
          f"{'wins':>6s} {'parent IQR':>11s}  verdict")
    for name, m in metrics.items():
        wins = f"{m['change_better_in_pairs']}/{m['pairs']}"
        print(f"{name:18s} {m['parent']['median']:11.5g} {m['change']['median']:11.5g} "
              f"{100 * m['relative_change']:+7.1f}% {wins:>6s} "
              f"{m['parent_iqr']:11.4g}  {m['verdict']}"
              + ("  WORSE THAN BOUND" if m["worse_than_bound"] else "")
              + ("  gain shown" if m["gain_shown"] else ""))
    print(f"all runs correct: {doc['all_runs_correct']} "
          f"(failed {doc['failed']} of {doc['attempted']} attempted)")
    return 0 if doc["all_runs_correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
