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
`gain_shown` is true where there are at least `GAIN_PAIRS` (10) pairs,
the change wins at least nine tenths of them and its median is better
by more than a non-zero parent range: at 5 pairs a 5-of-5 win beyond
the parent's range showed on metrics whose work a change left alone,
so fewer pairs show no gain.
The timing notes every run prints beside its metrics (`NOTES`: the raw,
unscaled step and finetune times, and the reference kernel's time that
scales them) get the same summary, with no bound, under `notes` in the
JSON and under the table.  A scaled gain that the raw times do not show
sits in the reference, not in the program.  Where a raw note and the
metric it scales (`SCALED_BY`) are both summarized, their relative
changes have opposite signs, and either verdict is "better" or "worse",
the pair is listed under `scale_disagrees` in the JSON and named in a
line under the notes: the reference kernel's own time moved with the
change (ROADMAP item 14).  No verdict or bound depends on it.
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
GAIN_PAIRS = 10  # the fewest pairs that can show a gain
# the numeric `note` lines of a run that are times, summarized like metrics
NOTES = [{"name": name, "unit": unit, "better": "lower", "bound": None}
         for name, unit in (("raw_step_ms_p50", "ms"), ("raw_finetune_s", "s"),
                            ("reference_ms_p50", "ms"))]
# each raw-time note and the end-to-end metric that scales it by the reference's time
SCALED_BY = {"raw_step_ms_p50": "step_ms_p50", "raw_finetune_s": "finetune_s"}


def quartiles(values) -> dict:
    """Median and quartiles of `values` (NumPy percentiles 25, 50, 75)."""
    q1, median, q3 = np.percentile(np.asarray(values, dtype=float), [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def compare(parent, change, better: str, bound: float | None) -> dict:
    """The summary of one metric over pairs: `parent[i]` and `change[i]`
    are the two sides of pair i; `better` is "lower" or "higher"; `bound`
    is the relative worsening the benchmark allows, None for none."""
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
        "worse_than_bound": bound is not None and sign * relative > bound,
        "verdict": verdict,
        "gain_shown": len(diffs) >= GAIN_PAIRS and wins >= math.ceil(0.9 * len(diffs))
                      and -worse > iqr > 0,
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


def summarize(runs: list[dict], specs: list[dict], field: str = "metrics") -> dict:
    """Per-name summaries of `runs` (each tagged with its pair and side)
    over the pairs where both sides reported the name as a number in
    their `field` ("metrics" or "notes")."""
    by_pair: dict[int, dict] = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run
    summaries = {}
    for spec in specs:
        name = spec["name"]
        pairs = [p for _, p in sorted(by_pair.items())
                 if all(isinstance(p.get(side, {}).get(field, {}).get(name), (int, float))
                        for side in SIDES)]
        if pairs:
            summaries[name] = dict(compare(
                [p["parent"][field][name] for p in pairs],
                [p["change"][field][name] for p in pairs],
                spec["better"], spec["bound"]), unit=spec["unit"])
    return summaries


def scale_disagreements(metrics: dict, notes: dict) -> list[dict]:
    """The (raw note, scaled metric) pairs of `SCALED_BY`, both summarized,
    whose relative changes differ in sign while at least one of their
    verdicts is "better" or "worse"."""
    flagged = []
    for raw, scaled in SCALED_BY.items():
        if raw not in notes or scaled not in metrics:
            continue
        r, m = notes[raw], metrics[scaled]
        if (r["relative_change"] * m["relative_change"] < 0
                and {r["verdict"], m["verdict"]} & {"better", "worse"}):
            flagged.append({"scaled": scaled, "raw": raw,
                            "scaled_relative_change": m["relative_change"],
                            "raw_relative_change": r["relative_change"],
                            "scaled_verdict": m["verdict"], "raw_verdict": r["verdict"]})
    return flagged


def table_row(name: str, m: dict) -> str:
    """One printed line of a summary."""
    wins = f"{m['change_better_in_pairs']}/{m['pairs']}"
    return (f"{name:18s} {m['parent']['median']:11.5g} {m['change']['median']:11.5g} "
            f"{100 * m['relative_change']:+7.1f}% {wins:>6s} "
            f"{m['parent_iqr']:11.4g}  {m['verdict']}"
            + ("  WORSE THAN BOUND" if m["worse_than_bound"] else "")
            + ("  gain shown" if m["gain_shown"] else ""))


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
    notes = summarize(runs, NOTES, "notes")
    disagrees = scale_disagreements(metrics, notes)
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
        "notes": notes,
        "scale_disagrees": disagrees,
        "runs": runs,
    }
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"{'metric':18s} {'parent':>11s} {'change':>11s} {'change':>8s} "
          f"{'wins':>6s} {'parent IQR':>11s}  verdict")
    for name, m in metrics.items():
        print(table_row(name, m))
    if notes:
        print("timing notes (raw times, no bound):")
        for name, m in notes.items():
            print(table_row(name, m))
    for d in disagrees:
        print(f"scale disagrees: {d['scaled']} {100 * d['scaled_relative_change']:+.1f}% "
              f"({d['scaled_verdict']}) but {d['raw']} {100 * d['raw_relative_change']:+.1f}% "
              f"({d['raw_verdict']}): the reference kernel's time moved too, see ROADMAP item 14")
    print(f"a gain needs at least {GAIN_PAIRS} pairs, nine tenths of them won, and a median "
          f"gap above the parent IQR; this set has {args.pairs}")
    print(f"all runs correct: {doc['all_runs_correct']} "
          f"(failed {doc['failed']} of {doc['attempted']} attempted)")
    return 0 if doc["all_runs_correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
