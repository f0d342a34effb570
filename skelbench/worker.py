"""Child process of run.py.

    python3 skelbench/worker.py prepare WORKLOAD SEED WORKDIR
    python3 skelbench/worker.py measure WORKLOAD WORKDIR SECONDS TRACE SPANS_PATH

`prepare` writes the workload's inputs into WORKDIR.  `measure` runs the
workload in a fresh process, so its peak memory is the program's own,
and writes WORKDIR/result.json (plus the spans of a traced run).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import skelcl  # noqa: E402

if Path(skelcl.__file__).resolve().parent != ROOT / "src" / "skelcl":
    sys.exit(f"skelcl imported from {skelcl.__file__}, not from this checkout")

import workloads as W  # noqa: E402


def reported_metrics(result: dict, traced: bool) -> dict:
    """The metrics of the result line, each with its unit."""
    if traced:
        layers = result["layers"]
        return {
            name: {"value": float(layers.get(key or name, 0.0)), "unit": unit}
            for name, (key, unit) in W.PER_LAYER.items()
        }
    return {
        name: {"value": float(result["metrics"][name]), "unit": unit}
        for name, unit in W.END_TO_END
        if name in result["metrics"]
    }


def main(argv: list[str]) -> int:
    command, workload = argv[0], W.WORKLOADS[argv[1]]
    if command == "prepare":
        W.prepare(workload, int(argv[2]), Path(argv[3]))
        return 0
    workdir, seconds, spans_path = Path(argv[2]), float(argv[3]), Path(argv[5])
    traced = argv[4] == "1"
    result = W.measure(workload, seconds, traced, workdir)
    spans = result.pop("spans")
    if spans is not None:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        with open(spans_path, "w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    result["reported"] = reported_metrics(result, traced)
    result["expected"] = [name for name, _ in W.END_TO_END]
    (workdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
