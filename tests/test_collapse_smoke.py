"""The report-only collapse smoke test (`tools/collapse_smoke.py`)."""

import importlib.util
import math
import re
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "collapse_smoke.py"
SPEC = importlib.util.spec_from_file_location("collapse_smoke", TOOL)
collapse_smoke = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(collapse_smoke)


def test_smoke_prints_a_finite_loss_and_a_cosine(capsys):
    collapse_smoke.report(seeds=[7], epochs=2)
    line = capsys.readouterr().out.strip()
    match = re.fullmatch(r"seed 7: loss (\S+) \(ln 33 = 3\.4965\), z cosine (\S+)", line)
    assert match, line
    loss, cos = float(match[1]), float(match[2])
    assert math.isfinite(loss) and -1 <= cos <= 1
