"""The pair statistics in tools/bench_pairs.py, on fixed numbers (no
benchmark run)."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
SPEC = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)

# ten pairs of a lower-is-better time: the change wins all but pair 3
PARENT = [10.0, 11.0, 12.0, 10.5, 11.5, 10.2, 11.8, 10.8, 11.2, 10.4]
CHANGE = [8.8, 9.5, 10.5, 10.6, 9.6, 9.0, 9.9, 9.4, 9.7, 9.1]


def test_quartiles_are_numpy_percentiles():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0]) == {"median": 2.5, "q1": 1.75,
                                                           "q3": 3.25}


def test_compare_counts_wins_and_shows_a_gain():
    got = bench_pairs.compare(PARENT, CHANGE, "lower", 0.25)
    assert got["parent"] == pytest.approx({"median": 10.9, "q1": 10.425, "q3": 11.425})
    assert got["change"]["median"] == pytest.approx(9.55)
    assert got["parent_iqr"] == pytest.approx(1.0)
    assert got["relative_change"] == pytest.approx(9.55 / 10.9 - 1)
    assert (got["change_better_in_pairs"], got["ties"], got["pairs"]) == (9, 0, 10)
    assert got["verdict"] == "better" and got["gain_shown"]
    assert not got["worse_than_bound"]


def test_a_gap_inside_the_parent_iqr_is_unresolved():
    # nine wins of 10 but the medians 0.5 apart, inside the parent's IQR of 1.0
    change = [p - 0.5 for p in PARENT[:9]] + [PARENT[9] + 0.5]
    got = bench_pairs.compare(PARENT, change, "lower", 0.25)
    assert got["change_better_in_pairs"] == 9
    assert got["verdict"] == "unresolved" and not got["gain_shown"]


def test_fewer_than_ten_pairs_show_no_gain():
    # five wins of five, the medians 1.6 apart against a parent IQR of 1.0:
    # a verdict of better, but five pairs are too few to show a gain
    parent, change = PARENT[:5], [p - 1.6 for p in PARENT[:5]]
    got = bench_pairs.compare(parent, change, "lower", 0.25)
    assert (got["change_better_in_pairs"], got["pairs"]) == (5, 5)
    assert -(got["change"]["median"] - got["parent"]["median"]) > got["parent_iqr"] > 0
    assert got["verdict"] == "better" and not got["gain_shown"]


def test_eight_wins_of_ten_show_no_gain():
    change = [p - 2.0 for p in PARENT[:8]] + [p + 0.1 for p in PARENT[8:]]
    got = bench_pairs.compare(PARENT, change, "lower", 0.25)
    assert got["change_better_in_pairs"] == 8
    assert got["verdict"] == "better" and not got["gain_shown"]


def test_higher_is_better_and_ties_count_for_neither_side():
    got = bench_pairs.compare([100.0, 101.0, 99.0], [100.0, 70.0, 70.0], "higher", 0.25)
    assert (got["change_better_in_pairs"], got["ties"]) == (0, 1)
    assert got["relative_change"] == pytest.approx(-0.3)
    assert got["worse_than_bound"] and got["verdict"] == "worse"
    # a rise of 30% in a higher-is-better metric is within any bound
    assert not bench_pairs.compare([100.0] * 3, [130.0] * 3, "higher", 0.25)["worse_than_bound"]


def test_a_parent_that_does_not_vary_gives_identical_or_changed_and_no_gain():
    # a deterministic loss: every parent run reads the same, so a last-bit
    # change wins every pair but cannot be told from rounding
    loss = 1.5911685391568700
    got = bench_pairs.compare([loss] * 10, [loss * (1 - 1.9e-9)] * 10, "lower", 0.25)
    assert (got["parent_iqr"], got["change_better_in_pairs"]) == (0.0, 10)
    assert got["relative_change"] == pytest.approx(-1.9e-9)
    assert got["verdict"] == "changed" and not got["gain_shown"]
    assert not got["worse_than_bound"]
    same = bench_pairs.compare([loss] * 10, [loss] * 10, "lower", 0.25)
    assert (same["verdict"], same["ties"], same["gain_shown"]) == ("identical", 10, False)
    # a change past the bound is still reported as worse than it
    assert bench_pairs.compare([loss] * 3, [loss * 1.3] * 3, "lower", 0.25)["worse_than_bound"]


def test_worse_than_bound_uses_the_relative_change_of_the_medians():
    assert bench_pairs.compare([10.0] * 3, [12.4] * 3, "lower", 0.25)["worse_than_bound"] is False
    assert bench_pairs.compare([10.0] * 3, [12.6] * 3, "lower", 0.25)["worse_than_bound"] is True


def test_compare_needs_matched_pairs():
    with pytest.raises(ValueError):
        bench_pairs.compare([1.0, 2.0], [1.0], "lower", 0.25)
    with pytest.raises(ValueError):
        bench_pairs.compare([], [], "lower", 0.25)


def test_parse_output_reads_the_result_line_and_notes():
    result = {"correct": True, "attempted": 12, "failed": 0,
              "metrics": {"step_ms_p50": {"value": 50.5, "unit": "ms"}}}
    stdout = ("step_ms_p50     50.5 ms\nnote reference_ms_p50: 8.25\n"
              "note tail: p93 of 149 steps\nworkload desk-pretrain seed 1\n"
              + json.dumps(result) + "\n")
    assert bench_pairs.parse_output(stdout) == {
        "correct": True, "attempted": 12, "failed": 0, "metrics": {"step_ms_p50": 50.5},
        "notes": {"reference_ms_p50": 8.25, "tail": "p93 of 149 steps"},
    }


def test_summarize_pairs_runs_by_pair_and_skips_a_metric_a_side_lacks():
    spec = [{"name": "t", "unit": "s", "better": "lower", "bound": 0.25},
            {"name": "missing", "unit": "s", "better": "lower", "bound": 0.25}]
    runs = [{"pair": i, "side": side, "metrics": {"t": value}}
            for i, (p, c) in enumerate(zip(PARENT, CHANGE))
            for side, value in (("change", c), ("parent", p))]
    got = bench_pairs.summarize(runs, spec)
    assert set(got) == {"t"}
    assert got["t"]["unit"] == "s"
    assert got["t"]["change_better_in_pairs"] == 9


def test_a_missing_workdir_is_created(tmp_path, capsys):
    # no pairs, so no run starts: the two trees are only copied
    trees = {}
    for side in bench_pairs.SIDES:
        trees[side] = tmp_path / side
        trees[side].mkdir()
        (trees[side] / "BENCHMARK.json").write_text(json.dumps(
            {"command": ["true"], "run_seconds": 1, "end_to_end": []}))
    workdir = tmp_path / "missing" / "nested"
    assert bench_pairs.main(["--parent", str(trees["parent"]), "--change", str(trees["change"]),
                             "--workload", "w", "--seed", "1", "--pairs", "0",
                             "--workdir", str(workdir)]) == 0
    assert workdir.is_dir() and list(workdir.iterdir()) == []  # the copies are removed
    assert "all runs correct: True" in capsys.readouterr().out


def test_timing_notes_are_summarized_by_the_same_rule_with_no_bound():
    # a time note gets a metric's summary; a note that is not a number is
    # skipped, and so is a pair one of whose sides lacks the note
    runs = [{"pair": i, "side": side, "metrics": {},
             "notes": {"raw_step_ms_p50": value, "reference_ms_p50": 8.0 + 0.1 * i,
                       "tail": "p93 of 149 steps"}}
            for i, (p, c) in enumerate(zip(PARENT, CHANGE))
            for side, value in (("parent", p), ("change", c))]
    runs[0]["notes"].pop("reference_ms_p50")  # pair 0's parent lacks it
    got = bench_pairs.summarize(runs, bench_pairs.NOTES, "notes")
    assert set(got) == {"raw_step_ms_p50", "reference_ms_p50"}
    want = bench_pairs.compare(PARENT, CHANGE, "lower", 0.25)
    raw = got["raw_step_ms_p50"]
    assert raw["unit"] == "ms" and raw["bound"] is None and raw["worse_than_bound"] is False
    for key in ("parent", "change", "relative_change", "parent_iqr", "change_better_in_pairs",
                "verdict", "gain_shown"):
        assert raw[key] == want[key]
    reference = got["reference_ms_p50"]
    # both sides read the same reference in each pair: nine ties, no gap
    assert (reference["pairs"], reference["ties"]) == (9, 9)
    assert (reference["relative_change"], reference["verdict"]) == (0.0, "unresolved")
    # a note past any bound is still not worse than one
    slow = bench_pairs.compare([10.0] * 3, [100.0] * 3, "lower", None)
    assert slow["worse_than_bound"] is False and slow["verdict"] == "changed"


FAKE_RUN = """import json
raw = {raw}
print("note raw_step_ms_p50:", raw)
print("note reference_ms_p50: 8.5")
print("note tail: p93 of 149 steps")
print(json.dumps({{"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {{"step_ms_p50": {{"value": raw / 2, "unit": "ms"}}}}}}))
"""


def test_main_keeps_the_notes_in_the_json_and_prints_them_under_the_table(tmp_path, capsys):
    # each side's tree holds its own fake.py, which prints a run's output
    trees = {}
    for side, raw in (("parent", 43.2), ("change", 43.8)):
        trees[side] = tmp_path / side
        trees[side].mkdir()
        (trees[side] / "fake.py").write_text(FAKE_RUN.format(raw=raw))
        (trees[side] / "BENCHMARK.json").write_text(json.dumps(
            {"command": [sys.executable, "fake.py"], "run_seconds": 1,
             "end_to_end": [{"name": "step_ms_p50", "unit": "ms", "better": "lower",
                             "bound": 0.25}]}))
    out = tmp_path / "pairs.json"
    assert bench_pairs.main(["--parent", str(trees["parent"]), "--change", str(trees["change"]),
                             "--workload", "w", "--seed", "1", "--pairs", "2",
                             "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert set(doc["notes"]) == {"raw_step_ms_p50", "reference_ms_p50"}
    raw = doc["notes"]["raw_step_ms_p50"]
    assert (raw["parent"]["median"], raw["change"]["median"]) == (43.2, 43.8)
    assert raw["bound"] is None and not raw["worse_than_bound"] and not raw["gain_shown"]
    assert doc["metrics"]["step_ms_p50"]["change"]["median"] == 21.9
    table, _, notes = capsys.readouterr().out.partition("timing notes (raw times, no bound):\n")
    assert table.splitlines()[-1].startswith("step_ms_p50 ")
    assert [line.split()[0] for line in notes.splitlines()[:2]] == ["raw_step_ms_p50",
                                                                    "reference_ms_p50"]


def _scale_runs(scaled, raw):
    """Fabricated runs whose step_ms_p50 pairs are `scaled` and whose
    raw_step_ms_p50 pairs are `raw`, each a (parent, change) list pair."""
    return [{"pair": i, "side": side, "metrics": {"step_ms_p50": scaled[k][i]},
             "notes": {"raw_step_ms_p50": raw[k][i]}}
            for i in range(len(scaled[0])) for k, side in enumerate(bench_pairs.SIDES)]


def _disagreements(runs):
    spec = [{"name": "step_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25}]
    return bench_pairs.scale_disagreements(bench_pairs.summarize(runs, spec),
                                           bench_pairs.summarize(runs, bench_pairs.NOTES, "notes"))


def test_a_scaled_rise_beside_a_raw_fall_is_flagged():
    # the reading of a fault-free desk step: scaled +26%, raw -10%
    raw_change = [0.9 * p for p in PARENT]
    got = _disagreements(_scale_runs((PARENT, [1.26 * p for p in PARENT]), (PARENT, raw_change)))
    assert len(got) == 1
    flag = got[0]
    assert (flag["scaled"], flag["raw"]) == ("step_ms_p50", "raw_step_ms_p50")
    assert flag["scaled_relative_change"] == pytest.approx(0.26)
    assert flag["raw_relative_change"] == pytest.approx(-0.1)
    assert (flag["scaled_verdict"], flag["raw_verdict"]) == ("worse", "better")


def test_agreeing_signs_and_two_unresolved_verdicts_are_not_flagged():
    agree = _scale_runs((PARENT, [1.26 * p for p in PARENT]), (PARENT, [1.1 * p for p in PARENT]))
    assert _disagreements(agree) == []
    # opposite signs, each gap inside the parent's IQR of 1.0
    unresolved = _scale_runs((PARENT, [p + 0.3 for p in PARENT]),
                             (PARENT, [p - 0.3 for p in PARENT]))
    assert _disagreements(unresolved) == []


DRIFTING_RUN = """import json, pathlib
count = pathlib.Path("count")
n = int(count.read_text()) if count.exists() else 0
count.write_text(str(n + 1))
print("note raw_step_ms_p50:", {raw} + n)
print(json.dumps({{"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {{"step_ms_p50": {{"value": {scaled} + n, "unit": "ms"}}}}}}))
"""


def test_main_lists_and_prints_a_scale_disagreement(tmp_path, capsys):
    # each side's values rise by 1 per run, so the parent's IQR is 1.5 over
    # four pairs; the change's scaled time is 5.4 worse and its raw time 3.2 better
    trees = {}
    for side, raw, scaled in (("parent", 43.2, 21.6), ("change", 40.0, 27.0)):
        trees[side] = tmp_path / side
        trees[side].mkdir()
        (trees[side] / "fake.py").write_text(DRIFTING_RUN.format(raw=raw, scaled=scaled))
        (trees[side] / "BENCHMARK.json").write_text(json.dumps(
            {"command": [sys.executable, "fake.py"], "run_seconds": 1,
             "end_to_end": [{"name": "step_ms_p50", "unit": "ms", "better": "lower",
                             "bound": 0.25}]}))
    out = tmp_path / "pairs.json"
    assert bench_pairs.main(["--parent", str(trees["parent"]), "--change", str(trees["change"]),
                             "--workload", "w", "--seed", "1", "--pairs", "4",
                             "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert [(d["scaled"], d["raw"], d["scaled_verdict"], d["raw_verdict"])
            for d in doc["scale_disagrees"]] == [("step_ms_p50", "raw_step_ms_p50", "worse",
                                                  "better")]
    assert doc["metrics"]["step_ms_p50"]["gain_shown"] is False  # verdicts are left as they were
    _, _, notes = capsys.readouterr().out.partition("timing notes (raw times, no bound):\n")
    line = notes.splitlines()[1]
    assert line.startswith("scale disagrees: step_ms_p50 +")
    assert "raw_step_ms_p50 -" in line and "ROADMAP item 14" in line
