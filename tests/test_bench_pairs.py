"""The pair statistics in tools/bench_pairs.py, on fixed numbers (no
benchmark run)."""

import importlib.util
import json
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
