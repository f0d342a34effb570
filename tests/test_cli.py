"""Command-line entry point: exit codes and the rewritten subcommands."""

import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import skelcl.train
from skelcl import BLAS_THREAD_VARS
from skelcl import tensor as T
from skelcl.cli import _gradcheck_cases, _gradcheck_components, build_parser, main
from skelcl.config import RunConfig
from skelcl.errors import ConfigValueError
from skelcl.skeleton import SkeletonSequence, load_dataset, read_file, write_dataset, write_file

GRADCHECK_COMPONENTS = {
    "block_entry", "block_residual", "projector", "loss_intra", "loss_nnm",
    "loss_pft_query_path", "loss_combined", "head",
}
# `pft-hist --random-pairs 200` before the loss path became batched
PFT_HIST_200 = {
    "before": {"mean": 0.49187857941223606, "var": 0.08139417300936415,
               "min": 0.0018351588498354277},
    "after": {"mean": 0.35919527153859176, "var": 0.05890180755565341,
              "min": 0.0018351588498354277},
}


@pytest.mark.parametrize("setting", ["tau=0", "batch_size=0", "stage_epochs=[1]",
                                     "queue_size=0", "enc_temporal_kernel=4"])
def test_out_of_range_config_exits_2(tmp_path, capsys, setting):
    argv = ["pretrain", "--set", setting, "--data", str(tmp_path / "none"),
            "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert setting.split("=")[0] in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--set", "tau=0.1"], ["--config", "c.json"],
                                   ["--seed", "3"], ["--tau", "0.1"]])
def test_resume_rejects_other_config_flags(tmp_path, capsys, flags):
    argv = ["pretrain", "--resume", str(tmp_path / "ckpt.bin"), *flags,
            "--data", str(tmp_path / "none"), "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert "--resume" in capsys.readouterr().err


def test_gradcheck_f64_passes_every_component(capsys):
    assert main(["gradcheck", "--precision", "f64"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert {line.split()[0] for line in lines[:-1]} == GRADCHECK_COMPONENTS
    assert json.loads(lines[-1])["pass"] is True


def test_gradcheck_f32_passes_every_component(capsys):
    # float32 analytic gradients against float64 central differences
    assert main(["gradcheck", "--precision", "f32"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert {line.split()[0] for line in lines[:-1]} == GRADCHECK_COMPONENTS
    doc = json.loads(lines[-1])
    assert doc["pass"] is True and doc["tolerance"] == 1e-3


def test_gradcheck_loss_queries_span_every_tangent_direction(monkeypatch):
    """Each loss case's unit queries come from the projector over free
    hidden rows; the check covers every direction of the loss's gradient
    in z only when each row's Jacobian dz/dh spans the dim - 1 tangent
    directions of the unit sphere at z, as a free unit row's does."""
    seen = []
    projector = T.projector

    def recording(*inputs):
        seen.append([np.asarray(getattr(a, "data", a), dtype=np.float64) for a in inputs])
        return projector(*inputs)

    monkeypatch.setattr(T, "projector", recording)
    cases = _gradcheck_cases(np.float64, np.float64)
    for name in ("loss_intra", "loss_nnm", "loss_pft_query_path", "loss_combined"):
        seen.clear()
        cases[name][0]()
        assert seen, name
        for h, w1, b1, w2, b2 in seen:
            pre = h @ w1 + b1
            v = np.maximum(pre, 0.0) @ w2 + b2
            for row, active, z in zip(pre, pre > 0, v / np.linalg.norm(v, axis=1, keepdims=True)):
                tangent = np.eye(z.size) - np.outer(z, z)
                jacobian = tangent @ w2.T @ (w1 * active).T
                assert np.linalg.matrix_rank(jacobian) == z.size - 1, name


def test_gradcheck_f32_loss_components_within_tolerance():
    # float32 analytic gradients against float64 differences at the same
    # values: float32 differences at this step carry rounding near 3e-5,
    # which decides the check on any small gradient coordinate
    results = _gradcheck_components(np.float32, eps=1e-2, reference=np.float64)
    errors = {name: res.max_rel_error for name, res in results.items() if name.startswith("loss_")}
    assert len(errors) == 4
    assert all(error < 1e-3 for error in errors.values()), errors


def test_pft_hist_random_pairs_unchanged(capsys):
    assert main(["pft-hist", "--random-pairs", "200"]) == 0
    doc = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert doc["pairs"] == 200
    for side, stats in PFT_HIST_200.items():
        for name, value in stats.items():
            assert abs(doc[side][name] - value) < 1e-9, (side, name)


@pytest.mark.parametrize("flags,named", [(["--alpha", "0"], "--alpha"),
                                         (["--mu", "-1"], "--mu")])
def test_pft_hist_rejects_out_of_range_beta(capsys, flags, named):
    assert main(["pft-hist", "--random-pairs", "20", *flags]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("flags,named", [
    (["--random-pairs", "0"], "--random-pairs"),
    (["--random-pairs", "-4"], "--random-pairs"),
    (["--bins", "0"], "--bins"),
    (["--bins", "-3"], "--bins"),
])
def test_pft_hist_rejects_bad_sizes(capsys, flags, named):
    assert main(["pft-hist", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {named}: ") and captured.out == ""


def test_no_config_flag_has_a_literal_default():
    """A flag storing under a config key overrides the config it is applied
    to, so a default of its own could drift from the config's."""
    keys = {field.name for field in dataclasses.fields(RunConfig)}
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    config_flags = {(command, action.dest): action.default
                    for command, sub in commands.items()
                    for action in sub._actions if action.dest in keys}
    assert set(config_flags) >= {
        ("pretrain", "seed"), ("pretrain", "tau"), ("linprobe", "linear_epochs"),
        ("linprobe", "linear_lr"), ("knn", "knn_k"), ("finetune", "finetune_epochs"),
        ("finetune", "finetune_lr"), ("fuse", "fusion_weights"), ("pft-hist", "pft_alpha"),
        ("pft-hist", "pft_mu"),
    }
    assert [flag for flag, default in config_flags.items() if default is not None] == []


def test_fuse_names_stream_without_weight(tmp_path, capsys):
    scores = tmp_path / "joint.json"
    scores.write_text(json.dumps({"stream": "joint", "scores": [[0.2, 0.8]], "labels": [1]}))
    assert main(["fuse", "--scores", str(scores), "--weight", "bone=1"]) == 2
    err = capsys.readouterr().err
    assert "--weight" in err and "'joint'" in err


@pytest.mark.parametrize("weight", ["joint", "joint=abc", "joint=0"])
def test_fuse_rejects_malformed_weight(tmp_path, capsys, weight):
    scores = tmp_path / "joint.json"
    scores.write_text(json.dumps({"stream": "joint", "scores": [[0.2, 0.8]], "labels": [1]}))
    assert main(["fuse", "--scores", str(scores), "--weight", weight]) == 2
    assert "--weight" in capsys.readouterr().err


def test_fuse_rejects_a_stream_weighted_twice(tmp_path, capsys):
    scores = tmp_path / "joint.json"
    scores.write_text(json.dumps({"stream": "joint", "scores": [[0.2, 0.8]], "labels": [1]}))
    argv = ["fuse", "--scores", str(scores), "--weight", "joint=1", "--weight", "joint=2"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --weight: ") and "'joint'" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("weight", ["joint=inf", "joint=-inf", "joint=nan"])
def test_fuse_rejects_non_finite_weight(tmp_path, capsys, weight):
    # an infinite weight once passed the positivity check and fused into
    # NaN scores, so every prediction came out wrong
    scores = tmp_path / "joint.json"
    scores.write_text(json.dumps({"stream": "joint", "scores": [[0.2, 0.8], [0.9, 0.1]],
                                  "labels": [1, 0]}))
    assert main(["fuse", "--scores", str(scores), "--weight", weight]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --weight: must be finite\n"
    assert captured.out == ""


@pytest.mark.parametrize("second,named", [
    ({"stream": "joint", "scores": [[0.9, 0.1]], "labels": [1]}, "both hold stream 'joint'"),
    ({"stream": "bone", "scores": [[0.9, 0.1]], "labels": [0]}, "hold different labels"),
], ids=["same-stream", "different-labels"])
def test_fuse_rejects_score_files_that_do_not_pair(tmp_path, capsys, second, named):
    paths = [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
    first = {"stream": "joint", "scores": [[0.2, 0.8]], "labels": [1]}
    for path, doc in zip(paths, [first, second]):
        Path(path).write_text(json.dumps(doc))
    assert main(["fuse", "--scores", *paths]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --scores: {paths[0]} and {paths[1]} {named}\n"
    assert captured.out == ""


@pytest.mark.parametrize("content,named", [
    ("joint 0.2 0.8", "not a JSON document"),
    ('[{"stream": "joint", "scores": [[0.2, 0.8]]}]', "JSON object"),
    ('{"scores": [[0.2, 0.8]]}', "'stream'"),
    ('{"stream": 3, "scores": [[0.2, 0.8]]}', "'stream'"),
    ('{"stream": "joint"}', "'scores'"),
    ('{"stream": "joint", "scores": [0.2, 0.8]}', "'scores'"),
    ('{"stream": "joint", "scores": [[0.2, 0.8], [0.5]]}', "'scores'"),
    ('{"stream": "joint", "scores": [["high", "low"]]}', "'scores'"),
    # Python's `json` reads NaN and Infinity as numbers
    ('{"stream": "joint", "scores": [[0.1, NaN, 0.2], [0.5, 0.2, 0.3]]}', "'scores'"),
    ('{"stream": "joint", "scores": [[0.1, Infinity, 0.2], [0.5, 0.2, 0.3]]}', "'scores'"),
    ('{"stream": "joint", "scores": [[0.2, 0.8], [0.9, 0.1]], "labels": [1]}', "'labels'"),
    ('{"stream": "joint", "scores": [[0.2, 0.8], [0.9, 0.1]], "labels": "10"}', "'labels'"),
    ('{"stream": "joint", "scores": [[0.2, 0.8]], "labels": [[1, 0]]}', "'labels'"),
    ('{"stream": "joint", "scores": [[0.2, 0.8], [0.9, 0.1]], "labels": [[1], [0, 1]]}',
     "'labels'"),
], ids=["not-json", "list", "no-stream", "stream-not-string", "no-scores", "scores-1d",
        "scores-ragged", "scores-not-numeric", "scores-nan", "scores-inf", "labels-short",
        "labels-string", "labels-2d", "labels-ragged"])
def test_fuse_names_malformed_scores_file(tmp_path, capsys, content, named):
    scores = tmp_path / "joint.json"
    scores.write_text(content)
    assert main(["fuse", "--scores", str(scores)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {scores}: ") and named in err


@pytest.mark.parametrize("flags,named", [(["--joints", "4"], "--joints"),
                                         (["--classes", "1"], "--classes"),
                                         (["--classes", "25"], "--classes"),
                                         (["--per-class", "0"], "--per-class"),
                                         (["--frames", "8"], "--frames"),
                                         (["--val-fraction", "1.5"], "--val-fraction"),
                                         (["--val-fraction", "-1"], "--val-fraction"),
                                         (["--val-fraction", "0.01"], "--val-fraction"),
                                         (["--val-fraction", "0.99"], "--val-fraction"),
                                         (["--noise-sigma", "-1"], "--noise-sigma"),
                                         (["--noise-sigma", "nan"], "--noise-sigma"),
                                         (["--noise-sigma", "inf"], "--noise-sigma")])
def test_gen_data_rejects_out_of_range_sizes(tmp_path, capsys, flags, named):
    assert main(["gen-data", *flags, "--out", str(tmp_path / "data")]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


TINY_RUN = ["stage_epochs=[1,0,0]", "queue_size=8", "batch_size=8", "enc_blocks=1",
            "enc_channels=[4]", "enc_hidden=8", "embed_dim=4", "knn_k=1", "finetune_lr=0.05"]


@pytest.fixture(scope="module")
def pretrained(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    assert main(["gen-data", "--classes", "3", "--per-class", "6", "--frames", "16",
                 "--seed", "3", "--out", str(root / "data")]) == 0
    assert [p.name for p in (root / "data").iterdir()] == ["dataset.bin"]
    argv = ["pretrain", "--data", str(root / "data"), "--out", str(root / "run"),
            "--metrics", str(root / "metrics.jsonl")]
    for setting in TINY_RUN:
        argv += ["--set", setting]
    assert main(argv) == 0
    records = (root / "metrics.jsonl").read_text().splitlines()
    assert len(records) == 1 + 2  # header, then one step per batch of the 12-clip train split
    return root


def pretrain_subprocess(root: Path, tag: str, **env_set) -> list[str]:
    """The JSONL of a tiny `skelcl pretrain` run in a fresh interpreter whose
    environment has no BLAS thread variable but those in `env_set`."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(env_set)
    argv = [sys.executable, "-m", "skelcl.cli", "pretrain", "--data", str(root / "data"),
            "--out", str(root / tag), "--metrics", str(root / f"{tag}.jsonl")]
    for setting in TINY_RUN:
        argv += ["--set", setting]
    subprocess.run(argv, env=env, check=True, capture_output=True, timeout=120)
    return (root / f"{tag}.jsonl").read_text().splitlines()


def test_metrics_file_holds_one_fresh_run_and_a_resume_appends(pretrained, tmp_path):
    metrics = tmp_path / "metrics.jsonl"
    argv = ["pretrain", "--data", str(pretrained / "data"), "--out", str(tmp_path / "run"),
            "--metrics", str(metrics)]
    for setting in [*TINY_RUN, "stage_epochs=[1,1,0]"]:
        argv += ["--set", setting]
    for _ in range(2):  # a second fresh run replaces the first one's records
        assert main(argv) == 0
    run = metrics.read_text().splitlines()
    assert ["config" in json.loads(line) for line in run] == [True] + [False] * 4
    # a run resumed from the stage-1 checkpoint appends its header and the
    # second stage's steps, which replay the uninterrupted run's
    assert main(["pretrain", "--data", str(pretrained / "data"), "--out", str(tmp_path / "more"),
                 "--metrics", str(metrics),
                 "--resume", str(tmp_path / "run" / "ckpt_stage0.bin")]) == 0
    both = metrics.read_text().splitlines()
    assert both[:5] == run and json.loads(both[5])["config"] and both[6:] == run[3:]


def test_pretrain_defaults_to_one_blas_thread(tmp_path):
    assert main(["gen-data", "--classes", "3", "--per-class", "6", "--frames", "16",
                 "--seed", "3", "--out", str(tmp_path / "data")]) == 0
    unset = pretrain_subprocess(tmp_path, "unset")
    two = pretrain_subprocess(tmp_path, "two", OPENBLAS_NUM_THREADS="2")
    header_unset, header_two = json.loads(unset[0]), json.loads(two[0])
    assert header_unset["blas_threads"] == dict.fromkeys(BLAS_THREAD_VARS, "1")
    assert header_two["blas_threads"] == {**dict.fromkeys(BLAS_THREAD_VARS, "1"),
                                          "OPENBLAS_NUM_THREADS": "2"}
    # the thread setting is the only byte that changes
    del header_unset["blas_threads"], header_two["blas_threads"]
    assert header_unset == header_two and unset[1:] == two[1:] and len(unset) == 3


@pytest.mark.parametrize("command,flags,protocol", [
    ("linprobe", ["--epochs", "1"], "linear"),
    ("knn", ["--k", "1"], "knn"),
    ("finetune", ["--epochs", "1"], "finetune"),
    ("finetune", ["--epochs", "1", "--fraction", "0.5"], "semi-supervised"),
])
def test_probe_subcommands_run_on_pretrained_checkpoint(pretrained, capsys, command, flags,
                                                        protocol):
    argv = [command, "--checkpoint", str(pretrained / "run" / "checkpoint.bin"),
            "--data", str(pretrained / "data"), *flags]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert doc["protocol"] == protocol and 0.0 <= doc["accuracy"] <= 1.0


def test_knn_k_defaults_to_checkpoint_config(pretrained, capsys):
    argv = ["knn", "--checkpoint", str(pretrained / "run" / "checkpoint.bin"),
            "--data", str(pretrained / "data")]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["k"] == 1


@pytest.mark.parametrize("flags,lr", [([], 0.05), (["--lr", "0.2"], 0.2)])
def test_finetune_lr_defaults_to_checkpoint_config(pretrained, monkeypatch, flags, lr):
    seen = {}

    def fake_finetune(*args, **kwargs):
        seen.update(kwargs)
        return SimpleNamespace(accuracy=0.5, subset_size=1)

    monkeypatch.setattr("skelcl.cli.finetune", fake_finetune)
    argv = ["finetune", "--checkpoint", str(pretrained / "run" / "checkpoint.bin"),
            "--data", str(pretrained / "data"), *flags]
    assert main(argv) == 0
    assert seen["lr"] == lr


@pytest.mark.parametrize("command,flags,named", [
    ("knn", ["--k", "0"], "--k"),
    ("knn", ["--k", "-2"], "--k"),
    ("linprobe", ["--epochs", "-3"], "--epochs"),
    ("linprobe", ["--lr", "-5"], "--lr"),
    ("finetune", ["--epochs", "-1"], "--epochs"),
    ("finetune", ["--lr", "-1"], "--lr"),
])
def test_out_of_range_probe_flag_exits_2_naming_it(pretrained, capsys, command, flags, named):
    argv = [command, "--checkpoint", str(pretrained / "run" / "checkpoint.bin"),
            "--data", str(pretrained / "data"), *flags]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {named}: ") and captured.out == ""


def test_checkpoint_with_bad_magic_exits_1(pretrained, tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"WHAT" + b"\0" * 32)
    assert main(["knn", "--checkpoint", str(bad), "--data", str(pretrained / "data")]) == 1
    assert "not a checkpoint" in capsys.readouterr().err


def test_normalization_off_checkpoint_exits_2_naming_the_key(pretrained, tmp_path, capsys):
    # no block runs without batch norm, so a stored "off" config (whose
    # file holds no norm_* tensors) is refused by its key
    doc, tensors = read_file(pretrained / "run" / "checkpoint.bin", b"CKPT", "checkpoint")
    doc["config"]["enc_normalization"] = "off"
    off = tmp_path / "off.bin"
    write_file(off, b"CKPT", json.dumps(doc, sort_keys=True).encode(),
               {k: v for k, v in tensors.items() if ".norm_" not in k})
    argv = ["linprobe", "--checkpoint", str(off), "--data", str(pretrained / "data")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: enc_normalization: ")


def test_knn_k_beyond_train_split_exits_2(pretrained, capsys):
    argv = ["knn", "--checkpoint", str(pretrained / "run" / "checkpoint.bin"),
            "--data", str(pretrained / "data"), "--k", "500"]
    assert main(argv) == 2
    assert "--k" in capsys.readouterr().err


def test_finetune_fraction_zero_exits_2(pretrained, capsys):
    argv = ["finetune", "--checkpoint", str(pretrained / "run" / "checkpoint.bin"),
            "--data", str(pretrained / "data"), "--epochs", "1", "--fraction", "0"]
    assert main(argv) == 2
    assert "--fraction" in capsys.readouterr().err


def test_pft_hist_on_checkpoint_is_deterministic(pretrained, capsys):
    argv = ["pft-hist", "--checkpoint", str(pretrained / "run" / "checkpoint.bin"),
            "--data", str(pretrained / "data"), "--stream", "bone"]
    outputs = []
    for _ in range(2):
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    doc = json.loads(outputs[0].splitlines()[-1])
    assert doc["pairs"] > 0 and doc["after"]["min"] >= 0.0
    assert outputs[0] == outputs[1]


def test_pft_hist_on_checkpoint_takes_its_alpha_and_mu(pretrained, tmp_path, capsys):
    argv = ["pretrain", "--data", str(pretrained / "data"), "--out", str(tmp_path / "run"),
            "--metrics", str(tmp_path / "metrics.jsonl")]
    for setting in [*TINY_RUN, "pft_alpha=5", "pft_mu=0.5"]:
        argv += ["--set", setting]
    assert main(argv) == 0
    hist = ["pft-hist", "--checkpoint", str(tmp_path / "run" / "checkpoint.bin"),
            "--data", str(pretrained / "data")]
    docs = []
    for flags in ([], ["--alpha", "3"]):
        assert main([*hist, *flags]) == 0
        docs.append(json.loads(capsys.readouterr().out.splitlines()[-1]))
    assert [(doc["alpha"], doc["mu"]) for doc in docs] == [(5.0, 0.5), (3.0, 0.5)]


def test_pft_hist_on_checkpoint_table_does_not_depend_on_the_pass_size(pretrained, tmp_path,
                                                                        monkeypatch, capsys):
    # three blocks, so a one-byte budget splits the 6-clip val split into
    # passes of two clips where the default encodes it in one
    argv = ["pretrain", "--data", str(pretrained / "data"), "--out", str(tmp_path / "run"),
            "--metrics", str(tmp_path / "metrics.jsonl")]
    for setting in [*TINY_RUN, "enc_blocks=3", "enc_channels=[4,4,4]"]:
        argv += ["--set", setting]
    assert main(argv) == 0
    hist = ["pft-hist", "--checkpoint", str(tmp_path / "run" / "checkpoint.bin"),
            "--data", str(pretrained / "data"), "--stream", "bone"]
    outputs = []
    for budget in (skelcl.train.FEATURE_BYTES, 1):
        monkeypatch.setattr(skelcl.train, "FEATURE_BYTES", budget)
        assert main(hist) == 0
        outputs.append(capsys.readouterr().out)
    assert json.loads(outputs[0].splitlines()[-1])["pairs"] == 6
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("argv,code,named", [
    (["pft-hist", "--checkpoint", "{ckpt}"], 2, "--data"),
    (["knn", "--checkpoint", "{missing}", "--data", "{data}"], 1, "{missing}"),
    (["knn", "--checkpoint", "{ckpt}", "--data", "{missing}"], 1, "{missing}"),
    (["pretrain", "--data", "{missing}", "--out", "{out}"], 1, "{missing}"),
    (["pretrain", "--resume", "{missing}", "--data", "{data}", "--out", "{out}"], 1, "{missing}"),
    (["pretrain", "--config", "{missing}", "--data", "{data}", "--out", "{out}"], 1, "{missing}"),
    (["pretrain", "--config", "{not_json}", "--data", "{data}", "--out", "{out}"], 2, "{not_json}"),
    (["fuse", "--scores", "{missing}"], 1, "{missing}"),
], ids=["pft-hist-without-data", "knn-checkpoint", "knn-data", "pretrain-data",
        "pretrain-resume", "pretrain-config", "pretrain-config-not-json", "fuse-scores"])
def test_bad_input_exits_with_named_error(pretrained, tmp_path, capsys, argv, code, named):
    paths = {"ckpt": pretrained / "run" / "checkpoint.bin", "data": pretrained / "data",
             "missing": tmp_path / "missing", "not_json": tmp_path / "config.json",
             "out": tmp_path / "out"}
    paths["not_json"].write_text("{stage_epochs: [1")
    names = {key: str(path) for key, path in paths.items()}
    assert main([arg.format(**names) for arg in argv]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named.format(**names) in err


@pytest.mark.parametrize("argv", [
    ["linprobe", "--checkpoint", "{ckpt}", "--data", "{data}", "--epochs", "1",
     "--scores-out", "{out}"],
    ["gen-data", "--classes", "3", "--per-class", "6", "--frames", "16", "--out", "{out}"],
    ["pretrain", "--data", "{data}", "--out", "{run}", "--metrics", "{out}", "--set",
     "stage_epochs=[1,0,0]", "--set", "queue_size=8", "--set", "batch_size=8"],
], ids=["linprobe-scores-out", "gen-data-out", "pretrain-metrics"])
def test_unwritable_output_exits_1_naming_it(pretrained, tmp_path, capsys, argv):
    # an output under a missing directory, or a directory over an existing file
    out = tmp_path / "taken" if argv[0] == "gen-data" else tmp_path / "missing" / "out.json"
    (tmp_path / "taken").write_text("")
    names = {"ckpt": pretrained / "run" / "checkpoint.bin", "data": pretrained / "data",
             "run": tmp_path / "run", "out": out}
    assert main([arg.format(**names) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err
    if argv[0] == "pretrain":  # refused before the first step: no checkpoint
        assert list((tmp_path / "run").iterdir()) == []


def test_unlabeled_clip_exits_1_naming_it(pretrained, tmp_path, capsys):
    data = load_dataset(pretrained / "data")
    clip = data["val"][1]
    data["val"][1] = SkeletonSequence(clip.data, clip.graph)
    splits = ["train"] * len(data["train"]) + ["val"] * len(data["val"])
    write_dataset(tmp_path / "data", data["train"] + data["val"], splits)
    argv = ["linprobe", "--checkpoint", str(pretrained / "run" / "checkpoint.bin"),
            "--data", str(tmp_path / "data"), "--epochs", "1"]
    assert main(argv) == 1
    assert "val clip 1 has no label" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["pft-hist", "knn"])
def test_empty_val_split_exits_1(pretrained, tmp_path, capsys, command):
    train = load_dataset(pretrained / "data")["train"]
    write_dataset(tmp_path / "data", train, ["train"] * len(train))
    argv = [command, "--checkpoint", str(pretrained / "run" / "checkpoint.bin"),
            "--data", str(tmp_path / "data")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "needs validation samples" in err


def test_queue_smaller_than_a_batch_exits_2_before_any_step(pretrained, tmp_path, capsys):
    argv = ["pretrain", "--data", str(pretrained / "data"), "--out", str(tmp_path / "run"),
            "--metrics", str(tmp_path / "metrics.jsonl")]
    for setting in [*TINY_RUN, "queue_size=4"]:
        argv += ["--set", setting]
    assert main(argv) == 2
    assert "queue_size" in capsys.readouterr().err
    assert not (tmp_path / "metrics.jsonl").exists()
    assert list((tmp_path / "run").iterdir()) == []


def _subcommands():
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


# every option of every subcommand; a required one cannot be left out
OPTION_CASES = [(command, action.option_strings[0], given)
                for command, sub in _subcommands().items()
                for action in sub._actions if action.option_strings and action.dest != "help"
                for given in (True, False) if given or not action.required]


@pytest.mark.parametrize("command,flag,given", OPTION_CASES,
                         ids=[f"{c}{f}-{'given' if g else 'left-out'}" for c, f, g in OPTION_CASES])
def test_config_value_error_prints_under_the_flag_that_set_it(monkeypatch, capsys, command, flag,
                                                              given):
    """A `ConfigValueError` keyed by an option's `dest` prints under the flag
    when the option holds a value (given, or a default of its own), and under
    the key when it holds None."""
    sub = _subcommands()[command]
    action = next(a for a in sub._actions if flag in a.option_strings)

    def fail(args):
        raise ConfigValueError(action.dest, "out of range")

    monkeypatch.setattr(f"skelcl.cli.{sub.get_default('func').__name__}", fail)

    def value(option):
        return option.choices[0] if option.choices else "1"

    argv = [command]
    for option in sub._actions:
        if option.required and option is not action or option is action and given:
            argv += [option.option_strings[0], value(option)]
    assert main(argv) == 2
    named = flag if given or action.default is not None else action.dest
    assert capsys.readouterr().err == f"error: {named}: out of range\n"
