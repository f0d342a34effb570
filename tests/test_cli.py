"""Command-line entry point: exit codes and the rewritten subcommands."""

import json

import pytest

from skelcl.cli import main

GRADCHECK_COMPONENTS = {
    "block_entry", "block_residual", "block_train_norm", "projector", "loss_intra", "loss_nnm",
    "loss_pft_query_path", "loss_combined",
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


TINY_RUN = ["stage_epochs=[1,0,0]", "queue_size=8", "batch_size=8", "enc_blocks=1",
            "enc_channels=[4]", "enc_hidden=8", "embed_dim=4"]


@pytest.fixture(scope="module")
def pretrained(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    assert main(["gen-data", "--classes", "3", "--per-class", "6", "--frames", "16",
                 "--seed", "3", "--out", str(root / "data")]) == 0
    argv = ["pretrain", "--data", str(root / "data"), "--out", str(root / "run"),
            "--metrics", str(root / "metrics.jsonl")]
    for setting in TINY_RUN:
        argv += ["--set", setting]
    assert main(argv) == 0
    records = (root / "metrics.jsonl").read_text().splitlines()
    assert len(records) == 1 + 2  # header, then one step per batch of the 12-clip train split
    return root


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


def test_checkpoint_with_bad_magic_exits_1(pretrained, tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"WHAT" + b"\0" * 32)
    assert main(["knn", "--checkpoint", str(bad), "--data", str(pretrained / "data")]) == 1
    assert "not a checkpoint" in capsys.readouterr().err
