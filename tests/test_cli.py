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
