"""Config parsing: defaults, precedence, validation, hashing."""

import json

import pytest

from skelcl.config import RunConfig, parse_config
from skelcl.errors import ConfigTypeError, ConfigValueError, UnknownKey


def test_empty_config_gives_defaults(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{}")
    cfg = parse_config(path, env={})
    assert cfg.tau == 0.07
    assert cfg.pft_alpha == 2.0
    assert cfg.pft_mu == 1.0
    assert cfg.seed == 7
    assert cfg.fusion_weights == {"joint": 0.6, "bone": 0.6, "motion": 0.4}


def test_flag_overrides_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"tau": 0.07}))
    cfg = parse_config(path, overrides={"tau": 0.1}, env={})
    assert cfg.tau == 0.1


def test_unknown_key_named(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"taw": 0.07}))
    with pytest.raises(UnknownKey, match="taw"):
        parse_config(path, env={})


def test_type_errors_carry_key_path(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"stage_epochs": [30, "ten", 10]}))
    with pytest.raises(ConfigTypeError, match=r"stage_epochs\[1\]"):
        parse_config(path, env={})


def test_env_seed_lowest_precedence(tmp_path):
    cfg = parse_config(env={"CSCL_SEED": "99"})
    assert cfg.seed == 99
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 3}))
    assert parse_config(path, env={"CSCL_SEED": "99"}).seed == 3
    assert parse_config(path, overrides={"seed": 5}, env={"CSCL_SEED": "99"}).seed == 5


def test_hash_stable_and_sensitive():
    a, b = RunConfig(), RunConfig()
    assert a.hash() == b.hash()
    assert RunConfig(tau=0.1).hash() != a.hash()


def test_bool_not_accepted_as_int():
    with pytest.raises(ConfigTypeError):
        parse_config(overrides={"queue_size": True}, env={})


def test_canonical_json_round_trips():
    cfg = RunConfig(seed=11, tau=0.2)
    loaded = json.loads(cfg.canonical_json())
    assert loaded["seed"] == 11 and loaded["tau"] == 0.2


@pytest.mark.parametrize(
    "key,value",
    [
        ("tau", 0),
        ("batch_size", 0),
        ("stage_epochs", [1]),
        ("stage_epochs", [1, -1, 0]),
        ("queue_size", 0),
        ("enc_temporal_kernel", 4),
        ("enc_channels", [32, 16, 8]),
        ("pft_alpha", 0.0),
        ("pft_mu", -0.5),
        ("nnm_topk", 0),
        ("streams", []),
        ("streams", ["joint", "velocity"]),
        ("key_momentum", 1.0),
        ("crop_min_ratio", 0.0),
        ("extreme_prob", 1.5),
        ("key_family", "wild"),
        ("enc_blocks", 0),
        ("enc_hidden", 0),
        ("embed_dim", 1),
        ("enc_normalization", "layer"),
    ],
)
def test_out_of_range_value_named_at_build(key, value):
    with pytest.raises(ConfigValueError, match=key) as err:
        parse_config(overrides={key: value}, env={})
    assert err.value.key == key
