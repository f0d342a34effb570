"""Config parsing: defaults, precedence, validation, hashing."""

import dataclasses
import json
import math

import numpy as np
import pytest

from skelcl.config import RunConfig, config_from_dict, read_config
from skelcl.errors import ConfigTypeError, ConfigValueError, UnknownKey


def test_empty_config_gives_defaults(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{}")
    cfg = config_from_dict(read_config(path))
    assert cfg.tau == 0.07
    assert cfg.pft_alpha == 2.0
    assert cfg.pft_mu == 1.0
    assert cfg.seed == 7
    assert cfg.fusion_weights == {"joint": 0.6, "bone": 0.6, "motion": 0.4}


def test_flag_overrides_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"tau": 0.07}))
    cfg = config_from_dict(read_config(path), {"tau": 0.1})
    assert cfg.tau == 0.1


def test_unknown_key_named(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"taw": 0.07}))
    with pytest.raises(UnknownKey, match="taw"):
        config_from_dict(read_config(path))


def test_type_errors_carry_key_path(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"stage_epochs": [30, "ten", 10]}))
    with pytest.raises(ConfigTypeError, match=r"stage_epochs\[1\]"):
        config_from_dict(read_config(path))


def test_later_document_wins(tmp_path):
    """A file, then `--set` pairs, then flags: each document overrides the ones before."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 3, "tau": 0.2}))
    assert config_from_dict(read_config(path)).seed == 3
    cfg = config_from_dict(read_config(path), {"seed": 4}, {"seed": 5})
    assert (cfg.seed, cfg.tau) == (5, 0.2)


def test_hash_stable_and_sensitive():
    a, b = RunConfig(), RunConfig()
    assert a.hash() == b.hash()
    assert RunConfig(tau=0.1).hash() != a.hash()


def test_bool_not_accepted_as_int():
    with pytest.raises(ConfigTypeError):
        config_from_dict({"queue_size": True})


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
        ("enc_normalization", "off"),
    ],
)
def test_out_of_range_value_named_at_build(key, value):
    with pytest.raises(ConfigValueError, match=key) as err:
        config_from_dict({key: value})
    assert err.value.key == key


@pytest.mark.parametrize("key,value", [
    ("tau", math.inf),
    ("lr", math.inf),
    ("lr", math.nan),
    ("key_momentum", -math.inf),
    ("fusion_weights", {"joint": math.inf, "bone": 0.6}),
])
def test_non_finite_float_named_at_build(key, value):
    # an infinity passes every `> 0` check, so finiteness is checked first
    with pytest.raises(ConfigValueError, match=key) as err:
        config_from_dict({key: value})
    assert (err.value.key, err.value.reason) == (key, "must be finite")


def test_non_finite_float_in_config_file_named(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"tau": Infinity}')
    with pytest.raises(ConfigValueError, match="tau"):
        config_from_dict(read_config(path))


@pytest.mark.parametrize("key,value,path", [
    ("knn_k", True, "knn_k"),
    ("seed", False, "seed"),
    ("linear_epochs", 2.5, "linear_epochs"),
    ("queue_size", np.float64(128.0), "queue_size"),
    ("enc_blocks", "3", "enc_blocks"),
    ("lr", "0.1", "lr"),
    ("tau", True, "tau"),
    ("pft_apply_to_inter", 1, "pft_apply_to_inter"),
    ("query_family", 1, "query_family"),
    ("enc_channels", {16, 32}, "enc_channels"),
    ("stage_epochs", [30, 10.0, 10], r"stage_epochs\[1\]"),
    ("streams", ["joint", 3], r"streams\[1\]"),
    ("fusion_weights", {"joint": 0.6, "bone": "0.6"}, r"fusion_weights\.bone"),
    ("fusion_weights", {"joint": None}, r"fusion_weights\.joint"),
    ("fusion_weights", [0.6, 0.6, 0.4], "fusion_weights"),
])
def test_wrong_type_named_at_direct_build(key, value, path):
    # a direct build checks types as `config_from_dict` does
    for build in (lambda: RunConfig(**{key: value}), lambda: config_from_dict({key: value})):
        with pytest.raises(ConfigTypeError, match=f"^{path}: expected"):
            build()


def test_numpy_scalars_stored_as_plain_values():
    cfg = RunConfig(seed=np.int64(3), knn_k=np.uint8(4), lr=np.float32(0.25),
                    tau=np.int32(1), stage_epochs=[np.int16(1), 2, 3],
                    fusion_weights={"joint": np.float64(0.5)})
    plain = RunConfig(seed=3, knn_k=4, lr=0.25, tau=1.0, stage_epochs=[1, 2, 3],
                      fusion_weights={"joint": 0.5})
    assert cfg == plain and cfg.hash() == plain.hash()
    for key in ("seed", "knn_k", "lr", "tau"):
        assert type(getattr(cfg, key)) is type(getattr(plain, key))
    assert [type(e) for e in cfg.stage_epochs] == [int] * 3
    assert type(cfg.fusion_weights["joint"]) is float
    # an int given for a float key is stored, and hashed, as the float
    assert RunConfig(lr=1).canonical_json() == RunConfig(lr=1.0).canonical_json()


def test_built_config_cannot_change():
    cfg = RunConfig()
    for key, value in (("knn_k", True), ("lr", math.inf), ("tau", 0.1)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, key, value)
    with pytest.raises(AttributeError):
        cfg.streams.append("motion")
    with pytest.raises(TypeError):
        cfg.fusion_weights["joint"] = 2.0
    assert cfg == RunConfig()


def test_list_keys_are_tuples_and_written_as_lists():
    cfg = RunConfig(streams=["joint", "bone"], enc_channels=(8,), enc_blocks=1)
    assert cfg.streams == ("joint", "bone") and cfg.enc_channels == (8,)
    assert cfg == RunConfig(streams=("joint", "bone"), enc_channels=[8], enc_blocks=1)
    doc = cfg.to_dict()
    assert doc["streams"] == ["joint", "bone"] and doc["stage_epochs"] == [30, 10, 10]
    assert type(doc["fusion_weights"]) is dict
    assert config_from_dict(json.loads(cfg.canonical_json())) == cfg
    # the canonical JSON, and so the hash, that the list-holding config had
    assert '"streams":["joint","bone","motion"]' in RunConfig().canonical_json()
    assert RunConfig().hash() == 14604677643165524574


def test_replace_builds_a_checked_config():
    cfg = dataclasses.replace(RunConfig(), stage_epochs=[1, 0, 0], tau=0.2)
    assert cfg.stage_epochs == (1, 0, 0) and cfg.tau == 0.2
    assert dataclasses.replace(cfg) == cfg
    with pytest.raises(ConfigValueError, match="knn_k"):
        dataclasses.replace(cfg, knn_k=0)
    with pytest.raises(ConfigTypeError, match="^knn_k"):
        dataclasses.replace(cfg, knn_k=True)
