"""Run configuration: one flat, validated, fully-materialized key set.

Every `RunConfig`, however it is built, checks each setting once, in
`__post_init__`.  First the type: a bool key takes a bool, an int key
an int or a NumPy integer, a float key any of those or a float or NumPy
real scalar (a bool is neither), a string key a string, and a list or
object key checks each element; each value is stored as the plain
Python value, so `RunConfig(knn_k=np.int64(5))` equals `RunConfig(knn_k=5)`.
A list key also takes a tuple and is stored as a tuple, and
`fusion_weights` takes any mapping and is stored as a read-only one, so
a built config cannot change: it is a frozen dataclass, whose attribute
assignment raises, and `dataclasses.replace` builds a new one, checked
again.  `to_dict` and the canonical JSON still write lists and a plain
object.
A wrong type raises `ConfigTypeError` naming the key path
(`stage_epochs[1]`, `fusion_weights.joint`).  Then the range: the
first key out of range raises `ConfigValueError` naming it.  Every
float setting is finite (`fusion_weights` values included, since an
infinity passes every `> 0` check); a positive temperature, batch size
and queue; three stage epoch counts; known and distinct streams;
probabilities and ratios within [0, 1]; one nondecreasing positive
channel width per encoder block; an odd temporal kernel, and so on.
The evaluation protocols build their settings into a `RunConfig` too,
so a protocol argument obeys the rule of the key it stands for.

`config_from_dict(*docs)` merges documents: it starts from the package
defaults and applies each document in order, so a later one wins, and
refuses a key outside the set (`UnknownKey`).  The command line passes
a config file (`read_config`), then its `--set` pairs, then its flags;
a checkpoint passes its stored config.
This is the one config type: the encoder, losses, augmentations and
protocols all read their settings from it.  The canonical JSON form
(sorted keys, compact separators) is what gets hashed and persisted, so
two runs with equal hashes saw equal configs.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .errors import ConfigTypeError, ConfigValueError, UnknownKey
from .skeleton import STREAM_IDS, json_hash, read_input

AUGMENT_FAMILIES = ("normal", "extreme")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 7
    streams: tuple[str, ...] = ("joint", "bone", "motion")

    # encoder
    enc_blocks: int = 3
    enc_channels: tuple[int, ...] = (16, 32, 32)
    enc_temporal_kernel: int = 3
    enc_hidden: int = 64
    embed_dim: int = 32
    enc_normalization: str = "batch"

    # contrastive machinery
    tau: float = 0.07
    key_momentum: float = 0.99
    queue_size: int = 512
    nnm_topk: int = 1
    pft_alpha: float = 2.0
    pft_mu: float = 1.0
    pft_apply_to_inter: bool = False

    # augmentation (both branches default to the normal family)
    shear_beta: float = 0.5
    crop_min_ratio: float = 0.5
    rotate_max_deg: float = 30.0
    aug_noise_sigma: float = 0.05
    extreme_prob: float = 0.5
    query_family: str = "normal"
    key_family: str = "normal"

    # optimization schedule (paper-scale values: batch 128, queue 32768,
    # stages 150/150/200 with the drop at epoch 250; these are desk defaults)
    batch_size: int = 32
    stage_epochs: tuple[int, ...] = (30, 10, 10)
    lr: float = 0.1
    lr_after_drop: float = 0.01
    lr_drop_epoch: int = 40
    sgd_momentum: float = 0.9
    weight_decay: float = 1e-4

    # evaluation protocols
    linear_epochs: int = 100
    linear_lr: float = 0.3
    finetune_epochs: int = 30
    finetune_lr: float = 0.1
    knn_k: int = 5
    fusion_weights: Mapping[str, float] = field(
        default_factory=lambda: MappingProxyType({"joint": 0.6, "bone": 0.6, "motion": 0.4})
    )

    def __post_init__(self):
        def require(key: str, ok: bool, reason: str) -> None:
            if not ok:
                raise ConfigValueError(key, reason)

        for f in dataclasses.fields(self):
            object.__setattr__(self, f.name,
                               check_type(f.name, getattr(self, f.name), _TEMPLATES[f.name]))
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            numbers = value.values() if isinstance(value, Mapping) else (value,)
            require(f.name, all(math.isfinite(v) for v in numbers if isinstance(v, float)),
                    "must be finite")
        require("streams", bool(self.streams) and len(set(self.streams)) == len(self.streams)
                and set(self.streams) <= set(STREAM_IDS),
                f"need distinct stream ids from {STREAM_IDS}")
        require("embed_dim", self.embed_dim >= 2, "embedding dimension must be >= 2")
        require("enc_temporal_kernel",
                self.enc_temporal_kernel >= 1 and self.enc_temporal_kernel % 2 == 1,
                "temporal kernel must be positive and odd")
        require("enc_blocks", self.enc_blocks >= 1, "need at least one block")
        channels = self.enc_channels
        require("enc_channels", len(channels) == self.enc_blocks, "need one channel width per block")
        require("enc_channels", all(a <= b for a, b in zip(channels, channels[1:])),
                "channel widths must be nondecreasing")
        require("enc_channels", channels[0] >= 1, "channel widths must be positive")
        require("enc_hidden", self.enc_hidden >= 1, "hidden width must be positive")
        # every block batch-normalizes; the key stays because stored configs carry it
        require("enc_normalization", self.enc_normalization == "batch",
                "normalization must be 'batch'")
        require("tau", self.tau > 0, "temperature must be positive")
        require("key_momentum", 0.0 <= self.key_momentum < 1.0, "must lie in [0, 1)")
        require("queue_size", self.queue_size >= 1, "must be positive")
        require("nnm_topk", 1 <= self.nnm_topk <= self.queue_size, "must lie in [1, queue_size]")
        require("pft_alpha", self.pft_alpha > 0, "must be positive")
        require("pft_mu", self.pft_mu >= 0, "must be nonnegative")
        for key in ("shear_beta", "rotate_max_deg", "aug_noise_sigma"):
            require(key, getattr(self, key) >= 0, "must be nonnegative")
        require("crop_min_ratio", 0 < self.crop_min_ratio <= 1, "must lie in (0, 1]")
        require("extreme_prob", 0 <= self.extreme_prob <= 1, "must lie in [0, 1]")
        for key in ("query_family", "key_family"):
            require(key, getattr(self, key) in AUGMENT_FAMILIES, f"must be one of {AUGMENT_FAMILIES}")
        require("batch_size", self.batch_size >= 1, "must be positive")
        require("stage_epochs", len(self.stage_epochs) == 3 and min(self.stage_epochs) >= 0,
                "need three nonnegative epoch counts (basic, +nnm, +pft)")
        for key in ("lr", "lr_after_drop"):
            require(key, getattr(self, key) > 0, "must be positive")
        require("lr_drop_epoch", self.lr_drop_epoch >= 0, "must be nonnegative")
        require("sgd_momentum", 0 <= self.sgd_momentum < 1, "must lie in [0, 1)")
        require("weight_decay", self.weight_decay >= 0, "must be nonnegative")
        for key in ("linear_epochs", "finetune_epochs"):
            require(key, getattr(self, key) >= 0, "must be nonnegative")
        for key in ("linear_lr", "finetune_lr"):
            require(key, getattr(self, key) > 0, "must be positive")
        require("knn_k", self.knn_k >= 1, "must be positive")
        for stream, w in self.fusion_weights.items():
            require("fusion_weights", w > 0, f"stream {stream!r} needs a positive weight, got {w}")

    def to_dict(self) -> dict:
        """Every key's value in JSON types: lists and a plain dict."""
        return {f.name: _plain(getattr(self, f.name)) for f in dataclasses.fields(self)}

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def hash(self) -> int:
        return json_hash(self.canonical_json().encode())


# each key's default, whose type is the key's type
_TEMPLATES = {f.name: f.default_factory() if f.default is dataclasses.MISSING else f.default
              for f in dataclasses.fields(RunConfig)}
# the scalar types each scalar key type takes; a bool passes only for a bool key
_ACCEPTS = {bool: bool, int: (int, np.integer), float: (int, float, np.integer, np.floating),
            str: str}


def check_type(key: str, value, template):
    """`value` as the plain Python value of `template`'s type, a list as a
    tuple and a mapping as a read-only one; `ConfigTypeError` naming the
    key path where a value or an element has another type."""
    if isinstance(template, tuple):
        if not isinstance(value, (list, tuple)):
            raise ConfigTypeError(f"{key}: expected list, got {type(value).__name__}")
        return tuple(check_type(f"{key}[{i}]", v, template[0]) for i, v in enumerate(value))
    if isinstance(template, Mapping):
        if not isinstance(value, Mapping):
            raise ConfigTypeError(f"{key}: expected object, got {type(value).__name__}")
        return MappingProxyType({str(k): check_type(f"{key}.{k}", v, 0.0)
                                 for k, v in value.items()})
    kind = type(template)
    if not isinstance(value, _ACCEPTS[kind]) or (isinstance(value, bool) and kind is not bool):
        raise ConfigTypeError(f"{key}: expected {kind.__name__}, got {type(value).__name__}")
    return kind(value)


def _plain(value):
    if isinstance(value, tuple):
        return list(value)
    return dict(value) if isinstance(value, Mapping) else value


def _apply(cfg_dict: dict, updates: dict) -> None:
    if not isinstance(updates, dict):
        raise ConfigTypeError("config must hold a JSON object")
    for key, value in updates.items():
        if key not in _TEMPLATES:
            raise UnknownKey(f"unknown config key {key!r}")
        cfg_dict[key] = value


def read_config(path: str | Path) -> dict:
    """The JSON document of a config file; `ConfigTypeError` if it is not JSON."""
    try:
        return json.loads(read_input(path))
    except ValueError as err:
        raise ConfigTypeError(f"{path}: config is not JSON ({err})") from None


def config_from_dict(*docs: dict) -> RunConfig:
    """The defaults with each document's keys applied in order; unknown keys
    raise `UnknownKey`, and `RunConfig` checks every value."""
    cfg_dict = dict(_TEMPLATES)
    for doc in docs:
        _apply(cfg_dict, doc)
    return RunConfig(**cfg_dict)
