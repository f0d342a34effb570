"""Run configuration: one flat, validated, fully-materialized key set.

Precedence when building a config: package defaults, then the
`CSCL_SEED` environment variable (seed only), then the JSON file, then
explicit overrides.  Unknown keys and wrong types are rejected by name.
Every constructed `RunConfig` also checks its values and raises
`ConfigValueError` naming the first key out of range: a positive
temperature, batch size and queue, three stage epoch counts, known and
distinct streams, probabilities and ratios within [0, 1], one
nondecreasing positive channel width per encoder block, an odd
temporal kernel, and so on.  This is the one config type: the encoder,
losses and augmentations all read their settings from it.  The canonical
JSON form (sorted keys, compact separators) is what gets hashed and
persisted, so two runs with equal hashes saw equal configs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigTypeError, ConfigValueError, UnknownKey
from .skeleton import STREAM_IDS

AUGMENT_FAMILIES = ("normal", "extreme")


@dataclass
class RunConfig:
    seed: int = 7
    streams: list[str] = field(default_factory=lambda: ["joint", "bone", "motion"])

    # encoder
    enc_blocks: int = 3
    enc_channels: list[int] = field(default_factory=lambda: [16, 32, 32])
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
    stage_epochs: list[int] = field(default_factory=lambda: [30, 10, 10])
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
    fusion_weights: dict[str, float] = field(
        default_factory=lambda: {"joint": 0.6, "bone": 0.6, "motion": 0.4}
    )

    def __post_init__(self):
        def require(key: str, ok: bool, reason: str) -> None:
            if not ok:
                raise ConfigValueError(key, reason)

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
        require("enc_normalization", self.enc_normalization in ("batch", "off"),
                "normalization must be 'batch' or 'off'")
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
        require("fusion_weights", all(w > 0 for w in self.fusion_weights.values()),
                "weights must be positive")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def hash(self) -> int:
        return json_hash(self.canonical_json().encode())


def json_hash(config_json: bytes) -> int:
    """First 8 bytes of the SHA-256 digest of config JSON, as an unsigned int."""
    return int.from_bytes(hashlib.sha256(config_json).digest()[:8], "little")


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}
_DEFAULTS = RunConfig()


def _check_type(key: str, value, template):
    if isinstance(template, bool):
        if not isinstance(value, bool):
            raise ConfigTypeError(f"{key}: expected bool, got {type(value).__name__}")
        return value
    if isinstance(template, int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigTypeError(f"{key}: expected int, got {type(value).__name__}")
        return value
    if isinstance(template, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigTypeError(f"{key}: expected float, got {type(value).__name__}")
        return float(value)
    if isinstance(template, str):
        if not isinstance(value, str):
            raise ConfigTypeError(f"{key}: expected str, got {type(value).__name__}")
        return value
    if isinstance(template, list):
        if not isinstance(value, list):
            raise ConfigTypeError(f"{key}: expected list, got {type(value).__name__}")
        elem = template[0] if template else None
        return [
            _check_type(f"{key}[{i}]", v, elem) if elem is not None else v
            for i, v in enumerate(value)
        ]
    if isinstance(template, dict):
        if not isinstance(value, dict):
            raise ConfigTypeError(f"{key}: expected object, got {type(value).__name__}")
        return {str(k): _check_type(f"{key}.{k}", v, 0.0) for k, v in value.items()}
    raise ConfigTypeError(f"{key}: unsupported config type {type(template).__name__}")


def _apply(cfg_dict: dict, updates: dict) -> None:
    if not isinstance(updates, dict):
        raise ConfigTypeError("config must hold a JSON object")
    defaults = _DEFAULTS.to_dict()
    for key, value in updates.items():
        if key not in _FIELDS:
            raise UnknownKey(f"unknown config key {key!r}")
        cfg_dict[key] = _check_type(key, value, defaults[key])


def parse_config(
    path: str | Path | None = None,
    overrides: dict | None = None,
    env: dict | None = None,
) -> RunConfig:
    """Materialize a config from defaults, env seed, file, and overrides."""
    cfg_dict = _DEFAULTS.to_dict()
    env = os.environ if env is None else env
    if "CSCL_SEED" in env:
        try:
            cfg_dict["seed"] = int(env["CSCL_SEED"])
        except ValueError:
            raise ConfigTypeError("CSCL_SEED: expected an integer")
    if path is not None:
        _apply(cfg_dict, json.loads(Path(path).read_text()))
    if overrides:
        _apply(cfg_dict, overrides)
    return RunConfig(**cfg_dict)


def config_from_dict(d: dict) -> RunConfig:
    cfg_dict = _DEFAULTS.to_dict()
    _apply(cfg_dict, d)
    return RunConfig(**cfg_dict)
