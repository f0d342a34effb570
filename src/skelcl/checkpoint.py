"""Self-describing binary checkpoints with bit-exact round trips.

A checkpoint is a `skeleton.write_file` file (the layout is documented
there) with magic "CKPT".  Its JSON document holds the config and the
integer counters (the epoch and step cursor, and each queue's head and
fill count) as JSON integers, exact at any size, unlike the f32 tensor
payloads.  One named tensor holds each other piece of mutable training
state: both encoder branches per stream, queue rings and the SGD
momentum of `TrainState.buffers` (`opt.{stream}.{param}`).  A restore
overwrites every array and counter of a fresh `init_train_state`.
Together they make resume replay the uninterrupted run exactly.

A damaged file fails with a named `SkelclError`; `read_file` checks the
stored hash against the raw JSON bytes before they are decoded, every
tensor the state is rebuilt from must be present with its exact shape
and finite, the queue rows in use must be unit-norm, and every counter
must be present and an integer in its range.  Only the JSON is hashed,
so these checks are what catch a damaged payload.  The state holds a
momentum buffer for every query parameter from the start (zero before
the first step), so every `opt.*` tensor must be present too: a restore
never resets momentum silently.  Saving replaces the file atomically.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig, config_from_dict
from .contrast import check_unit_rows
from .encoder import EncoderParams, init_params
from .errors import CorruptFile, StreamMissing
from .rng import RngStream
from .skeleton import read_file, write_file
from .train import TrainState, init_train_state

MAGIC = b"CKPT"


@dataclass
class Checkpoint:
    config: RunConfig
    tensors: dict[str, np.ndarray]
    counters: dict[str, int] = field(default_factory=dict)


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    doc = {"config": ckpt.config.to_dict(), "counters": ckpt.counters}
    write_file(path, MAGIC, json.dumps(doc, sort_keys=True, separators=(",", ":")).encode(),
               ckpt.tensors)


def load_checkpoint(path) -> Checkpoint:
    doc, tensors = read_file(path, MAGIC, "checkpoint")
    if not (isinstance(doc, dict) and set(doc) == {"config", "counters"}
            and isinstance(doc["config"], dict) and isinstance(doc["counters"], dict)):
        raise CorruptFile(f"{path}: checkpoint document is not a config plus counters")
    return Checkpoint(config_from_dict(doc["config"]), tensors, doc["counters"])


# -- TrainState mapping --------------------------------------------------------------


def _arrays(state: TrainState):
    """(name, array, unit rows) of every tensor a checkpoint of `state` holds;
    unit rows counts the leading rows that must be unit-norm (a queue ring
    fills from row 0, so its rows [0, filled) hold pushed keys), else None."""
    for u, pair in state.pairs.items():
        for branch, params in (("query", pair.query), ("key", pair.key)):
            for name, t in params.tensors.items():
                yield f"enc.{u}.{branch}.{name}", t.data, None
        q = state.queues[u]
        yield f"queue.{u}.slots", q.slots, q.filled
    for key, buf in state.buffers.items():
        yield f"opt.{key}", buf, None


def state_to_checkpoint(state: TrainState) -> Checkpoint:
    """A checkpoint of `state` whose tensors are the state's own arrays, not
    copies: training writes them in place, so save or copy the checkpoint
    before training resumes.  (A copy per call would hold a second set of
    queues, weights and momentum buffers in memory.)"""
    counters = {"meta.epoch": int(state.epoch), "meta.step": int(state.step)}
    for u, q in state.queues.items():
        counters[f"queue.{u}.head"] = int(q.head)
        counters[f"queue.{u}.filled"] = int(q.filled)
    tensors = {name: arr for name, arr, _ in _arrays(state)}
    return Checkpoint(config=state.config, tensors=tensors, counters=counters)


def _stored(ckpt: Checkpoint, name: str, shape: tuple[int, ...],
            unit_rows: int | None = None) -> np.ndarray:
    """The tensor `name`, which must be present with exactly `shape` and
    finite; with `unit_rows`, its first `unit_rows` rows must be unit-norm.
    Either way the values are checked in one pass."""
    arr = ckpt.tensors.get(name)
    if arr is None:
        raise CorruptFile(f"checkpoint lacks tensor {name!r}")
    if arr.shape != shape:
        raise CorruptFile(f"tensor {name!r} has shape {arr.shape}, expected {shape}")
    if unit_rows is not None:
        check_unit_rows(arr, f"tensor {name!r} rows", unit_rows, (CorruptFile, CorruptFile))
    elif not np.isfinite(arr).all():
        raise CorruptFile(f"tensor {name!r} holds a non-finite value")
    return arr


def _stored_count(ckpt: Checkpoint, name: str, high: float) -> int:
    """The counter `name`, which must be present and an integer in [0, high]."""
    if name not in ckpt.counters:
        raise CorruptFile(f"checkpoint lacks counter {name!r}")
    value = ckpt.counters[name]
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value <= high:
        raise CorruptFile(f"counter {name!r} holds {value!r}, not an integer in [0, {high}]")
    return value


def state_from_checkpoint(ckpt: Checkpoint) -> TrainState:
    """A fresh `init_train_state` with every stored counter, then array, written into it."""
    config = ckpt.config
    state = init_train_state(config)
    for u, q in state.queues.items():
        if f"queue.{u}.slots" not in ckpt.tensors:
            raise StreamMissing(f"checkpoint lacks stream {u!r}")
        q.head = _stored_count(ckpt, f"queue.{u}.head", q.capacity - 1)
        q.filled = _stored_count(ckpt, f"queue.{u}.filled", q.capacity)
    state.epoch = _stored_count(ckpt, "meta.epoch", sum(config.stage_epochs))
    state.step = _stored_count(ckpt, "meta.step", math.inf)
    for name, arr, unit_rows in _arrays(state):
        arr[...] = _stored(ckpt, name, arr.shape, unit_rows)
    return state


def query_params(ckpt: Checkpoint, stream: str, branch: str = "query") -> EncoderParams:
    """The trained encoder of one stream's `branch` ("query" or "key")."""
    if f"queue.{stream}.slots" not in ckpt.tensors:
        raise StreamMissing(f"checkpoint lacks stream {stream!r}")
    params = init_params(ckpt.config, RngStream(0).split("rebuild"))
    for name, t in params.tensors.items():
        t.data[...] = _stored(ckpt, f"enc.{stream}.{branch}.{name}", t.shape)
    return params
