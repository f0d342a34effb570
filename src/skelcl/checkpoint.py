"""Self-describing binary checkpoints with bit-exact round trips.

A checkpoint is a `skeleton.write_file` file (the layout is documented
there) with magic "CKPT", the canonical config JSON as its document,
and one named tensor per piece of mutable training state (both encoder
branches per stream, queue rings and cursors, optimizer buffers,
epoch/step cursor), which is what makes resume replay the
uninterrupted run exactly.

A damaged file fails with a named `SkelclError`; `read_file` checks the
stored hash against the raw JSON bytes before they are decoded, and
every tensor the state is rebuilt from must be present with its exact
shape.  Saving replaces the file atomically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import RunConfig, config_from_dict
from .contrast import EncoderPair, MemoryQueue
from .encoder import EncoderParams, init_params
from .errors import CorruptFile, StreamMissing
from .rng import RngStream
from .skeleton import read_file, write_file
from .train import OptimizerState, TrainState

MAGIC = b"CKPT"


@dataclass
class Checkpoint:
    config: RunConfig
    tensors: dict[str, np.ndarray]


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    write_file(path, MAGIC, ckpt.config.canonical_json().encode(), ckpt.tensors)


def load_checkpoint(path) -> Checkpoint:
    doc, tensors = read_file(path, MAGIC, "checkpoint")
    return Checkpoint(config=config_from_dict(doc), tensors=tensors)


# -- TrainState mapping --------------------------------------------------------------


def state_to_checkpoint(state: TrainState) -> Checkpoint:
    tensors: dict[str, np.ndarray] = {
        "meta.epoch": np.array([state.epoch], dtype=np.float32),
        "meta.step": np.array([state.step], dtype=np.float32),
    }
    for u, pair in state.pairs.items():
        for branch, params in (("query", pair.query), ("key", pair.key)):
            for name, t in params.tensors.items():
                tensors[f"enc.{u}.{branch}.{name}"] = t.data
        q = state.queues[u]
        tensors[f"queue.{u}.slots"] = q.slots
        tensors[f"queue.{u}.head"] = np.array([q.head], dtype=np.float32)
        tensors[f"queue.{u}.filled"] = np.array([q.filled], dtype=np.float32)
        for name, buf in state.optimizers[u].buffers.items():
            tensors[f"opt.{u}.{name}"] = buf
    return Checkpoint(config=state.config, tensors=tensors)


def _stored(ckpt: Checkpoint, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """The tensor `name`, which must be present with exactly `shape`."""
    arr = ckpt.tensors.get(name)
    if arr is None:
        raise CorruptFile(f"checkpoint lacks tensor {name!r}")
    if arr.shape != shape:
        raise CorruptFile(f"tensor {name!r} has shape {arr.shape}, expected {shape}")
    return arr


def _stored_count(ckpt: Checkpoint, name: str, high: float) -> int:
    """A cursor stored as a one-element tensor: an integer in [0, high]."""
    value = float(_stored(ckpt, name, (1,))[0])
    if not (value.is_integer() and 0 <= value <= high):
        raise CorruptFile(f"tensor {name!r} holds {value}, not an integer in [0, {high}]")
    return int(value)


def _load_encoder(ckpt: Checkpoint, stream: str, branch: str, params: EncoderParams) -> None:
    for name, t in params.tensors.items():
        t.data[...] = _stored(ckpt, f"enc.{stream}.{branch}.{name}", t.shape)


def state_from_checkpoint(ckpt: Checkpoint) -> TrainState:
    config = ckpt.config
    pairs: dict[str, EncoderPair] = {}
    queues: dict[str, MemoryQueue] = {}
    optimizers: dict[str, OptimizerState] = {}
    for u in config.streams:
        if f"queue.{u}.slots" not in ckpt.tensors:
            raise StreamMissing(f"checkpoint lacks stream {u!r}")
        params = init_params(config, RngStream(0).split("rebuild"))
        pair = EncoderPair(params, config.key_momentum)
        _load_encoder(ckpt, u, "query", pair.query)
        _load_encoder(ckpt, u, "key", pair.key)
        pairs[u] = pair

        q = MemoryQueue(config.queue_size, config.embed_dim)
        q.slots[...] = _stored(ckpt, f"queue.{u}.slots", q.slots.shape)
        q.head = _stored_count(ckpt, f"queue.{u}.head", q.capacity - 1)
        q.filled = _stored_count(ckpt, f"queue.{u}.filled", q.capacity)
        queues[u] = q

        opt = OptimizerState(
            lr=config.lr, momentum=config.sgd_momentum, weight_decay=config.weight_decay
        )
        for name, t in pair.query.trainable().items():
            if f"opt.{u}.{name}" in ckpt.tensors:  # absent before the first step
                opt.buffers[name] = _stored(ckpt, f"opt.{u}.{name}", t.shape).copy()
        optimizers[u] = opt

    return TrainState(
        config=config,
        pairs=pairs,
        queues=queues,
        optimizers=optimizers,
        epoch=_stored_count(ckpt, "meta.epoch", sum(config.stage_epochs)),
        step=_stored_count(ckpt, "meta.step", math.inf),
    )


def query_params(ckpt: Checkpoint, stream: str) -> EncoderParams:
    """The trained query-branch encoder of one stream."""
    if f"queue.{stream}.slots" not in ckpt.tensors:
        raise StreamMissing(f"checkpoint lacks stream {stream!r}")
    params = init_params(ckpt.config, RngStream(0).split("rebuild"))
    _load_encoder(ckpt, stream, "query", params)
    return params
