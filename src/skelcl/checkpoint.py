"""Self-describing binary checkpoints with bit-exact round trips.

Layout: magic "CKPT", u32 version, u64 config hash, u32 JSON length,
canonical config JSON, u32 tensor count, then per tensor (sorted by
name): u32 name length, name bytes, u32 rank, rank u32 dims, row-major
little-endian f32 payload.  Every piece of mutable training state
(both encoder branches per stream, queue rings and cursors, optimizer
buffers, epoch/step cursor) maps to one named tensor, which is what
makes resume replay the uninterrupted run exactly.

A damaged file fails with a named `SkelclError`; the stored hash is
checked against the raw JSON bytes before they are decoded, and every
tensor the state is rebuilt from must be present with its exact shape.
Saving replaces the file atomically.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import RunConfig, config_from_dict, json_hash
from .contrast import EncoderPair, MemoryQueue
from .encoder import EncoderParams, init_params
from .errors import (
    BadMagic,
    CorruptFile,
    HashMismatch,
    StreamMissing,
    TruncatedFile,
    VersionMismatch,
)
from .rng import RngStream
from .skeleton import write_atomic
from .train import OptimizerState, TrainState

MAGIC = b"CKPT"
VERSION = 1


@dataclass
class Checkpoint:
    config: RunConfig
    tensors: dict[str, np.ndarray]
    version: int = VERSION


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    config_json = ckpt.config.canonical_json().encode()
    parts = [
        MAGIC,
        struct.pack("<IQ", ckpt.version, ckpt.config.hash()),
        struct.pack("<I", len(config_json)),
        config_json,
        struct.pack("<I", len(ckpt.tensors)),
    ]
    for name in sorted(ckpt.tensors):
        arr = np.ascontiguousarray(ckpt.tensors[name], dtype="<f4")
        encoded = name.encode()
        parts.append(struct.pack("<I", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<I", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(arr.tobytes())
    write_atomic(path, b"".join(parts))


def load_checkpoint(path) -> Checkpoint:
    raw = Path(path).read_bytes()
    if len(raw) < 4 or raw[:4] != MAGIC:
        raise BadMagic(f"{path}: not a checkpoint file")
    offset = 4

    def pull(fmt: str):
        nonlocal offset
        size = struct.calcsize(fmt)
        if offset + size > len(raw):
            raise TruncatedFile(f"{path}: ended early at offset {offset}")
        values = struct.unpack_from(fmt, raw, offset)
        offset += size
        return values

    version, stored_hash = pull("<IQ")
    if version != VERSION:
        raise VersionMismatch(f"{path}: format version {version}, expected {VERSION}")
    (json_len,) = pull("<I")
    if offset + json_len > len(raw):
        raise TruncatedFile(f"{path}: config JSON truncated")
    config_json = raw[offset : offset + json_len]
    offset += json_len
    if json_hash(config_json) != stored_hash:
        raise HashMismatch(f"{path}: stored hash does not match embedded config")
    try:
        loaded = json.loads(config_json)
    except ValueError:  # not UTF-8 or not JSON, under a hash that matches it
        raise CorruptFile(f"{path}: embedded config is not JSON") from None
    config = config_from_dict(loaded)

    (count,) = pull("<I")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = pull("<I")
        if offset + name_len > len(raw):
            raise TruncatedFile(f"{path}: tensor name truncated")
        try:
            name = raw[offset : offset + name_len].decode()
        except UnicodeDecodeError:
            raise CorruptFile(f"{path}: tensor name at offset {offset} is not UTF-8") from None
        offset += name_len
        (rank,) = pull("<I")
        dims = pull(f"<{rank}I") if rank else ()
        payload = math.prod(dims)  # Python ints: no wraparound for huge dims
        nbytes = payload * 4
        if offset + nbytes > len(raw):
            raise TruncatedFile(f"{path}: payload of {name!r} truncated")
        arr = np.frombuffer(raw, dtype="<f4", count=payload, offset=offset)
        try:
            tensors[name] = arr.reshape(dims).copy()
        except ValueError:  # dims NumPy cannot hold: rank > 64, or huge beside a zero
            raise CorruptFile(f"{path}: tensor {name!r} has unusable dims {dims}") from None
        offset += nbytes
    return Checkpoint(config=config, tensors=tensors, version=version)


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
