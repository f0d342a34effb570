"""Self-describing binary checkpoints with bit-exact round trips.

Layout: magic "CKPT", u32 version, u64 config hash, u32 JSON length,
canonical config JSON, u32 tensor count, then per tensor (sorted by
name): u32 name length, name bytes, u32 rank, rank u32 dims, row-major
little-endian f32 payload.  Every piece of mutable training state
(both encoder branches per stream, queue rings and cursors, optimizer
buffers, epoch/step cursor) maps to one named tensor, which is what
makes resume replay the uninterrupted run exactly.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import RunConfig, config_from_dict
from .contrast import EncoderPair, MemoryQueue
from .encoder import EncoderParams, init_params
from .errors import (
    BadMagic,
    HashMismatch,
    StreamMissing,
    TruncatedFile,
    VersionMismatch,
)
from .rng import RngStream
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
    Path(path).write_bytes(b"".join(parts))


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
    config = config_from_dict(json.loads(raw[offset : offset + json_len].decode()))
    offset += json_len
    if config.hash() != stored_hash:
        raise HashMismatch(f"{path}: stored hash does not match embedded config")

    (count,) = pull("<I")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = pull("<I")
        if offset + name_len > len(raw):
            raise TruncatedFile(f"{path}: tensor name truncated")
        name = raw[offset : offset + name_len].decode()
        offset += name_len
        (rank,) = pull("<I")
        dims = pull(f"<{rank}I") if rank else ()
        payload = int(np.prod(dims, dtype=np.int64)) if dims else 1
        nbytes = payload * 4
        if offset + nbytes > len(raw):
            raise TruncatedFile(f"{path}: payload of {name!r} truncated")
        arr = np.frombuffer(raw, dtype="<f4", count=payload, offset=offset).reshape(dims)
        tensors[name] = arr.copy()
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


def state_from_checkpoint(ckpt: Checkpoint) -> TrainState:
    config = ckpt.config
    enc_cfg = config.encoder_config()
    pairs: dict[str, EncoderPair] = {}
    queues: dict[str, MemoryQueue] = {}
    optimizers: dict[str, OptimizerState] = {}
    for u in config.streams:
        if f"queue.{u}.slots" not in ckpt.tensors:
            raise StreamMissing(f"checkpoint lacks stream {u!r}")
        params = init_params(enc_cfg, RngStream(0).split("rebuild"))
        pair = EncoderPair(params, config.key_momentum)
        for branch, target in (("query", pair.query), ("key", pair.key)):
            for name, t in target.tensors.items():
                t.data[...] = ckpt.tensors[f"enc.{u}.{branch}.{name}"]
        pairs[u] = pair

        q = MemoryQueue(config.queue_size, config.embed_dim)
        q.slots[...] = ckpt.tensors[f"queue.{u}.slots"]
        q.head = int(ckpt.tensors[f"queue.{u}.head"][0])
        q.filled = int(ckpt.tensors[f"queue.{u}.filled"][0])
        queues[u] = q

        opt = OptimizerState(
            lr=config.lr, momentum=config.sgd_momentum, weight_decay=config.weight_decay
        )
        prefix = f"opt.{u}."
        for name, arr in ckpt.tensors.items():
            if name.startswith(prefix):
                opt.buffers[name[len(prefix) :]] = arr.copy()
        optimizers[u] = opt

    return TrainState(
        config=config,
        pairs=pairs,
        queues=queues,
        optimizers=optimizers,
        epoch=int(ckpt.tensors["meta.epoch"][0]),
        step=int(ckpt.tensors["meta.step"][0]),
    )


def query_params(ckpt: Checkpoint, stream: str) -> EncoderParams:
    """The trained query-branch encoder of one stream."""
    if f"queue.{stream}.slots" not in ckpt.tensors:
        raise StreamMissing(f"checkpoint lacks stream {stream!r}")
    params = init_params(ckpt.config.encoder_config(), RngStream(0).split("rebuild"))
    for name, t in params.tensors.items():
        t.data[...] = ckpt.tensors[f"enc.{stream}.query.{name}"]
    return params
