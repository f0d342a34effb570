"""Compact graph-convolutional skeleton encoder and projection head.

Each block does a spatial step H = A_hat @ X @ W over the symmetric-
normalized skeletal adjacency, a depthwise temporal convolution, batch
normalization, relu, and a residual connection when channel counts
match.  Global average pooling over frames and joints yields the hidden
vector h; a one-hidden-layer MLP projects h to a unit-norm embedding z.
The architecture (block count, channel widths, temporal kernel, hidden
width, embedding size) is read from the `RunConfig`, which checks those
keys when it is built.

The input is an (N, T, C, V) batch of C = 3 coordinates plus the
(V, V) normalized adjacency array.  The batch is data: gradients flow
into the parameters, never into the clips, so a tracked batch is
refused.  `stgcn_forward` transposes it once in NumPy, as a view, to
channels-last (N, T, V, C), and activations keep that layout inside
the encoder, so each block's channel mix and its weight gradient are
plain GEMMs over (N*T*V, C) rows.  In train mode (the taped query
pass, the untaped key pass, finetuning) each block is the single tape
node `tensor.stgcn_block` (joint aggregation `A_hat^T X`, channel mix
`@ W`, temporal convolution, batch norm, relu, residual); the last block
also pools, so it returns h directly and takes h's gradient, and the
last full activation is never built.  Eval mode is one call of
`tensor.stgcn_eval`, which folds each block's frozen batch norm into its
channel mix and takes the batch through every block chunk by chunk, so
it builds no full-batch activation at all.  Eval mode never records: an
eval-mode pass runs under `tensor.no_tape()`, and one that would record
raises `InvalidArgument`.  The projector is the one tape node
`tensor.projector`.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from . import tensor as T
from .config import RunConfig
from .errors import InvalidArgument, ShapeMismatch
from .rng import RngStream
from .skeleton import COORDS

BN_MOMENTUM = 0.9


class EncoderParams:
    """Named parameter tensors for one encoder instance.

    Trainable tensors have `requires_grad=True`; running statistics are
    gradient-free named tensors mutated in place by train-mode forwards
    and by momentum mixing.
    """

    def __init__(self, config: RunConfig, tensors: dict[str, T.Tensor]):
        self.config = config
        self.tensors = tensors

    def __getitem__(self, name: str) -> T.Tensor:
        return self.tensors[name]

    def trainable(self) -> dict[str, T.Tensor]:
        return {n: t for n, t in self.tensors.items() if t.requires_grad}

    def copy(self) -> "EncoderParams":
        cloned = {
            name: T.Tensor(t.data.copy(), requires_grad=t.requires_grad)
            for name, t in self.tensors.items()
        }
        return EncoderParams(self.config, cloned)

    def astype(self, dtype) -> "EncoderParams":
        cast = {
            name: T.Tensor(t.data.astype(dtype), requires_grad=t.requires_grad)
            for name, t in self.tensors.items()
        }
        return EncoderParams(self.config, cast)

    def digest(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.tensors):
            h.update(name.encode())
            h.update(self.tensors[name].data.tobytes())
        return h.hexdigest()


def init_params(config: RunConfig, rng: RngStream) -> EncoderParams:
    """Fan-balanced uniform init; identity normalization; zero biases."""
    gen = rng.generator()

    def glorot(fan_in: int, fan_out: int, shape) -> np.ndarray:
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        return gen.uniform(-bound, bound, size=shape).astype(np.float32)

    tensors: dict[str, T.Tensor] = {}
    c_in = COORDS
    k = config.enc_temporal_kernel
    for i, c_out in enumerate(config.enc_channels):
        tensors[f"block{i}.spatial_weight"] = T.parameter(glorot(c_in, c_out, (c_in, c_out)))
        tensors[f"block{i}.temporal_kernel"] = T.parameter(glorot(k, k, (c_out, k)))
        tensors[f"block{i}.norm_gamma"] = T.parameter(np.ones(c_out, dtype=np.float32))
        tensors[f"block{i}.norm_beta"] = T.parameter(np.zeros(c_out, dtype=np.float32))
        tensors[f"block{i}.norm_running_mean"] = T.Tensor(np.zeros(c_out, dtype=np.float32))
        tensors[f"block{i}.norm_running_var"] = T.Tensor(np.ones(c_out, dtype=np.float32))
        c_in = c_out

    c_last, hidden = config.enc_channels[-1], config.enc_hidden
    tensors["projector.w1"] = T.parameter(glorot(c_last, hidden, (c_last, hidden)))
    tensors["projector.b1"] = T.parameter(np.zeros(hidden, dtype=np.float32))
    tensors["projector.w2"] = T.parameter(
        glorot(hidden, config.embed_dim, (hidden, config.embed_dim))
    )
    tensors["projector.b2"] = T.parameter(np.zeros(config.embed_dim, dtype=np.float32))
    return EncoderParams(config, tensors)


def stgcn_forward(
    x,
    adjacency: np.ndarray,
    params: EncoderParams,
    mode: str = "eval",
    update_stats: bool | None = None,
) -> T.Tensor:
    """Hidden vectors h, (N, C_last), for an (N, T, C, V) batch.

    `x` is data, an array or an untracked tensor: the NumPy transpose to
    channels-last would drop a tracked batch's gradient, so one raises
    `InvalidArgument`.  `adjacency` is the (V, V) normalized adjacency of
    the skeleton graph.  `mode="train"` runs the blocks as `T.stgcn_block`
    tape nodes, which normalize with batch statistics, and updates the
    running averages unless `update_stats=False`.  `mode="eval"` is one
    call of the off-tape kernel `T.stgcn_eval`, which normalizes with the
    frozen running statistics: it updates nothing, so `update_stats=True`
    raises `InvalidArgument`, and a call that would record onto a tape
    raises `InvalidArgument` too.
    """
    if mode not in ("train", "eval"):
        raise InvalidArgument(f"mode must be 'train' or 'eval', got {mode!r}")
    if update_stats is None:
        update_stats = mode == "train"
    elif update_stats and mode == "eval":
        raise InvalidArgument("update_stats: eval mode uses the frozen running statistics "
                              "and updates none")
    if isinstance(x, T.Tensor) and (x.requires_grad or x.node is not None):
        raise InvalidArgument("the input batch is data: gradients never flow into it, "
                              "so it must not be tracked")
    x = T.as_tensor(x).data
    if x.ndim != 4:
        raise ShapeMismatch("input must be an (N, T, C, V) batch")
    if x.shape[2] != COORDS:
        raise ShapeMismatch(f"expected {COORDS} channels, got {x.shape[2]}")

    h = np.swapaxes(x, 2, 3)  # channels-last inside the encoder, a view
    blocks = [(params[f"block{i}.spatial_weight"], params[f"block{i}.temporal_kernel"],
               (params[f"block{i}.norm_gamma"], params[f"block{i}.norm_beta"]),
               (params[f"block{i}.norm_running_mean"].data,
                params[f"block{i}.norm_running_var"].data))
              for i in range(params.config.enc_blocks)]
    if mode == "eval":
        return T.stgcn_eval(h, adjacency, blocks)
    for i, (weight, kernel, norm, (run_mu, run_var)) in enumerate(blocks):
        h, (mu, var) = T.stgcn_block(h, adjacency, weight, kernel, norm,
                                     pool=i == len(blocks) - 1)
        if update_stats:
            run_mu[...] = BN_MOMENTUM * run_mu + (1 - BN_MOMENTUM) * mu
            run_var[...] = BN_MOMENTUM * run_var + (1 - BN_MOMENTUM) * var
    return h


def project(h, params: EncoderParams) -> T.Tensor:
    """Unit-norm embeddings z, (N, embed_dim), from (N, C_last) hidden rows
    h: the one tape node `tensor.projector`."""
    return T.projector(h, *(params[f"projector.{name}"] for name in ("w1", "b1", "w2", "b2")))


def encode(
    x,
    adjacency: np.ndarray,
    params: EncoderParams,
    mode: str = "eval",
    update_stats: bool | None = None,
) -> tuple[T.Tensor, T.Tensor]:
    """Convenience: forward then project; returns (h, z)."""
    h = stgcn_forward(x, adjacency, params, mode, update_stats)
    return h, project(h, params)
