"""Compact graph-convolutional skeleton encoder and projection head.

Each block does a spatial step H = A_hat @ X @ W over the symmetric-
normalized skeletal adjacency, a depthwise temporal convolution, batch
normalization, relu, and a residual connection when channel counts
match.  Global average pooling over frames and joints yields the hidden
vector h; a one-hidden-layer MLP projects h to a unit-norm embedding z.

Activations keep the (N, T, C, V) layout throughout.  The spatial step
is `W^T @ (X @ A_hat)`, two matmuls with no activation transpose, and
train-mode batch normalization is the single fused `tensor.batch_norm`
op; eval mode normalizes with the frozen running statistics through
elementwise ops.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigValueError, ShapeMismatch
from .rng import RngStream
from .skeleton import SkeletonGraph

BN_EPS = 1e-5
BN_MOMENTUM = 0.9


@dataclass(frozen=True)
class EncoderConfig:
    blocks: int = 3
    channels: tuple[int, ...] = (16, 32, 32)
    temporal_kernel: int = 3
    hidden: int = 64
    embed_dim: int = 32
    normalization: str = "batch"  # "batch" | "off"
    in_channels: int = 3

    def __post_init__(self):
        if self.embed_dim < 2:
            raise ConfigValueError("embed_dim", "embedding dimension must be >= 2")
        if self.temporal_kernel < 1 or self.temporal_kernel % 2 != 1:
            raise ConfigValueError("temporal_kernel", "temporal kernel must be positive and odd")
        if self.blocks < 1:
            raise ConfigValueError("blocks", "need at least one block")
        if len(self.channels) != self.blocks:
            raise ConfigValueError("channels", "need one channel width per block")
        if any(a > b for a, b in zip(self.channels, self.channels[1:])):
            raise ConfigValueError("channels", "channel widths must be nondecreasing")
        if self.channels[0] < 1:
            raise ConfigValueError("channels", "channel widths must be positive")
        if self.hidden < 1:
            raise ConfigValueError("hidden", "hidden width must be positive")
        if self.normalization not in ("batch", "off"):
            raise ConfigValueError("normalization", "normalization must be 'batch' or 'off'")

    @property
    def hidden_dim(self) -> int:
        return self.channels[-1]


class EncoderParams:
    """Named parameter tensors for one encoder instance.

    Trainable tensors have `requires_grad=True`; running statistics are
    gradient-free named tensors mutated in place by train-mode forwards
    and by momentum mixing.
    """

    def __init__(self, config: EncoderConfig, tensors: dict[str, T.Tensor]):
        self.config = config
        self.tensors = tensors

    def __getitem__(self, name: str) -> T.Tensor:
        return self.tensors[name]

    def names(self) -> list[str]:
        return sorted(self.tensors)

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
        for name in self.names():
            h.update(name.encode())
            h.update(self.tensors[name].data.tobytes())
        return h.hexdigest()


def init_params(config: EncoderConfig, rng: RngStream) -> EncoderParams:
    """Fan-balanced uniform init; identity normalization; zero biases."""
    gen = rng.generator()

    def glorot(fan_in: int, fan_out: int, shape) -> np.ndarray:
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        return gen.uniform(-bound, bound, size=shape).astype(np.float32)

    tensors: dict[str, T.Tensor] = {}
    c_in = config.in_channels
    for i, c_out in enumerate(config.channels):
        tensors[f"block{i}.spatial_weight"] = T.parameter(glorot(c_in, c_out, (c_in, c_out)))
        k = config.temporal_kernel
        tensors[f"block{i}.temporal_kernel"] = T.parameter(glorot(k, k, (c_out, k)))
        if config.normalization == "batch":
            tensors[f"block{i}.norm_gamma"] = T.parameter(np.ones(c_out, dtype=np.float32))
            tensors[f"block{i}.norm_beta"] = T.parameter(np.zeros(c_out, dtype=np.float32))
            tensors[f"block{i}.norm_running_mean"] = T.Tensor(np.zeros(c_out, dtype=np.float32))
            tensors[f"block{i}.norm_running_var"] = T.Tensor(np.ones(c_out, dtype=np.float32))
        c_in = c_out

    tensors["projector.w1"] = T.parameter(
        glorot(config.hidden_dim, config.hidden, (config.hidden_dim, config.hidden))
    )
    tensors["projector.b1"] = T.parameter(np.zeros(config.hidden, dtype=np.float32))
    tensors["projector.w2"] = T.parameter(
        glorot(config.hidden, config.embed_dim, (config.hidden, config.embed_dim))
    )
    tensors["projector.b2"] = T.parameter(np.zeros(config.embed_dim, dtype=np.float32))
    return EncoderParams(config, tensors)


def _batch_norm(
    y: T.Tensor,
    params: EncoderParams,
    block: int,
    mode: str,
    update_stats: bool,
) -> T.Tensor:
    gamma = params[f"block{block}.norm_gamma"]
    beta = params[f"block{block}.norm_beta"]
    if mode == "train":
        out, mu, var = T.batch_norm(y, gamma, beta, BN_EPS)
        if update_stats:
            run_mu = params[f"block{block}.norm_running_mean"]
            run_var = params[f"block{block}.norm_running_var"]
            run_mu.data[...] = BN_MOMENTUM * run_mu.data + (1 - BN_MOMENTUM) * mu
            run_var.data[...] = BN_MOMENTUM * run_var.data + (1 - BN_MOMENTUM) * var
        return out
    shape = (1, 1, gamma.shape[0], 1)
    mu = params[f"block{block}.norm_running_mean"].data.reshape(shape)
    var = params[f"block{block}.norm_running_var"].data.reshape(shape)
    denom = np.sqrt(var + BN_EPS)
    xhat = T.div(T.sub(y, mu), denom)
    return T.add(T.mul(xhat, T.reshape(gamma, shape)), T.reshape(beta, shape))


def stgcn_forward(
    x,
    graph: SkeletonGraph | np.ndarray,
    params: EncoderParams,
    mode: str = "eval",
    update_stats: bool | None = None,
) -> T.Tensor:
    """Hidden vector h for a (T, C, V) sequence or an (N, T, C, V) batch.

    `mode="train"` normalizes with batch statistics (and updates the
    running averages unless `update_stats=False`); `mode="eval"` uses
    the frozen running statistics.
    """
    if mode not in ("train", "eval"):
        raise ValueError("mode must be 'train' or 'eval'")
    if update_stats is None:
        update_stats = mode == "train"
    x = T.as_tensor(x)
    single = x.ndim == 3
    if single:
        x = T.reshape(x, (1,) + x.shape)
    if x.ndim != 4:
        raise ShapeMismatch("input must be (T, C, V) or (N, T, C, V)")

    cfg = params.config
    if x.shape[2] != cfg.in_channels:
        raise ShapeMismatch(f"expected {cfg.in_channels} channels, got {x.shape[2]}")
    adjacency = graph.normalized_adjacency(x.dtype) if isinstance(graph, SkeletonGraph) else graph
    adjacency = np.asarray(adjacency, dtype=x.dtype)
    if adjacency.shape != (x.shape[3], x.shape[3]):
        raise ShapeMismatch("adjacency size does not match joint count")

    h = x
    for i in range(cfg.blocks):
        w = params[f"block{i}.spatial_weight"]
        kern = params[f"block{i}.temporal_kernel"]
        # aggregate over joints, then mix channels: W^T (C_out, C_in) is
        # broadcast over (N, T), so the activation is never transposed
        y = T.matmul(T.transpose(w, (1, 0)), T.matmul(h, adjacency))
        y = T.conv1d_temporal(y, kern)
        if cfg.normalization == "batch":
            y = _batch_norm(y, params, i, mode, update_stats)
        y = T.relu(y)
        if h.shape[2] == y.shape[2]:
            y = T.add(y, h)
        h = y

    pooled = T.mean_(h, axis=(1, 3))  # (N, C_last)
    return T.reshape(pooled, (pooled.shape[1],)) if single else pooled


def project(h, params: EncoderParams) -> T.Tensor:
    """Unit-norm embedding z from hidden vector(s) h."""
    h = T.as_tensor(h)
    single = h.ndim == 1
    if single:
        h = T.reshape(h, (1, h.shape[0]))
    z = T.matmul(T.relu(T.add(T.matmul(h, params["projector.w1"]), params["projector.b1"])),
                 params["projector.w2"])
    z = T.l2_normalize(T.add(z, params["projector.b2"]))
    return T.reshape(z, (z.shape[1],)) if single else z


def encode(
    x,
    graph,
    params: EncoderParams,
    mode: str = "eval",
    update_stats: bool | None = None,
) -> tuple[T.Tensor, T.Tensor]:
    """Convenience: forward then project; returns (h, z)."""
    h = stgcn_forward(x, graph, params, mode, update_stats)
    return h, project(h, params)
