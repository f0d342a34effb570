"""Dense tensors with reverse-mode automatic differentiation.

Define-by-run: while a `Tape` is active, every operation that touches a
tracked tensor appends one node to the tape.  `backward(loss)` walks the
nodes once in reverse execution order (which is a valid topological
order by construction) and returns a gradient map for the
`requires_grad` leaves.  The tape is consumed by the walk; each forward
pass records a fresh one.

Every op is a module-level function of this module (`add`, `matmul`,
`sum_`, ...); `Tensor` has no operator overloads or op methods, so each
op has one spelling.  Values are float32 by default; pass float64 data
for oracle-grade precision.  Every op validates that its output is finite and raises
`NonFiniteValue` otherwise.

The encoder's hot ops are fused kernels, one tape node each:
`conv1d_temporal` applies its taps over a flat (L, T, C*V) view,
`batch_norm` normalizes with batch statistics and carries the
closed-form backward, and both take per-channel sums as one GEMV over a
(rows, C*V) view (`_channel_sums`) instead of a multi-axis reduction.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DetachedLoss,
    EmptyMask,
    NonDeterministic,
    NonFiniteValue,
    ShapeMismatch,
    ZeroNorm,
)

DEFAULT_DTYPE = np.float32
NORM_EPS = 1e-12

_state = threading.local()


def _active_tape() -> "Tape | None":
    return getattr(_state, "tape", None)


def _kink_trace() -> "list[np.ndarray] | None":
    return getattr(_state, "kink_trace", None)


class TapeNode:
    __slots__ = ("out", "inputs", "backward_fn", "tape")

    def __init__(self, out, inputs, backward_fn, tape):
        self.out = out
        self.inputs = inputs
        self.backward_fn = backward_fn
        self.tape = tape


class Tape:
    """Ordered record of executed operations; one per forward pass."""

    def __init__(self) -> None:
        self.nodes: list[TapeNode] = []
        self.consumed = False
        self._outer: Tape | None = None

    def __enter__(self) -> "Tape":
        self._outer = _active_tape()
        _state.tape = self
        return self

    def __exit__(self, *exc) -> None:
        _state.tape = self._outer
        self._outer = None


class no_tape:
    """Context that suppresses recording (gradient-free forward passes)."""

    def __enter__(self) -> None:
        self._outer = _active_tape()
        _state.tape = None

    def __exit__(self, *exc) -> None:
        _state.tape = self._outer


class Tensor:
    """Immutable-by-convention array wrapper.

    Ops never mutate operand data.  Mutating `.data` in place is
    reserved for state updates of gradient-free leaves (optimizer
    steps, momentum mixing, running statistics).
    """

    __slots__ = ("data", "requires_grad", "node")

    def __init__(self, data, dtype=None, requires_grad: bool = False):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.node: TapeNode | None = None

    # -- introspection ----------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        flags = []
        if self.requires_grad:
            flags.append("param")
        if self.node is not None:
            flags.append("traced")
        tag = " " + ",".join(flags) if flags else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{tag})"

def as_tensor(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def _tracked(t: Tensor) -> bool:
    return t.requires_grad or t.node is not None


def _apply(out_data: np.ndarray, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    if out_data.size:
        # min/max reductions catch NaN and both infinities without
        # materializing the bool array isfinite().all() would
        if not (math.isfinite(float(out_data.min())) and math.isfinite(float(out_data.max()))):
            raise NonFiniteValue("operation produced NaN or Inf")
    out = Tensor(out_data)
    tape = _active_tape()
    if tape is not None and not tape.consumed and any(_tracked(t) for t in inputs):
        node = TapeNode(out, inputs, backward_fn, tape)
        out.node = node
        tape.nodes.append(node)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to `shape`."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


# -- elementwise arithmetic --------------------------------------------------


def _operands(a, b) -> tuple[Tensor, Tensor]:
    """Wrap operands; bare python scalars adopt the tensor's dtype."""
    ta, tb = isinstance(a, Tensor), isinstance(b, Tensor)
    if ta and not tb and np.ndim(b) == 0:
        return a, Tensor(np.asarray(b, dtype=a.dtype))
    if tb and not ta and np.ndim(a) == 0:
        return Tensor(np.asarray(a, dtype=b.dtype)), b
    return as_tensor(a), as_tensor(b)


def add(a, b) -> Tensor:
    a, b = _operands(a, b)

    def bwd(g, needs):
        ga = _unbroadcast(g, a.shape) if needs[0] else None
        gb = _unbroadcast(g, b.shape) if needs[1] else None
        return ga, gb

    return _apply(a.data + b.data, (a, b), bwd)


def sub(a, b) -> Tensor:
    a, b = _operands(a, b)

    def bwd(g, needs):
        ga = _unbroadcast(g, a.shape) if needs[0] else None
        gb = _unbroadcast(-g, b.shape) if needs[1] else None
        return ga, gb

    return _apply(a.data - b.data, (a, b), bwd)


def mul(a, b) -> Tensor:
    a, b = _operands(a, b)

    def bwd(g, needs):
        ga = _unbroadcast(g * b.data, a.shape) if needs[0] else None
        gb = _unbroadcast(g * a.data, b.shape) if needs[1] else None
        return ga, gb

    return _apply(a.data * b.data, (a, b), bwd)


def div(a, b) -> Tensor:
    a, b = _operands(a, b)

    def bwd(g, needs):
        ga = _unbroadcast(g / b.data, a.shape) if needs[0] else None
        gb = (
            _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
            if needs[1]
            else None
        )
        return ga, gb

    with np.errstate(divide="ignore", invalid="ignore"):
        out_data = a.data / b.data
    return _apply(out_data, (a, b), bwd)


# -- nonlinear elementwise ----------------------------------------------------


def record_kink(values) -> None:
    """Log a discrete decision (mask, index set) for gradient checking.

    `grad_check` skips coordinates whose perturbation changes any
    recorded decision, since the function is only piecewise smooth
    across such boundaries.
    """
    trace = _kink_trace()
    if trace is not None:
        trace.append(np.asarray(values).copy())


def relu(a) -> Tensor:
    a = as_tensor(a)
    trace = _kink_trace()
    if trace is not None:
        trace.append(np.sign(a.data).astype(np.int8))
    positive = a.data > 0

    def bwd(g, needs):
        return (g * positive if needs[0] else None,)

    return _apply(np.maximum(a.data, 0.0), (a,), bwd)


def exp(a) -> Tensor:
    a = as_tensor(a)
    with np.errstate(over="ignore"):
        out_data = np.exp(a.data)

    def bwd(g, needs):
        return (g * out_data if needs[0] else None,)

    return _apply(out_data, (a,), bwd)


def log(a) -> Tensor:
    a = as_tensor(a)

    def bwd(g, needs):
        return (g / a.data if needs[0] else None,)

    with np.errstate(divide="ignore", invalid="ignore"):
        out_data = np.log(a.data)
    return _apply(out_data, (a,), bwd)


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    with np.errstate(invalid="ignore"):
        out_data = np.sqrt(a.data)

    def bwd(g, needs):
        return (g / (2.0 * out_data) if needs[0] else None,)

    return _apply(out_data, (a,), bwd)


# -- reductions ---------------------------------------------------------------


def _normalize_axes(axis, ndim) -> tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def sum_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    axes = _normalize_axes(axis, a.ndim)

    def bwd(g, needs):
        if not needs[0]:
            return (None,)
        if not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _apply(a.data.sum(axis=axes, keepdims=keepdims), (a,), bwd)


def mean_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    axes = _normalize_axes(axis, a.ndim)
    count = 1
    for ax in axes:
        count *= a.shape[ax]

    def bwd(g, needs):
        if not needs[0]:
            return (None,)
        if not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g / count, a.shape).copy(),)

    return _apply(a.data.mean(axis=axes, keepdims=keepdims), (a,), bwd)


def max_detached(a, axis=None, keepdims: bool = False) -> Tensor:
    """Max treated as a constant; used as the log-sum-exp shift."""
    a = as_tensor(a)
    return Tensor(np.max(a.data, axis=axis, keepdims=keepdims))


# -- shape manipulation --------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    shape = tuple(shape)

    def bwd(g, needs):
        return (g.reshape(a.shape) if needs[0] else None,)

    return _apply(a.data.reshape(shape), (a,), bwd)


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def bwd(g, needs):
        return (np.transpose(g, inverse) if needs[0] else None,)

    return _apply(np.transpose(a.data, axes), (a,), bwd)


def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    parts = tuple(as_tensor(t) for t in tensors)
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum(sizes)[:-1]

    def bwd(g, needs):
        pieces = np.split(g, offsets, axis=axis)
        return tuple(p if need else None for p, need in zip(pieces, needs))

    return _apply(np.concatenate([p.data for p in parts], axis=axis), parts, bwd)


def where(condition, a, b) -> Tensor:
    """Elementwise select; `condition` is a constant boolean mask."""
    cond = np.asarray(condition, dtype=bool)
    a, b = as_tensor(a), as_tensor(b)

    def bwd(g, needs):
        ga = _unbroadcast(np.where(cond, g, 0.0), a.shape) if needs[0] else None
        gb = _unbroadcast(np.where(cond, 0.0, g), b.shape) if needs[1] else None
        return ga, gb

    return _apply(np.where(cond, a.data, b.data), (a, b), bwd)


# -- linear algebra -------------------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeMismatch("matmul operands must have rank >= 2")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeMismatch(f"matmul inner dims differ: {a.shape} @ {b.shape}")

    def bwd(g, needs):
        ga = gb = None
        if needs[0]:
            ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)
        if needs[1]:
            gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
        return ga, gb

    return _apply(a.data @ b.data, (a, b), bwd)


def _tap_slices(offset: int, frames: int) -> tuple[slice, slice]:
    """(output frames, input frames) a temporal tap at `offset` connects."""
    return (
        slice(max(0, -offset), frames - max(0, offset)),
        slice(max(0, offset), frames - max(0, -offset)),
    )


def _channel_sums(a: np.ndarray, channels: int) -> np.ndarray:
    """Per-channel sums of an array whose last axis is C*V in (C, V) order.

    The leading axes flatten to rows, so one GEMV with a ones vector
    sums every column at once; only the final V-wide fold per channel
    is a NumPy reduction.
    """
    rows = a.reshape(-1, a.shape[-1])
    return (np.ones(rows.shape[0], dtype=a.dtype) @ rows).reshape(channels, -1).sum(axis=1)


def conv1d_temporal(x, kernel) -> Tensor:
    """Depthwise convolution along the frame axis.

    `x` has layout (..., T, C, V); `kernel` is (C, K) with odd K and is
    applied identically at every joint with zero padding, so T is
    preserved.  The taps run over a flattened (L, T, C*V) view with one
    contiguous C*V weight vector per tap: the centre tap initialises
    the output and each off-centre tap adds into the frames it reaches,
    so no padded copy is built.  The kernel gradient reduces each tap's
    product with a GEMV (`_channel_sums`).
    """
    x, kernel = as_tensor(x), as_tensor(kernel)
    if x.ndim < 3:
        raise ShapeMismatch("conv1d_temporal input must have layout (..., T, C, V)")
    channels, width = kernel.shape
    if width % 2 != 1:
        raise ShapeMismatch("temporal kernel size must be odd")
    if x.shape[-2] != channels:
        raise ShapeMismatch(
            f"kernel has {channels} channels but input has {x.shape[-2]}"
        )
    frames, joints = x.shape[-3], x.shape[-1]
    pad = (width - 1) // 2
    flat = (-1, frames, channels * joints)
    x2 = x.data.reshape(flat)
    taps = np.repeat(kernel.data.T, joints, axis=1)  # (K, C*V)
    offsets = [j - pad for j in range(width) if j != pad and abs(j - pad) < frames]

    out = x2 * taps[pad]
    for d in offsets:
        dst, src = _tap_slices(d, frames)
        out[:, dst] += x2[:, src] * taps[d + pad]

    def bwd(g, needs):
        gx = gk = None
        g2 = g.reshape(flat)
        if needs[0]:
            gx = g2 * taps[pad]
            for d in offsets:
                dst, src = _tap_slices(d, frames)
                gx[:, src] += g2[:, dst] * taps[d + pad]
            gx = gx.reshape(x.shape)
        if needs[1]:
            gk = np.zeros_like(kernel.data)
            gk[:, pad] = _channel_sums(g2 * x2, channels)
            for d in offsets:
                dst, src = _tap_slices(d, frames)
                gk[:, d + pad] = _channel_sums(g2[:, dst] * x2[:, src], channels)
        return gx, gk

    return _apply(out.reshape(x.shape), (x, kernel), bwd)


def batch_norm(y, gamma, beta, eps: float) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Train-mode batch normalization over a (..., C, V) activation.

    Each channel is normalized with the mean and biased variance of its
    entries over every other axis, then scaled by `gamma` and shifted by
    `beta` (both (C,)).  Returns (out, mean, var) with the statistics as
    constant (C,) arrays for the caller's running averages.  The work
    runs on a flattened (rows, C*V) view, each (C,) vector repeated V
    times to one value per column.  One tape node carries the
    closed-form backward (Ioffe & Szegedy, 2015):
    dy = gamma / sigma * (g - mean(g) - xhat * mean(g * xhat)).
    """
    y, gamma, beta = as_tensor(y), as_tensor(gamma), as_tensor(beta)
    if y.ndim < 2:
        raise ShapeMismatch("batch_norm input must have layout (..., C, V)")
    channels, joints = y.shape[-2], y.shape[-1]
    if gamma.shape != (channels,) or beta.shape != (channels,):
        raise ShapeMismatch(f"gamma and beta must be ({channels},) for input {y.shape}")
    count = y.size // channels

    y2 = y.data.reshape(-1, channels * joints)
    mean = _channel_sums(y2, channels) / count
    xhat = y2 - np.repeat(mean, joints)
    var = _channel_sums(xhat * xhat, channels) / count
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= np.repeat(inv_std, joints)
    out = xhat * np.repeat(gamma.data, joints)
    out += np.repeat(beta.data, joints)

    def bwd(g, needs):
        g2 = g.reshape(xhat.shape)
        g_beta = _channel_sums(g2, channels)
        g_gamma = _channel_sums(g2 * xhat, channels)
        gy = None
        if needs[0]:
            scale = gamma.data * inv_std
            gy = xhat * np.repeat(-scale * g_gamma / count, joints)
            gy += g2 * np.repeat(scale, joints)
            gy -= np.repeat(scale * g_beta / count, joints)
            gy = gy.reshape(y.shape)
        return (
            gy,
            g_gamma if needs[1] else None,
            g_beta if needs[2] else None,
        )

    return _apply(out.reshape(y.shape), (y, gamma, beta), bwd), mean, var


# -- norm / softmax kernels ------------------------------------------------------


def l2_normalize(v) -> Tensor:
    """Scale each row (or a single vector) to unit L2 norm."""
    v = as_tensor(v)
    if v.ndim not in (1, 2):
        raise ShapeMismatch("l2_normalize expects rank 1 or 2")
    squared = sum_(mul(v, v), axis=-1, keepdims=True)
    norms = np.sqrt(squared.data)
    if np.any(norms <= NORM_EPS):
        raise ZeroNorm(f"row norm <= {NORM_EPS}")
    return div(v, sqrt(squared))


def masked_softmax_nll_rows(logits, positive_mask) -> Tensor:
    """Per row of a (B, L) logit matrix, the negative log of the softmax
    mass on the row's masked-true entries; returns (B,).

    Computed as LSE(all) - LSE(masked) with a detached max shift, which
    keeps exp() in range even for temperature-scaled logits.
    """
    logits = as_tensor(logits)
    if logits.ndim != 2:
        raise ShapeMismatch("expected a (batch, logits) matrix")
    mask = np.asarray(positive_mask, dtype=bool)
    if mask.shape != logits.shape:
        raise ShapeMismatch("mask shape must match logits")
    if not mask.any(axis=1).all():
        raise EmptyMask("some row has no positive entry")
    shift = max_detached(logits, axis=1, keepdims=True)
    exps = exp(sub(logits, shift))
    log_denom = log(sum_(exps, axis=1))
    log_numer = log(sum_(mul(exps, mask.astype(logits.dtype)), axis=1))
    return sub(log_denom, log_numer)


# -- backward pass -----------------------------------------------------------------


def backward(loss: Tensor) -> dict[Tensor, Tensor]:
    """Reverse-mode gradients of a scalar loss for all parameter leaves.

    Consumes the tape the loss was recorded on.
    """
    if loss.node is None:
        raise DetachedLoss("loss carries no tape; wrap the forward pass in Tape()")
    if loss.size != 1:
        raise ShapeMismatch("backward expects a scalar loss")
    tape = loss.node.tape
    if tape.consumed:
        raise DetachedLoss("tape already consumed by a previous backward()")

    flowing: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    leaf_grads: dict[Tensor, np.ndarray] = {}

    for node in reversed(tape.nodes):
        out_grad = flowing.pop(id(node.out), None)
        if out_grad is None:
            continue
        needs = tuple(_tracked(t) for t in node.inputs)
        input_grads = node.backward_fn(out_grad, needs)
        for tin, grad in zip(node.inputs, input_grads):
            if grad is None:
                continue
            if tin.node is not None:
                key = id(tin)
                if key in flowing:
                    flowing[key] = flowing[key] + grad
                else:
                    flowing[key] = grad
            elif tin.requires_grad:
                if tin in leaf_grads:
                    leaf_grads[tin] = leaf_grads[tin] + grad
                else:
                    leaf_grads[tin] = grad

    tape.consumed = True
    tape.nodes.clear()
    return {leaf: Tensor(grad) for leaf, grad in leaf_grads.items()}


# -- gradient checking ----------------------------------------------------------------


@dataclass
class GradCheckResult:
    """Outcome of a central-difference check."""

    max_rel_error: float
    per_param: dict[str, float] = field(default_factory=dict)
    skipped: list[tuple[str, int]] = field(default_factory=list)
    coords_checked: int = 0


class _KinkMonitor:
    def __enter__(self) -> list[np.ndarray]:
        self._outer = _kink_trace()
        trace: list[np.ndarray] = []
        _state.kink_trace = trace
        return trace

    def __exit__(self, *exc) -> None:
        _state.kink_trace = self._outer


def _traces_equal(a: list[np.ndarray], b: list[np.ndarray]) -> bool:
    if len(a) != len(b):
        return False
    return all(x.shape == y.shape and np.array_equal(x, y) for x, y in zip(a, b))


def grad_check(
    f: Callable[[], Tensor],
    params: dict[str, Tensor],
    eps: float = 1e-4,
) -> GradCheckResult:
    """Compare reverse-mode gradients of `f()` against central differences.

    `f` must be a deterministic closure over `params` (leaves with
    `requires_grad=True`).  Coordinates whose perturbation flips a relu
    activation sign are skipped and reported rather than failed, since
    the derivative is not defined across the kink.  Relative error is
    |analytic - numeric| / max(1e-8, |analytic| + |numeric|).
    """
    with no_tape():
        first = f().item()
        second = f().item()
    if first != second:
        raise NonDeterministic(f"f() returned {first} then {second}")

    with Tape():
        loss = f()
        grads = backward(loss)
    analytic = {
        name: grads[p].data if p in grads else np.zeros_like(p.data)
        for name, p in params.items()
    }

    result = GradCheckResult(max_rel_error=0.0)
    for name, p in params.items():
        worst = 0.0
        for idx in range(p.data.size):
            saved = p.data.flat[idx]
            with no_tape():
                p.data.flat[idx] = saved + eps
                with _KinkMonitor() as trace_plus:
                    f_plus = f().item()
                p.data.flat[idx] = saved - eps
                with _KinkMonitor() as trace_minus:
                    f_minus = f().item()
                p.data.flat[idx] = saved
            if not _traces_equal(trace_plus, trace_minus):
                result.skipped.append((name, idx))
                continue
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a = float(analytic[name].reshape(-1)[idx])
            rel = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            worst = max(worst, rel)
            result.coords_checked += 1
        result.per_param[name] = worst
        result.max_rel_error = max(result.max_rel_error, worst)
    return result
