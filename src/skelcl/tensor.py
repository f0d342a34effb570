"""Dense tensors with reverse-mode automatic differentiation.

Define-by-run: while a `Tape` is active, every operation that touches a
tracked tensor appends one node to the tape.  `backward(loss)` walks the
nodes once in reverse execution order (a valid topological order by
construction) and returns a gradient map for the `requires_grad`
leaves.  The walk consumes the tape and then cuts every node's links to
its output, inputs and backward closure: a tensor and the node that made
it refer to each other, so without the cut a step's activations would
outlive it until the cyclic garbage collector ran.  The loss keeps its
emptied node, so a second `backward` of it raises `DetachedLoss`.

Every op is a module-level function (`add`, `matmul`, `sum_`, ...);
`Tensor` has no operator overloads or op methods, so each op has one
spelling.  Values are float32 by default; pass float64 data for
oracle-grade precision.  Every op raises `NonFiniteValue` on a
non-finite output, naming the op by its backward closure's qualified
name.

Each encoder block is one tape node, `stgcn_block`, on channels-last
(N, T, V, C) activations.  It walks the batch in chunks of about
`BLOCK_CHUNK_BYTES` of activation, so a chunk's intermediates stay in
cache; `pieces` states the split rule that it and the eval passes
share.  It records in train mode only; eval-mode passes run off the
tape.  The projection head (affine, relu, affine, L2-normalize) is one
tape node too, `projector`, which shares its row-norm check with
`l2_normalize` and the gradient of unit rows, `_unit_row_grad`, with
`contrast.pft_transform`'s node.  The row softmax negative
log-likelihood has one implementation, `_softmax_nll_rows`, shared by
`linear_head` (the probes' head kernel, which `linear_softmax_nll`
records as one node) and `contrast.queue_nll`.  So a pretraining step
records only such fused nodes.  The linear head is one packed (D+1, C)
array [W; b], and its gradient comes packed the same way, so a head
step updates one array.

No generic op has a package caller: `add`, `concat`, `conv1d_temporal`,
`div`, `exp`, `l2_normalize`, `log`, `masked_softmax_nll_rows`,
`matmul`, `mean_`, `mul`, `relu`, `reshape`, `sqrt`, `sub`, `sum_`,
`transpose` and `where` are called only by tests and by each other, and
every tape the package records, gradient checks included, holds the
fused nodes above.  They stay because the benchmark's tracer looks each
of them up by name at import.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DetachedLoss,
    EmptyMask,
    InvalidArgument,
    InvalidLabel,
    NonDeterministic,
    NonFiniteValue,
    ShapeMismatch,
    ZeroNorm,
)

DEFAULT_DTYPE = np.float32
NORM_EPS = 1e-12
BN_EPS = 1e-5  # added to the batch-norm variance in `stgcn_block`

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


@contextmanager
def _bound(name: str, value):
    """Bind thread-local `name` to `value` for the block, then restore the
    outer binding (None when there was none); yields `value`."""
    outer = getattr(_state, name, None)
    setattr(_state, name, value)
    try:
        yield value
    finally:
        setattr(_state, name, outer)


class Tape:
    """Ordered record of executed operations; one per forward pass."""

    def __init__(self) -> None:
        self.nodes: list[TapeNode] = []
        self.consumed = False
        self._binding = None

    def __enter__(self) -> "Tape":
        self._binding = _bound("tape", self)
        return self._binding.__enter__()

    def __exit__(self, *exc) -> None:
        self._binding.__exit__(*exc)


def no_tape():
    """Context that suppresses recording (gradient-free forward passes)."""
    return _bound("tape", None)


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


def _recording(inputs: tuple[Tensor, ...]) -> "Tape | None":
    """The tape an op on `inputs` records onto, or None when it records nothing."""
    tape = _active_tape()
    if tape is not None and not tape.consumed and any(_tracked(t) for t in inputs):
        return tape
    return None


def _apply(out_data: np.ndarray, inputs: tuple[Tensor, ...], backward_fn,
           check: bool = True) -> Tensor:
    if check and out_data.size:
        # min/max reductions catch NaN and both infinities without
        # materializing the bool array isfinite().all() would
        if not (math.isfinite(float(out_data.min())) and math.isfinite(float(out_data.max()))):
            # every op's backward is a closure defined inside the op's function
            op = backward_fn.__qualname__.split(".<locals>", 1)[0]
            raise NonFiniteValue(f"{op} produced NaN or Inf", op=op)
    out = Tensor(out_data)
    tape = _recording(inputs)
    if tape is not None:
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
    count = math.prod(a.shape[ax] for ax in axes)

    def bwd(g, needs):
        if not needs[0]:
            return (None,)
        if not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g / count, a.shape).copy(),)

    return _apply(a.data.mean(axis=axes, keepdims=keepdims), (a,), bwd)


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

    # a view of the input's values: a non-finite one is named by the op
    # that made it or, in a raw batch, by the first op that reads it
    return _apply(np.transpose(a.data, axes), (a,), bwd, check=False)


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
    """Per-channel sums of an array whose last axis is V*C in (V, C) order.

    The leading axes flatten to rows, so one GEMV with a ones vector
    sums every column at once; only the final V-fold per channel is a
    NumPy reduction.
    """
    rows = a.reshape(-1, a.shape[-1])
    return (np.ones(rows.shape[0], dtype=a.dtype) @ rows).reshape(-1, channels).sum(axis=0)


def _conv_plan(kernel: np.ndarray, frames: int, joints: int):
    """(taps, pad, offsets) of a (C, K) depthwise temporal kernel applied
    over a flat (L, T, V*C) view: per tap one contiguous (T, V*C) weight
    tile (a whole clip's worth, so each multiply broadcasts over L only
    and runs one long inner loop), the centre tap's index, and the
    off-centre offsets that reach a frame of a `frames`-long clip."""
    width = kernel.shape[1]
    pad = (width - 1) // 2
    taps = np.tile(kernel.T, frames * joints).reshape(width, frames, -1)
    offsets = [j - pad for j in range(width) if j != pad and abs(j - pad) < frames]
    return taps, pad, offsets


def _apply_taps(src, plan, out, adjoint: bool = False) -> np.ndarray:
    """The temporal convolution of a flat (L, T, V*C) `src` into `out`
    (the adjoint, i.e. the input gradient, with `adjoint`): the centre
    tap initialises `out` and each off-centre tap adds into the frames
    it reaches, so no padded copy is built."""
    taps, pad, offsets = plan
    np.multiply(src, taps[pad], out=out)
    for d in offsets:
        dst, reach = _tap_slices(d, src.shape[1])
        if adjoint:
            dst, reach = reach, dst
        out[:, dst] += src[:, reach] * taps[d + pad, dst]
    return out


def _add_tap_grads(g, src, plan, gk: np.ndarray) -> None:
    """Add the kernel gradient of `_apply_taps(src)` under output
    gradient `g` (both flat (L, T, V*C)) into the (C, K) `gk`, each
    tap's product reduced by one GEMV (`_channel_sums`)."""
    _, pad, offsets = plan
    channels = gk.shape[0]
    gk[:, pad] += _channel_sums(g * src, channels)
    for d in offsets:
        dst, reach = _tap_slices(d, g.shape[1])
        gk[:, d + pad] += _channel_sums(g[:, dst] * src[:, reach], channels)


def conv1d_temporal(x, kernel) -> Tensor:
    """Depthwise convolution along the frame axis.

    `x` has layout (..., T, C, V); `kernel` is (C, K) with odd K and is
    applied identically at every joint with zero padding, so T is
    preserved.  The taps run over a channels-last copy, flattened to
    (L, T, V*C) (`_apply_taps`, shared with `stgcn_block`).
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
    last = x.shape[:-2] + (joints, channels)

    def to_flat(a: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(np.swapaxes(a, -1, -2)).reshape(-1, frames, joints * channels)

    def from_flat(a: np.ndarray) -> np.ndarray:
        return np.swapaxes(a.reshape(last), -1, -2)

    x2 = to_flat(x.data)
    plan = _conv_plan(kernel.data, frames, joints)
    dtype = np.result_type(x.data, kernel.data)
    out = _apply_taps(x2, plan, np.empty(x2.shape, dtype))

    def bwd(g, needs):
        gx = gk = None
        g2 = to_flat(g)
        if needs[0]:
            gx = from_flat(_apply_taps(g2, plan, np.empty_like(g2), adjoint=True))
        if needs[1]:
            gk = np.zeros_like(kernel.data)
            _add_tap_grads(g2, x2, plan, gk)
        return gx, gk

    return _apply(from_flat(out), (x, kernel), bwd)


def _aggregate(src: np.ndarray, adjacency: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[..., v, :] = sum_u adjacency[u, v] * src[..., u, :] for
    channels-last (..., V, C) arrays: one matmul over (rows, V, C) views.
    Pass `adjacency.T` for the adjoint."""
    joints, channels = src.shape[-2:]
    np.matmul(adjacency.T, src.reshape(-1, joints, channels), out=out.reshape(-1, joints, channels))
    return out


def pieces(n: int, size: int) -> list[slice]:
    """Consecutive slices that cover range(n) once, in order: pieces of
    `size` items (at least 1), a lone last item joining the piece before
    it when pieces hold two or more.

    This is the package's one split rule, for `stgcn_block`'s chunks,
    `train.eval_features`' passes and the training batches of
    `train.pretrain` and `train._fit_head`.  A piece pays a fixed
    per-call cost whatever it holds, so at a `size` of 2 or more no
    piece holds one item unless `n` is 1, and a piece holds at most
    `size` + 1 items.  At a `size` of 1 or less every piece is one item,
    so a caller whose budget holds less than one item keeps one-item
    pieces; a caller that must not make them (`eval_features`) passes at
    least 2.  Zero items are no pieces.
    """
    size = max(1, size)
    starts = [lo for lo in range(0, n, size) if lo == 0 or size == 1 or n - lo > 1]
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [n])]


# bytes of one chunk's (n, T, V, C_out) activation in `stgcn_block`: a
# chunk's few such arrays then stay in a 2 MiB L2 cache.  The chunks
# follow the split rule of `pieces`: each holds at most one clip more
# than fits in this budget
BLOCK_CHUNK_BYTES = 256 * 1024


@np.errstate(over="ignore", invalid="ignore")  # the checks below report an overflow
def stgcn_block(h, adjacency, weight, kernel, norm, running=None, pool: bool = False):
    """One graph-convolutional encoder block as one tape node.

    For a channels-last (N, T, V, C_in) activation `h`, the (V, V)
    constant `adjacency`, a (C_in, C_out) `weight` and a (C_out, K)
    temporal `kernel`, returns (out, stats) with

        out = relu(norm(conv1d_temporal((A^T h) @ W))) [+ h],

    an (N, T, V, C_out) activation; A^T h aggregates each frame's joints
    (`_aggregate`) and the residual is added when C_in == C_out.  With
    `pool`, `out` is instead its (N, C_out) mean over frames and joints,
    reduced chunk by chunk, so the full activation is never built.
    `norm` is the (gamma, beta) pair of the batch norm, over every axis
    but the channel one, with `BN_EPS` added to the variance; every
    block normalizes.  With `running=None` (train mode) it normalizes
    with the batch's mean and biased variance, returned as `stats`
    (constant (C_out,) arrays for the caller's running averages); with a
    (mean, var) pair of arrays (eval mode) it uses those, and `stats` is
    None.  The node records in train mode only: a call with `running`
    that would record onto a tape raises `InvalidArgument`, since every
    eval-mode pass (the probes, the embeddings) runs off the tape.
    Batch statistics that are not finite, such as a variance that
    overflows, raise `NonFiniteValue` (op "stgcn_block"): an infinite
    variance would zero xhat and leave a finite relu(beta).  The forward
    runs with NumPy's overflow warnings off, so that error, or the
    finiteness check of the output, is the only report.

    The batch is walked in chunks of BLOCK_CHUNK_BYTES // (bytes per
    sample) samples, split by the rule of `pieces`, so each chunk's
    intermediates stay in cache; the chunk scratch is sized to the
    largest chunk, and a smaller batch is one chunk.  In
    this layout the channel mix and its weight gradient are plain 2-D
    GEMMs over (n*T*V, C) rows.  The full-batch arrays are `out`, the
    normalized pre-activation xhat and the relu mask (the last two only
    when the node records onto a tape; xhat also for a pooled
    batch-statistics pass, which reads it three times).  Between forward
    and backward a taped node holds only those: each pass allocates its
    own chunk scratch, and the backward rebuilds its tap tiles.  Batch
    statistics stay exact: per-channel sums accumulate over the chunks
    (in float64), one pass for the mean and one for the centered
    variance, before a last pass normalizes, applies relu and adds the
    residual.  The backward recomputes each chunk's spatial step from
    `h` and takes two passes: the sums of g and g * xhat the closed-form
    batch-norm gradient needs, then the input, weight and kernel
    gradients.  It returns every parameter's gradient, and the input's
    when the input is tracked.
    """
    h, weight, kernel = as_tensor(h), as_tensor(weight), as_tensor(kernel)
    if h.ndim != 4:
        raise ShapeMismatch("stgcn_block input must be an (N, T, V, C) batch")
    n, frames, joints, c_in = h.shape
    if weight.ndim != 2 or weight.shape[0] != c_in:
        raise ShapeMismatch(f"weight {weight.shape} does not take {c_in} input channels")
    c_out = weight.shape[1]
    if kernel.ndim != 2 or kernel.shape[0] != c_out or kernel.shape[1] % 2 != 1:
        raise ShapeMismatch(f"temporal kernel must be ({c_out}, odd K), got {kernel.shape}")
    dtype = np.result_type(h.data, weight.data, kernel.data)
    adjacency = np.asarray(adjacency, dtype=dtype)
    if adjacency.shape != (joints, joints):
        raise ShapeMismatch("adjacency size does not match joint count")
    gamma, beta = (as_tensor(t) for t in norm)
    if gamma.shape != (c_out,) or beta.shape != (c_out,):
        raise ShapeMismatch(f"gamma and beta must be ({c_out},)")
    inputs = (h, weight, kernel, gamma, beta)
    train = running is None
    recording = _recording(inputs) is not None
    if recording and not train:
        raise InvalidArgument("stgcn_block records in train mode only: run eval mode untaped")
    residual = c_in == c_out
    count = n * frames * joints
    width = joints * c_out

    def per_column(v) -> np.ndarray:
        """A (C_out,) vector as a (T, V * C_out) tile of a sample's layout."""
        return np.tile(np.asarray(v, dtype=dtype), frames * joints).reshape(frames, width)

    chunks = pieces(n, BLOCK_CHUNK_BYTES // (frames * width * np.dtype(dtype).itemsize))
    rows = max((c.stop - c.start for c in chunks), default=0)  # the scratch's clips
    plan = _conv_plan(kernel.data.astype(dtype, copy=False), frames, joints)
    w = weight.data.astype(dtype, copy=False)
    # any strided layout will do (the encoder passes a transposed view):
    # `x` is only read by the aggregation's matmul and the residual add
    x = h.data.astype(dtype, copy=False)

    def scratch() -> tuple[np.ndarray, np.ndarray]:
        """Chunk-sized buffers for the joint aggregate A^T h and its channel
        mix.  The forward and the backward each take their own, so no
        scratch is held from one to the other."""
        return np.empty((rows, frames, joints, c_in), dtype), np.empty((rows, frames, width), dtype)

    def spatial(c: slice, agg: np.ndarray, mixed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(A^T h[c], (A^T h[c]) @ W) for chunk `c`, in the given scratch."""
        m = c.stop - c.start
        _aggregate(x[c], adjacency, agg[:m])
        np.matmul(agg[:m].reshape(-1, c_in), w, out=mixed[:m].reshape(-1, c_out))
        return agg[:m], mixed[:m]

    agg, mixed = scratch()

    full = (n, frames, width)
    out = np.empty((n, c_out) if pool else full, dtype)
    # the pre-affine activation xhat; without a tape it is built in `out`
    # itself, or per chunk when pooled in eval mode
    if recording or (pool and train):
        xhat = np.empty(full, dtype)
    else:
        xhat = None if pool else out
    if pool:
        # a chunk of the block's output, before its reduction, and the
        # ones vector of that reduction's per-sample GEMV
        act = np.empty((rows, frames, width), dtype)
        ones = np.ones(frames * joints, dtype)
    # the relu's open entries, which the backward's gradient passes through
    positive = np.empty(full, bool) if recording else None
    stats = None
    if train:
        sums = np.zeros(c_out)
        for c in chunks:
            sums += _channel_sums(_apply_taps(spatial(c, agg, mixed)[1], plan, xhat[c]), c_out)
        mean = (sums / count).astype(dtype)
        mean_c = per_column(mean)
        centered = mixed  # free between the passes
        sums[:] = 0.0
        for c in chunks:
            d = np.subtract(xhat[c], mean_c, out=centered[: c.stop - c.start])
            d *= d
            sums += _channel_sums(d, c_out)
        var = (sums / count).astype(dtype)
        if not (np.isfinite(mean).all() and np.isfinite(var).all()):
            raise NonFiniteValue("stgcn_block batch statistics are not finite", op="stgcn_block")
        stats = (mean, var)
    else:
        mean, var = (np.asarray(v, dtype=dtype) for v in running)
        mean_c = per_column(mean)
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    inv_c = per_column(inv_std)
    gamma_c, beta_c = per_column(gamma.data), per_column(beta.data)

    trace = _kink_trace()
    for c in chunks:
        m = c.stop - c.start
        dst = act[:m] if pool else out[c]
        pre = xhat[c] if train else _apply_taps(spatial(c, agg, mixed)[1], plan, dst)
        pre -= mean_c
        pre *= inv_c
        pre = np.multiply(pre, gamma_c, out=dst)
        pre += beta_c
        if trace is not None:
            trace.append(np.sign(pre).astype(np.int8))
        if recording:
            np.greater(pre, 0.0, out=positive[c])
        np.maximum(pre, 0.0, out=dst)
        if residual:
            dst.reshape(x[c].shape)[...] += x[c]
        if pool:
            # a GEMV per sample: a sum over the middle axis of the (m, T*V,
            # C) view runs C-wide inner loops, about ten times slower
            np.matmul(ones, dst.reshape(m, -1, c_out), out=out[c])
    if pool:
        out /= frames * joints

    def bwd(g, needs):
        if pool:
            # the pooled gradient, spread over a sample's frames and joints
            g = (g / (frames * joints))[:, None, None, :]
        else:
            g = g.reshape(n, frames, joints, c_out)
        gx = np.empty(x.shape, dtype) if needs[0] else None
        gw, gk = np.zeros_like(w), np.zeros((c_out, kernel.shape[1]), dtype)
        g_beta, g_gamma = np.zeros(c_out), np.zeros(c_out)
        gpre = np.empty((rows, frames, width), dtype)
        dmixed = np.empty_like(gpre)
        agg, mixed = scratch()
        # the tap tiles are rebuilt too, so the node holds none between passes
        plan = _conv_plan(kernel.data.astype(dtype, copy=False), frames, joints)

        def relu_grad(c: slice) -> np.ndarray:
            """The gradient past the relu for chunk `c`, in `gpre`."""
            m = c.stop - c.start
            np.multiply(g[c], positive[c].reshape(m, frames, joints, c_out),
                        out=gpre[:m].reshape(m, frames, joints, c_out))
            return gpre[:m]

        for c in chunks:
            gr = relu_grad(c)
            g_beta += _channel_sums(gr, c_out)
            g_gamma += _channel_sums(gr * xhat[c], c_out)
        scale = gamma.data * inv_std
        scale_c = per_column(scale)
        shift_c = per_column(scale * g_beta / count)
        slope_c = per_column(scale * g_gamma / count)

        for c in chunks:
            m = c.stop - c.start
            # closed-form batch norm (Ioffe & Szegedy, 2015):
            # gamma / sigma * (g - mean(g) - xhat * mean(g * xhat))
            dpre = relu_grad(c)
            dpre *= scale_c
            dpre -= xhat[c] * slope_c
            dpre -= shift_c
            dy = _apply_taps(dpre, plan, dmixed[:m], adjoint=True).reshape(-1, c_out)
            agg_c, mixed_c = spatial(c, agg, mixed)
            _add_tap_grads(dpre, mixed_c, plan, gk)
            gw += agg_c.reshape(-1, c_in).T @ dy
            if gx is not None:
                dagg = np.matmul(dy, w.T, out=agg[:m].reshape(-1, c_in))
                _aggregate(dagg.reshape(m, frames, joints, c_in), adjacency.T, gx[c])
                if residual:
                    gx[c] += g[c]
        return gx, gw, gk, g_gamma.astype(dtype), g_beta.astype(dtype)

    return _apply(out if pool else out.reshape(n, frames, joints, c_out), inputs, bwd), stats


# -- norm / softmax kernels ------------------------------------------------------


def _row_norms(v: np.ndarray) -> np.ndarray:
    """The L2 norms of the rows of `v` (or of `v` itself, if a vector), as
    a (..., 1) column, computed with NumPy's overflow warnings off.

    The L2 normalization's one check: a norm that is not finite, such as
    a squared norm that overflows, raises `NonFiniteValue` and one at
    most `NORM_EPS` raises `ZeroNorm`, both with op "l2_normalize".
    """
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sqrt((v * v).sum(axis=-1, keepdims=True))
    if not np.isfinite(norms).all():
        raise NonFiniteValue("l2_normalize row norm is not finite", op="l2_normalize")
    if np.any(norms <= NORM_EPS):
        raise ZeroNorm(f"row norm <= {NORM_EPS}", op="l2_normalize")
    return norms


def _unit_row_grad(g: np.ndarray, z: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """The gradient into v of the unit rows z = v / `norms` (`_row_norms`)
    under output gradient `g`: (g - z <g, z>) / |v|, row by row."""
    return (g - z * (g * z).sum(axis=-1, keepdims=True)) / norms


def l2_normalize(v) -> Tensor:
    """Scale each row (or a single vector) to unit L2 norm.

    The row norms are checked (`_row_norms`) before any node is recorded.
    """
    v = as_tensor(v)
    if v.ndim not in (1, 2):
        raise ShapeMismatch("l2_normalize expects rank 1 or 2")
    _row_norms(v.data)
    squared = sum_(mul(v, v), axis=-1, keepdims=True)
    return div(v, sqrt(squared))


@np.errstate(over="ignore", invalid="ignore")  # the checks below report an overflow
def projector(h, w1, b1, w2, b2) -> Tensor:
    """The projection head as one tape node: the unit-norm rows of
    relu(h @ w1 + b1) @ w2 + b2 for (N, C) hidden rows `h`, a (C, H)
    `w1`, (H,) `b1`, (H, D) `w2` and (D,) `b2`.

    The forward makes the NumPy calls of the matmul, add, relu, matmul,
    add and `l2_normalize` chain in that order, so its rows are bit for
    bit that chain's.  Before any node is recorded, a value of either
    affine map that is not finite raises `NonFiniteValue` (op
    "projector"), and the row norms then get `l2_normalize`'s check
    (`_row_norms`).  The backward is closed form: the rows z = v / |v|
    pass (g - z <g, z>) / |v| to v, then the two affine maps and the relu
    mask.  It returns every parameter's gradient, and h's when h is
    tracked.
    """
    inputs = h, w1, b1, w2, b2 = tuple(as_tensor(t) for t in (h, w1, b1, w2, b2))
    if h.ndim != 2 or [t.shape for t in inputs[1:]] != [
            (h.shape[1], b1.size), (b1.size,), (b1.size, b2.size), (b2.size,)]:
        raise ShapeMismatch(f"projector cannot chain {[t.shape for t in inputs]}")
    pre = h.data @ w1.data + b1.data
    positive = pre > 0
    record_kink(positive)
    hidden = np.maximum(pre, 0.0)
    v = hidden @ w2.data + b2.data
    if not (np.isfinite(pre).all() and np.isfinite(v).all()):
        raise NonFiniteValue("projector produced NaN or Inf", op="projector")
    norms = _row_norms(v)
    z = v / norms

    def bwd(g, needs):
        dv = _unit_row_grad(g, z, norms)
        dpre = (dv @ w2.data.T) * positive
        gh = dpre @ w1.data.T if needs[0] else None
        return gh, h.data.T @ dpre, dpre.sum(axis=0), hidden.T @ dv, dv.sum(axis=0)

    return _apply(z, inputs, bwd, check=False)


def _softmax_nll_rows(exps: np.ndarray, lead: int = 0, picks=None):
    """The package's one row softmax negative log-likelihood.

    Per row of a (..., L) logit buffer, LSE(all) - LSE(positives), where
    a row's positives are its first `lead` entries plus the entries
    `picks` names.  `picks` is None; or (rows, cols) with `rows` a tuple
    of (P,) index arrays over the leading axes (as `np.nonzero` gives
    them) and `cols` a (P, k) array of the columns picked in each listed
    row, where a (row, column) pair appears at most once, every row has
    at least one positive, and a row may be listed more than once; or,
    for a (B, L) buffer with `lead` 0, a (B,) integer array naming each
    row's one positive.  Only the picked entries are gathered
    (`exps[index]`), never a full-size mask.
    The buffer is overwritten: shifted by its row max, which keeps
    temperature-scaled logits in range, and exponentiated in place.  The
    positives' LSE is taken from their shifted logits, gathered before
    the exp and shifted again by their own max (scattered with
    `np.maximum.at` and `np.add.at`, since rows may repeat), so a
    positive far below the row max neither underflows to a zero
    numerator nor overflows the gradient.  One positive is its own LSE,
    so that form runs no scatter; it is bit for bit the (rows, cols) form
    with picks ((arange(B),), picks[:, None]).
    Returns (nll, grad): nll has shape (...), and grad(g) overwrites the
    buffer again with the closed-form gradient
    g * (softmax over all entries - softmax over the positives), which
    for one positive is g * softmax with g subtracted at the positive
    (there g may also be one scalar for every row).  Call grad at most
    once.
    """
    exps -= exps.max(axis=-1, keepdims=True)
    if isinstance(picks, np.ndarray):  # one positive per row
        index = (np.arange(len(picks)), picks)
        log_numer = exps[index][:, None]
    else:
        lead_logits = exps[..., :lead].copy()
        top = lead_logits.max(axis=-1, keepdims=True, initial=-np.inf)
        if picks is not None:
            rows, cols = picks
            index = (*(r[:, None] for r in rows), cols)
            picked = exps[index]
            with np.errstate(invalid="ignore"):  # a NaN row stays NaN, for the caller's check
                np.maximum.at(top[..., 0], rows, picked.max(axis=-1))
        numer = np.exp(lead_logits - top).sum(axis=-1, keepdims=True)
        if picks is not None:
            np.add.at(numer[..., 0], rows, np.exp(picked - top[rows]).sum(axis=-1))
        log_numer = top + np.log(numer)
    np.exp(exps, out=exps)
    denom = exps.sum(axis=-1, keepdims=True)
    nll = (np.log(denom) - log_numer)[..., 0]

    def grad(g: np.ndarray) -> np.ndarray:
        g = g[..., None]
        np.multiply(exps, g / denom, out=exps)
        # a positive entry also loses g times its softmax over the positives
        if isinstance(picks, np.ndarray):
            exps[index] -= g[..., 0]
            return exps
        exps[..., :lead] -= g * np.exp(lead_logits - log_numer)
        if picks is not None:
            exps[index] -= g[rows] * np.exp(picked - log_numer[rows])
        return exps

    return nll, grad


def masked_softmax_nll_rows(logits, positive_mask) -> Tensor:
    """Per row of a (..., B, L) logit stack, the negative log of the
    softmax mass on the row's masked-true entries; returns (..., B).

    One tape node over `_softmax_nll_rows`, which carries the
    closed-form backward g * (softmax(all) - softmax(masked)).
    """
    logits = as_tensor(logits)
    if logits.ndim < 2:
        raise ShapeMismatch("expected a (..., batch, logits) stack")
    mask = np.asarray(positive_mask, dtype=bool)
    if mask.shape != logits.shape:
        raise ShapeMismatch("mask shape must match logits")
    if not mask.any(axis=-1).all():
        raise EmptyMask("some row has no positive entry")
    *rows, cols = np.nonzero(mask)  # one pick per positive entry
    out, grad = _softmax_nll_rows(logits.data.copy(), picks=(tuple(rows), cols[:, None]))

    def bwd(g, needs):
        return (grad(g) if needs[0] else None,)

    return _apply(out, (logits,), bwd)


def linear_head(rows: np.ndarray, theta: np.ndarray, labels: np.ndarray):
    """The linear head's kernel, on arrays: the mean softmax cross-entropy
    of the logits `rows @ theta[:D] + theta[D]` against `labels`, and its
    gradient.

    The head is one packed (D+1, C) array theta = [W; b]: its first D rows
    are the weight, its last the bias, so a caller steps one array.
    `rows` (B, D), `theta` (D+1, C) and B `labels` in [0, C) are the
    caller's to check.  A row's loss is log Σexp of its shifted logits
    minus its label's (`_softmax_nll_rows`, one pick per row).
    Returns (loss, grads); a non-finite loss raises `NonFiniteValue`
    (op "linear_softmax_nll").  `grads(g, needs)` returns the (rows,
    theta) gradients, None where `needs` is false, from
    d = g * (softmax - one-hot) / B: the packed theta gradient holds
    rows^T d over d summed over rows, written in place into one array,
    and the rows gradient is d W^T.  Call it at most once.  The NumPy
    calls and their order are those of the matmul, add, row softmax-NLL
    and mean chain on a separate weight and bias, so the results are
    bit-identical to that chain's.
    """
    batch, dim = rows.shape
    weight = theta[:dim]
    nll, grad = _softmax_nll_rows(rows @ weight + theta[dim], picks=labels)
    loss = np.add.reduce(nll, axis=0) / batch  # np.mean's sum and division, minus its overhead
    if not math.isfinite(loss):
        raise NonFiniteValue("linear_softmax_nll produced NaN or Inf", op="linear_softmax_nll")

    def grads(g, needs):
        d = grad(g / batch)
        g_theta = None
        if needs[1]:
            g_theta = np.empty((dim + 1, d.shape[1]), dtype=d.dtype)
            d.sum(axis=0, out=g_theta[dim])
            np.matmul(rows.T, d, out=g_theta[:dim])
        g_rows = d @ weight.T if needs[0] else None
        return g_rows, g_theta

    return loss, grads


def linear_softmax_nll(rows, theta, labels) -> Tensor:
    """The mean softmax cross-entropy of the logits
    `rows @ theta[:D] + theta[D]` against integer class `labels`, as one
    tape node; returns a scalar.

    `rows` is (B, D), `theta` the packed (D+1, C) head [W; b] and
    `labels` B integers in [0, C), checked here; the loss and its
    closed-form backward, with theta's gradient packed the same way, are
    the kernel `linear_head`'s.
    """
    rows, theta = as_tensor(rows), as_tensor(theta)
    if rows.ndim != 2 or theta.ndim != 2 or theta.shape[0] != rows.shape[1] + 1:
        raise ShapeMismatch(f"linear head needs (B, D) rows and a (D+1, C) head, got "
                            f"{rows.shape} and {theta.shape}")
    batch, classes = rows.shape[0], theta.shape[1]
    if batch == 0:
        raise ShapeMismatch("linear head needs at least one row")
    labels = np.asarray(labels)
    if labels.shape != (batch,):
        raise ShapeMismatch(f"{labels.shape} labels for {batch} rows")
    if not np.issubdtype(labels.dtype, np.integer):
        raise InvalidLabel(f"labels must be integers, got dtype {labels.dtype}")
    if labels.min() < 0 or labels.max() >= classes:
        raise InvalidLabel(f"labels must lie in [0, {classes}), got [{labels.min()}, {labels.max()}]")
    loss, grads = linear_head(rows.data, theta.data, labels)
    return _apply(loss, (rows, theta), grads, check=False)


# -- backward pass -----------------------------------------------------------------


def backward(loss: Tensor) -> dict[Tensor, Tensor]:
    """Reverse-mode gradients of a scalar loss for all parameter leaves.

    Consumes the tape the loss was recorded on and releases its graph
    (see the module docstring).
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

    # cut the Tensor.node <-> TapeNode.out cycles so refcounting frees the step now
    for node in tape.nodes:
        node.out = node.inputs = node.backward_fn = None
    tape.consumed = True
    tape.nodes.clear()
    return {leaf: Tensor(grad) for leaf, grad in leaf_grads.items()}


# -- gradient checking ----------------------------------------------------------------


@dataclass
class GradCheckResult:
    """Outcome of a finite-difference check (`grad_check`)."""

    max_rel_error: float
    per_param: dict[str, float] = field(default_factory=dict)
    skipped: list[tuple[str, int]] = field(default_factory=list)
    coords_checked: int = 0


def _traces_equal(a: list[np.ndarray], b: list[np.ndarray]) -> bool:
    if len(a) != len(b):
        return False
    return all(x.shape == y.shape and np.array_equal(x, y) for x, y in zip(a, b))


def grad_check(
    f: Callable[[], Tensor],
    params: dict[str, Tensor],
    eps: float = 1e-4,
    reference: "tuple[Callable[[], Tensor], dict[str, Tensor]] | None" = None,
) -> GradCheckResult:
    """Compare reverse-mode gradients of `f()` against finite differences.

    `f` must be a deterministic closure over `params` (leaves with
    `requires_grad=True`).  The numeric derivative is the Richardson
    extrapolation (4 D(eps) - D(2 eps)) / 3 of the central differences
    D(h) = (f(x + h) - f(x - h)) / 2h, whose truncation error scales as
    eps**4, not eps**2, so the check's margin is set by the gradients
    and rounding rather than by the step.  The second step is 2 eps, not
    eps / 2, because a halved step doubles the rounding error of its
    difference, which at float32 outweighs the truncation it removes.
    Coordinates where any of the four perturbations changes a recorded
    decision (a relu activation sign, a mask: `record_kink`) are skipped
    and reported rather than failed, since the derivative is not defined
    across the kink.  Relative error is |analytic - numeric| /
    max(1e-8, |analytic| + |numeric|).  `reference`, an (f, params) twin
    of the same function with the same parameter names (say, in float64
    at the same values), takes the differences in place of `f` itself.
    """
    num_f, num_params = (f, params) if reference is None else reference
    with no_tape():
        first = num_f().item()
        second = num_f().item()
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
    for name, p in num_params.items():
        worst = 0.0
        for idx in range(p.data.size):
            saved = p.data.flat[idx]
            values, traces = [], []
            with no_tape():
                for step in (eps, -eps, 2 * eps, -2 * eps):
                    p.data.flat[idx] = saved + step
                    with _bound("kink_trace", []) as trace:
                        values.append(num_f().item())
                    traces.append(trace)
                p.data.flat[idx] = saved
            if not all(_traces_equal(traces[0], trace) for trace in traces[1:]):
                result.skipped.append((name, idx))
                continue
            narrow = (values[0] - values[1]) / (2.0 * eps)
            wide = (values[2] - values[3]) / (4.0 * eps)
            numeric = (4.0 * narrow - wide) / 3.0
            a = float(analytic[name].reshape(-1)[idx])
            rel = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            worst = max(worst, rel)
            result.coords_checked += 1
        result.per_param[name] = worst
        result.max_rel_error = max(result.max_rel_error, worst)
    return result
