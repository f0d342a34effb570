"""Tracing skelcl from outside: patches, spans, self times, step clocks.

Nothing here edits the package.  `Tracer.install` replaces each traced
name where its caller looks it up (a module attribute such as
`skelcl.train.stgcn_forward`, or a class attribute such as
`MemoryQueue.push`) with a wrapper that records a span, and wraps the
`backward_fn` of the tape node each tensor op returns.  `uninstall`
puts every original back.  Spans carry name, layer, start, end, parent
and the step they ran in; a layer's self time is its spans' durations
minus the part their child spans cover.

Attribution rule: a tensor op's forward time belongs to the layer whose
span was open when the op ran (ops with no enclosing span belong to
`train`, the caller of the whole step), and its backward time belongs
to that same layer.  The autograd walk outside the per-node backward
functions belongs to `tensor`.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

import skelcl.augment
import skelcl.contrast
import skelcl.rng
import skelcl.tensor
import skelcl.train

LAYERS = ("skeleton", "rng", "augment", "encoder", "tensor", "contrast", "train", "checkpoint")

TENSOR_OPS = (
    "matmul", "conv1d_temporal", "mean_", "sub", "mul", "div", "sqrt", "add", "relu",
    "transpose", "reshape", "l2_normalize", "masked_softmax_nll_rows", "exp", "log",
    "concat", "where", "sum_",
)

# (owner, attribute, span name, layer) for the wrappers that open a span
LAYER_TARGETS = (
    (skelcl.train, "stgcn_forward", None, "encoder"),  # name depends on the mode
    (skelcl.train, "project", "encoder.project", "encoder"),
    (skelcl.train, "combine_losses", "contrast.loss_fwd", "contrast"),
    (skelcl.train, "momentum_update", "contrast.momentum_update", "contrast"),
    (skelcl.contrast.MemoryQueue, "push", "contrast.queue_push", "contrast"),
    (skelcl.contrast.MemoryQueue, "contents", "contrast.queue_contents", "contrast"),
    (skelcl.train, "_augment_batch", "augment.batch", "augment"),
    (skelcl.rng.RngStream, "generator", "rng.generator", "rng"),
    (skelcl.train, "sgd_step", "train.sgd_step", "train"),
    (skelcl.train, "derive_streams", "skeleton.derive_streams", "skeleton"),
    (skelcl.tensor, "backward", "tensor.backward", "tensor"),
)
COUNT_TARGETS = ((skelcl.augment.AugmentPipeline, "apply_array", "augment.calls"),)


def _targets():
    for owner, attr, _, _ in LAYER_TARGETS:
        yield owner, attr
    for owner, attr, _ in COUNT_TARGETS:
        yield owner, attr
    for op in TENSOR_OPS:
        yield skelcl.tensor, op


# Snapshot taken at import, before anything can patch: the reference for
# "no wrapper left behind".
ORIGINALS = {(owner, attr): owner.__dict__[attr] for owner, attr in _targets()}


def leftover_wrappers() -> list[str]:
    """Names whose current value is not the original function."""
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for (owner, attr), original in ORIGINALS.items()
        if owner.__dict__.get(attr) is not original
    ]


class Patcher:
    """Replaces attributes and restores them in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, previous = self._saved.pop()
            setattr(owner, attr, previous)

    @property
    def active(self) -> bool:
        return bool(self._saved)


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "step")

    def __init__(self, name, layer, start, parent, step):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.step = step


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


class Tracer:
    """Collects spans and counters while installed; inert otherwise."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[tuple[int, str], float] = defaultdict(float)
        self.step = -1
        self._stack: list[int] = []
        self._patcher = Patcher()

    # -- span bookkeeping --------------------------------------------------

    def open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, layer, self.clock(), parent, self.step))
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = self.clock()
        self._stack.pop()

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[(self.step, key)] += amount

    def owner_layer(self) -> str:
        for index in reversed(self._stack):
            span = self.spans[index]
            if not span.name.startswith("tensor."):
                return span.layer
        return "train"

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        index = self.open(name, layer)
        try:
            yield
        finally:
            self.close(index)

    # -- wrappers ------------------------------------------------------------

    def _layer_wrapper(self, original, name, layer):
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer.open(name, layer)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if name == "contrast.queue_contents":
                tracer.count("contrast.queue_contents_mb", result.nbytes / 1e6)
            return result

        return wrapper

    def _encoder_wrapper(self, original):
        tracer = self

        def stgcn_forward(x, graph, params, mode="eval", update_stats=None):
            if mode == "eval":
                name = "encoder.eval_fwd"
            elif update_stats is False:
                name = "encoder.key_fwd"
            else:
                name = "encoder.query_fwd"
            index = tracer.open(name, "encoder")
            try:
                return original(x, graph, params, mode, update_stats)
            finally:
                tracer.close(index)

        return stgcn_forward

    def _backward_wrapper(self, original):
        tracer = self

        def backward(loss):
            if loss.node is not None:
                tracer.count("tensor.tape_nodes", len(loss.node.tape.nodes))
            index = tracer.open("tensor.backward", "tensor")
            try:
                return original(loss)
            finally:
                tracer.close(index)

        return backward

    def _count_wrapper(self, original, key):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.count(key)
            return original(*args, **kwargs)

        return wrapper

    def _op_wrapper(self, original, op):
        tracer = self
        fwd_name = f"tensor.{op}.fwd"
        bwd_name = f"tensor.{op}.bwd"

        def wrapper(*args, **kwargs):
            layer = tracer.owner_layer()
            index = tracer.open(fwd_name, layer)
            try:
                out = original(*args, **kwargs)
            finally:
                tracer.close(index)
            node = getattr(out, "node", None)
            # composite ops return a node an inner op already wrapped
            if node is not None and not isinstance(node.backward_fn, _TimedBackward):
                node.backward_fn = _TimedBackward(tracer, node.backward_fn, bwd_name, layer)
            return out

        return wrapper

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        if self._patcher.active:
            raise RuntimeError("tracer already installed")
        p = self._patcher
        for owner, attr, name, layer in LAYER_TARGETS:
            original = owner.__dict__[attr]
            if attr == "stgcn_forward":
                p.set(owner, attr, self._encoder_wrapper(original))
            elif attr == "backward":
                p.set(owner, attr, self._backward_wrapper(original))
            else:
                p.set(owner, attr, self._layer_wrapper(original, name, layer))
        for owner, attr, key in COUNT_TARGETS:
            p.set(owner, attr, self._count_wrapper(owner.__dict__[attr], key))
        for op in TENSOR_OPS:
            p.set(skelcl.tensor, op, self._op_wrapper(skelcl.tensor.__dict__[op], op))

    def uninstall(self) -> None:
        self._patcher.restore()

    @property
    def installed(self) -> bool:
        return self._patcher.active

    # -- export ----------------------------------------------------------------

    def span_records(self):
        for s in self.spans:
            yield {
                "name": s.name, "layer": s.layer, "start": s.start, "end": s.end,
                "parent": s.parent, "step": s.step,
            }


class _TimedBackward:
    __slots__ = ("tracer", "fn", "name", "layer")

    def __init__(self, tracer, fn, name, layer):
        self.tracer, self.fn, self.name, self.layer = tracer, fn, name, layer

    def __call__(self, grad, needs):
        index = self.tracer.open(self.name, self.layer)
        try:
            return self.fn(grad, needs)
        finally:
            self.tracer.close(index)


def step_breakdown(tracer: Tracer, durations: dict[int, float]) -> dict[str, float]:
    """Per-step means over the steps in `durations` (step index -> seconds).

    Returns per-layer self times (`layer.<name>_ms`), named span totals,
    op tables and counters, all in ms (or counts) per step.  The layer
    self times plus `train.step_other_ms` add up to the mean step time.
    """
    steps = set(durations)
    n = len(steps)
    own = self_times(tracer.spans)
    totals: dict[str, float] = defaultdict(float)
    for span, self_s in zip(tracer.spans, own):
        if span.step not in steps:
            continue
        ms = 1e3 * (span.end - span.start)
        totals[f"layer.{span.layer}_ms"] += 1e3 * self_s
        if span.parent is None:
            totals["_top_level_ms"] += ms
        if span.name.startswith("tensor.") and span.name.endswith((".fwd", ".bwd")):
            op, direction = span.name[len("tensor."):].rsplit(".", 1)
            if direction == "fwd":
                totals[f"tensor.{op}.fwd_ms"] += 1e3 * self_s
                totals[f"tensor.{op}.calls"] += 1
            else:
                totals[f"tensor.{op}.bwd_ms"] += ms
                if span.layer == "encoder":
                    totals["encoder.bwd_ms"] += ms
                elif span.layer == "contrast":
                    totals["contrast.loss_bwd_ms"] += ms
        else:
            totals[f"{span.name}_ms"] += ms
            totals[f"{span.name}.calls"] += 1
    for (step, key), value in tracer.counters.items():
        if step in steps:
            totals[key] += value
    total_step_ms = 1e3 * sum(durations.values())
    totals["train.step_other_ms"] = total_step_ms - totals.pop("_top_level_ms", 0.0)
    totals["step_ms"] = total_step_ms
    return {key: value / n for key, value in totals.items()} if n else {}
