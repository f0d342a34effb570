"""The three workloads: inputs, pinned configs, the measured loop, checks.

The benchmark drives skelcl through its public functions in the order
`skelcl pretrain` and the probe subcommands call them.  Every RunConfig
field is pinned here, so a change to the package defaults does not
change what is measured.

Untraced runs patch nothing but one clock.  Pretraining steps are timed
through the `TrainState` the benchmark passes to `pretrain` (the loop
bumps `state.step` once per step); finetune steps are timed from one
`tensor.backward` call to the next, a clock that is removed when the
call returns.  End-to-end timings are scaled by a reference kernel run
next to them (see `stats.Reference`).
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import json
import math
import resource
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import skelcl.tensor
from skelcl.checkpoint import (
    load_checkpoint,
    query_params,
    save_checkpoint,
    state_to_checkpoint,
)
from skelcl.config import RunConfig
from skelcl.encoder import encode
from skelcl.rng import RngStream
from skelcl.skeleton import (
    derive_streams,
    generate_synthetic_dataset,
    load_dataset,
    stratified_split,
    write_dataset,
)
from skelcl.train import TrainState, finetune, init_train_state, knn_probe, linear_probe, pretrain

from stats import Reference, finite, median, steps_per_epoch, tail_percentile
from tracing import LAYERS, TENSOR_OPS, Patcher, Tracer, leftover_wrappers, step_breakdown

clock = time.perf_counter

CLASSES = 5
JOINTS = 9
NOISE_SIGMA = 0.02
VAL_FRACTION = 0.25
PROBE_STREAM = "joint"
# model init, augmentation and shuffling draw from this seed; --seed makes
# the data, so runs differ in their inputs but not in their random draws
CONFIG_SEED = 7
KNN_K = 5
SEMI_FRACTION = 0.1
FINETUNE_BATCH = 32  # finetune's default batch size, which the CLI keeps
UNIT_NORM_TOL = 1e-3
# traced runs cycle steps (pretrain) or rounds (probe-eval) through three
# modes: T records spans, U runs bare for the overhead baseline, M runs
# under tracemalloc only, so its cost never lands in a timed span
TRACE_CYCLE = ("T", "U", "M")

DESK = dict(
    streams=["joint", "bone", "motion"],
    enc_blocks=3, enc_channels=[16, 32, 32], enc_temporal_kernel=3, enc_hidden=64,
    embed_dim=32, enc_normalization="batch",
    tau=0.07, key_momentum=0.99, queue_size=128, nnm_topk=1,
    pft_alpha=2.0, pft_mu=1.0, pft_apply_to_inter=False,
    shear_beta=0.5, crop_min_ratio=0.5, rotate_max_deg=30.0, aug_noise_sigma=0.05,
    extreme_prob=0.5, query_family="normal", key_family="normal",
    batch_size=32, stage_epochs=[6, 6, 6], lr=0.1, lr_after_drop=0.01, lr_drop_epoch=15,
    sgd_momentum=0.9, weight_decay=1e-4,
    linear_epochs=100, linear_lr=0.3, finetune_epochs=30, finetune_lr=0.1, knn_k=5,
    fusion_weights={"joint": 0.6, "bone": 0.6, "motion": 0.4},
)
QUEUE = dict(
    DESK,
    enc_blocks=1, enc_channels=[8], embed_dim=128, batch_size=128, queue_size=4096,
    key_family="extreme", stage_epochs=[0, 1, 1], lr_drop_epoch=2,
)
# the checkpoint probe-eval loads: a short desk run
PROBE_SOURCE = dict(DESK, stage_epochs=[1, 0, 0], lr_drop_epoch=1)


@dataclass(frozen=True)
class ProbePlan:
    """Protocol settings and the share of each split they see."""

    linear_epochs: int
    finetune_epochs: int
    semi_epochs: int
    every: int = 1  # protocols see every `every`-th clip of each split


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "pretrain" | "probe"
    per_class: int
    frames: int
    config: dict
    probes: ProbePlan
    setup_repeats: int


WORKLOADS = {
    w.name: w
    for w in (
        # after pretraining, the protocols run on short plans (semi-supervised
        # with more epochs, so its few labeled clips still make some work)
        Workload("desk-pretrain", "pretrain", 40, 32, DESK, ProbePlan(20, 2, 10), 50),
        # 850 train clips per class: a split whose train part still exceeds
        # the 4096-slot queue while two epochs fit the run
        Workload("queue-pretrain", "pretrain", 1133, 16, QUEUE,
                 ProbePlan(10, 4, 20, every=5), 3),
        Workload("probe-eval", "probe", 40, 32, DESK, ProbePlan(100, 30, 30), 25),
    )
}

END_TO_END = (
    ("setup_s", "s"), ("step_ms_p50", "ms"), ("step_ms_tail", "ms"),
    ("train_seq_per_s", "1/s"), ("loss_final", "nats"), ("peak_rss_mb", "MB"),
    ("linear_probe_s", "s"), ("knn_probe_s", "s"), ("finetune_s", "s"),
    ("semi_finetune_s", "s"),
)
# per-layer metric name -> (key in step_breakdown, unit)
PER_LAYER = {
    "encoder.query_fwd_ms": ("encoder.query_fwd_ms", "ms"),
    "encoder.key_fwd_ms": ("encoder.key_fwd_ms", "ms"),
    "encoder.bwd_ms": ("encoder.bwd_ms", "ms"),
    "encoder.eval_fwd_ms": ("encoder.eval_fwd_ms", "ms"),
    "encoder.project_ms": ("encoder.project_ms", "ms"),
    **{
        f"tensor.{op}.{field}": (f"tensor.{op}.{field}", "count" if field == "calls" else "ms")
        for op in TENSOR_OPS
        for field in ("fwd_ms", "bwd_ms", "calls")
    },
    "tensor.backward_ms": ("tensor.backward_ms", "ms"),
    "tensor.tape_nodes_per_step": ("tensor.tape_nodes", "count"),
    "tensor.held_mb_after_step": (None, "MB"),
    "contrast.loss_fwd_ms": ("contrast.loss_fwd_ms", "ms"),
    "contrast.loss_bwd_ms": ("contrast.loss_bwd_ms", "ms"),
    "contrast.queue_contents_calls": ("contrast.queue_contents.calls", "count"),
    "contrast.queue_contents_mb": ("contrast.queue_contents_mb", "MB"),
    "contrast.queue_push_ms": ("contrast.queue_push_ms", "ms"),
    "contrast.momentum_update_ms": ("contrast.momentum_update_ms", "ms"),
    "augment.ms_per_step": ("augment.batch_ms", "ms"),
    "augment.calls_per_step": ("augment.calls", "count"),
    "rng.generator_calls_per_step": ("rng.generator.calls", "count"),
    "rng.generator_ms_per_step": ("rng.generator_ms", "ms"),
    "train.sgd_step_ms": ("train.sgd_step_ms", "ms"),
    "train.step_other_ms": ("train.step_other_ms", "ms"),
    "checkpoint.save_ms": (None, "ms"),
    "checkpoint.load_ms": (None, "ms"),
    "checkpoint.mb": (None, "MB"),
    "skeleton.load_dataset_s": (None, "s"),
    "skeleton.derive_streams_ms": (None, "ms"),
    **{f"layer.{layer}_ms": (f"layer.{layer}_ms", "ms") for layer in LAYERS},
    "trace.step_ms_mean": ("step_ms", "ms"),
    "trace.step_ms_p50": (None, "ms"),
    "trace.untraced_step_ms_p50": (None, "ms"),
    "trace.overhead_ms": (None, "ms"),
}


def run_config(fields: dict) -> RunConfig:
    return RunConfig(seed=CONFIG_SEED, **json.loads(json.dumps(fields)))


# -- preparation (not measured) -------------------------------------------------


def prepare(workload: Workload, seed: int, workdir: Path) -> None:
    """Generate and write the dataset; for probe-eval also the checkpoint."""
    sequences = generate_synthetic_dataset(
        num_classes=CLASSES, per_class=workload.per_class, frames=workload.frames,
        joints=JOINTS, seed=seed, noise_sigma=NOISE_SIGMA,
    )
    splits = stratified_split(sequences, VAL_FRACTION, RngStream(seed).split("split"))
    write_dataset(workdir / "data", sequences, splits)
    train = [s for s, split in zip(sequences, splits) if split == "train"]
    if len(train) <= workload.config["queue_size"]:
        raise ValueError(f"{workload.name}: train split must exceed the queue")
    if workload.kind == "probe":
        state, _ = pretrain(train, run_config(PROBE_SOURCE))
        save_checkpoint(workdir / "checkpoint.bin", state_to_checkpoint(state))


# -- step clocks ------------------------------------------------------------------


class ClockedState(TrainState):
    """A TrainState that reports every change of `step` to a callback.

    `pretrain` bumps `state.step` once at the end of each step, so the
    callback sees step boundaries without any function being wrapped.
    """

    def __init__(self, state: TrainState, on_step):
        self._on_step = None
        super().__init__(**{f.name: getattr(state, f.name) for f in dataclasses.fields(TrainState)})
        self._on_step = on_step

    @property
    def step(self) -> int:
        return self._step

    @step.setter
    def step(self, value: int) -> None:
        self._step = value
        if self._on_step is not None:
            self._on_step()


class BackwardClock:
    """Timestamps each `tensor.backward` call while entered.

    Before each timestamp it runs the reference kernel, so every step is
    scaled by the kernel time taken right after it, as pretraining steps
    are; the kernel's own time is taken out of the step and call times.
    """

    def __init__(self, reference: Reference):
        self.reference = reference
        self.refs: list[float] = []
        self.starts: list[float] = []
        self._patcher = Patcher()

    def __enter__(self) -> "BackwardClock":
        inner = skelcl.tensor.__dict__["backward"]

        def backward(loss):
            self.refs.append(self.reference())
            self.starts.append(clock())
            return inner(loss)

        self._patcher.set(skelcl.tensor, "backward", backward)
        return self

    def __exit__(self, *exc) -> None:
        self._patcher.restore()

    def scaled_steps(self) -> list[float]:
        """Time from one backward call to the next, less the kernel, scaled."""
        scale = self.reference.scale
        return [
            (b - a - ref) * scale(ref)
            for a, b, ref in zip(self.starts, self.starts[1:], self.refs[1:])
        ]


class StepCycle:
    """Times pretraining steps and, when traced, switches modes between them."""

    def __init__(self, tracer: Tracer | None, reference: Reference):
        self.tracer = tracer
        self.reference = reference
        self.refs: dict[int, float] = {}  # reference time right after each step
        self.index = 0  # the step now running
        self.mode = "T" if tracer else "U"
        self.start: float | None = None
        self.durations: dict[int, float] = {}
        self.modes: dict[int, str] = {}
        self.held_bytes: list[int] = []
        if tracer:
            tracer.step = -1  # set-up inside pretrain and step 0 are not timed
            tracer.install()

    def tick(self) -> None:
        now = clock()
        if self.start is not None:
            self.durations[self.index] = now - self.start
            self.modes[self.index] = self.mode
        if self.mode == "M":
            self.held_bytes.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.stop()
        self.refs[self.index] = self.reference()
        self.index += 1
        if self.tracer:
            self._enter(TRACE_CYCLE[self.index % len(TRACE_CYCLE)])
        self.start = clock()

    def _enter(self, mode: str) -> None:
        self.mode = mode
        if mode == "T":
            self.tracer.step = self.index
            if not self.tracer.installed:
                self.tracer.install()
        elif self.tracer.installed:
            self.tracer.uninstall()
        if mode == "M":
            tracemalloc.start()

    def close(self) -> None:
        if self.tracer and self.tracer.installed:
            self.tracer.uninstall()
        if tracemalloc.is_tracing():
            tracemalloc.stop()

    def of_mode(self, mode: str) -> dict[int, float]:
        return {k: d for k, d in self.durations.items() if self.modes[k] == mode}

    def scaled(self, mode: str) -> list[float]:
        scale = self.reference.scale
        return [d * scale(self.refs[k]) for k, d in self.of_mode(mode).items()]


# -- results --------------------------------------------------------------------


class Outcome:
    """Attempted/failed tallies plus the reasons for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def attempt(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, reason: str, n: int = 1) -> None:
        self.failed += n
        self.problems.append(reason)


def _check_params(params, label: str, outcome: Outcome) -> None:
    bad = [name for name, t in params.tensors.items() if not finite(t.data)]
    if bad:
        outcome.fail(f"{label}: non-finite parameters {bad[:3]}")


def _labels(seqs) -> np.ndarray:
    return np.array([s.label for s in seqs], dtype=np.int64)


def _embed(params, seqs, chunk: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """Hidden vectors and embeddings through the public encoder API."""
    adjacency = seqs[0].graph.normalized_adjacency(np.float32)
    arrays = np.stack([derive_streams(s, (PROBE_STREAM,))[PROBE_STREAM] for s in seqs])
    hs, zs = [], []
    with skelcl.tensor.no_tape():
        for i in range(0, len(arrays), chunk):
            h, z = encode(arrays[i : i + chunk], adjacency, params, mode="eval")
            hs.append(h.data)
            zs.append(z.data)
    return np.concatenate(hs), np.concatenate(zs)


def brute_force_knn(z_train, y_train, z_val, y_val, k: int, tie_eps: float = 1e-5):
    """Exhaustive cosine kNN vote; returns the (lowest, highest) accuracy.

    Distance ties go to the lower train index and vote ties to the
    smaller class.  Where train similarities within `tie_eps` of the k-th
    largest decide the neighbor set, rounding alone can pick either way,
    so such a query counts as wrong for the lowest and right for the
    highest accuracy.
    """
    z_train = z_train.astype(np.float64)
    num_classes = int(y_train.max()) + 1
    right = either = 0
    for i in range(len(z_val)):
        sims = z_train @ z_val[i].astype(np.float64)
        order = np.lexsort((np.arange(len(sims)), -sims))
        kth = sims[order[k - 1]]
        if np.count_nonzero(sims >= kth - tie_eps) > k:
            either += 1
            continue
        votes = np.zeros(num_classes, dtype=np.int64)
        for j in order[:k]:
            votes[y_train[j]] += 1
        right += int(np.argmax(votes) == y_val[i])
    n = max(1, len(z_val))
    return right / n, (right + either) / n


def linear_probe_loss(h_train, y_train, weights, bias) -> float:
    logits = h_train.astype(np.float64) @ weights + bias
    logits -= logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(logits).sum(axis=1))
    return float(np.mean(log_norm - logits[np.arange(len(y_train)), y_train]))


# -- protocols ----------------------------------------------------------------------


PROTOCOLS = ("linear_probe", "knn_probe", "finetune", "semi_finetune")
# each protocol is called again within a round until its calls add up to
# this much time, so short protocols are timed as a median of several calls
MIN_PROTOCOL_S = 1.5
# a call is scaled by the median of this many reference times around it
REFERENCE_WINDOW = 6


def run_protocol(name, params, data, config, plan: ProbePlan, outcome: Outcome, reference):
    """One protocol call as its CLI subcommand makes it.

    Returns (seconds, result, scale): finetune calls carry their own scale
    factor and step times (see BackwardClock), other calls None.
    """
    train, val = data["train"], data["val"]
    outcome.attempt()
    digest = params.digest()
    try:
        if name == "linear_probe":
            t0 = clock()
            result = linear_probe(params, train, val, stream=PROBE_STREAM,
                                  epochs=plan.linear_epochs, lr=config.linear_lr, seed=config.seed)
            elapsed, scale = clock() - t0, None
        elif name == "knn_probe":
            t0 = clock()
            result = knn_probe(params, train, val, stream=PROBE_STREAM, k=KNN_K)
            elapsed, scale = clock() - t0, None
        else:
            full = name == "finetune"
            epochs = plan.finetune_epochs if full else plan.semi_epochs
            with BackwardClock(reference) as bclock:
                t0 = clock()
                tuned = finetune(params, train, val, stream=PROBE_STREAM,
                                 fraction=1.0 if full else SEMI_FRACTION, epochs=epochs,
                                 lr=config.finetune_lr, weight_decay=config.weight_decay,
                                 seed=config.seed)
                elapsed = clock() - t0 - sum(bclock.refs)
            result = (tuned, bclock.scaled_steps())
            scale = reference.scale(median(bclock.refs)) if bclock.refs else None
            expected = epochs * steps_per_epoch(tuned.subset_size, FINETUNE_BATCH)
            if len(bclock.starts) != expected:
                outcome.fail(f"{name}: {len(bclock.starts)} steps, plan {expected}")
    except Exception as err:  # a failed protocol call is counted, not fatal
        outcome.fail(f"{name} raised {type(err).__name__}: {err}")
        return None, None, None
    if params.digest() != digest:
        outcome.fail(f"{name} changed the encoder it was given")
    return elapsed, result, scale


def _fingerprint(name, result):
    if name == "linear_probe":
        return result.accuracy, result.weights.tobytes()
    if name == "knn_probe":
        return result
    tuned, _ = result
    return tuned.accuracy, tuned.params.digest()


class Round:
    """One round of the four protocols; short ones are called repeatedly."""

    def __init__(self, reference: Reference):
        self.reference = reference
        self.times: dict[str, list[float]] = {name: [] for name in PROTOCOLS}
        self.scaled: dict[str, list[float]] = {name: [] for name in PROTOCOLS}
        self.results: dict = {}
        self.finetune_periods: list[list[float]] = []  # scaled step times per call
        self.loss: float | None = None

    def run(self, params, data, config, plan, outcome, before=None, after=None,
            min_seconds=MIN_PROTOCOL_S):
        """`before(name)`/`after(name, seconds)` bracket every call.

        The reference kernel runs between calls; a call is scaled by the
        median of the REFERENCE_WINDOW samples nearest to it, which follows
        the machine's slow swings but not the noise of single samples.
        Finetune calls bring their own factor from the kernel run at every
        step.
        """
        refs = [self.reference()]
        calls = []  # (name, seconds, own scale or None, reference index before)
        for name in PROTOCOLS:
            while not self.times[name] or sum(self.times[name]) < min_seconds:
                gc.collect()  # start from a collected heap, as a fresh CLI process does
                if before:
                    before(name)
                elapsed, result, own_scale = run_protocol(
                    name, params, data, config, plan, outcome, self.reference)
                if after:
                    after(name, elapsed)
                refs.append(self.reference())
                if elapsed is None:
                    break
                self.times[name].append(elapsed)
                calls.append((name, elapsed, own_scale, len(refs) - 2))
                if name == "finetune":
                    self.finetune_periods.append(result[1])
                if name not in self.results:
                    self.results[name] = result
                elif _fingerprint(name, result) != _fingerprint(name, self.results[name]):
                    outcome.fail(f"{name}: repeated call gave a different result")
        for name, elapsed, scale, i in calls:
            if scale is None:
                lo = max(0, min(i + 1 - REFERENCE_WINDOW // 2, len(refs) - REFERENCE_WINDOW))
                scale = self.reference.scale(median(refs[lo : lo + REFERENCE_WINDOW]))
            self.scaled[name].append(elapsed * scale)
        return self

    def complete(self) -> bool:
        return all(self.times[name] for name in PROTOCOLS)

    def check(self, params, data, outcome: Outcome) -> None:
        """Output checks on the first call of each protocol."""
        train, val = data["train"], data["val"]
        h_train, z_train = _embed(params, train)
        lin = self.results.get("linear_probe")
        if lin is not None:
            if lin.encoder_digest_before != lin.encoder_digest_after:
                outcome.fail("linear_probe reports a changed encoder digest")
            if not (finite(lin.weights) and finite(lin.bias) and 0 <= lin.accuracy <= 1):
                outcome.fail("linear_probe: non-finite head or accuracy")
            self.loss = linear_probe_loss(h_train, _labels(train), lin.weights, lin.bias)
            if not math.isfinite(self.loss):
                outcome.fail("linear_probe: non-finite final loss")
        knn = self.results.get("knn_probe")
        if knn is not None:
            _, z_val = _embed(params, val)
            lowest, highest = brute_force_knn(
                z_train, _labels(train), z_val, _labels(val), KNN_K)
            if not lowest <= knn <= highest:
                outcome.fail(f"knn_probe accuracy {knn} outside brute force [{lowest}, {highest}]")
        for name in ("finetune", "semi_finetune"):
            if name in self.results:
                tuned, _ = self.results[name]
                _check_params(tuned.params, name, outcome)
                if not 0 <= tuned.accuracy <= 1:
                    outcome.fail(f"{name}: accuracy {tuned.accuracy}")
        self.results = {}


def protocol_metrics(rounds: list[Round]) -> dict[str, float]:
    return {f"{name}_s": median([t for r in rounds for t in r.scaled[name]]) for name in PROTOCOLS}


# -- measurement ---------------------------------------------------------------------


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup(workload: Workload, config: RunConfig, workdir: Path, layer: dict, reference):
    """Repeat the program's set-up; returns (median scaled seconds, dataset, extra)."""
    times, loads, ckpt_loads, refs = [], [], [], [reference()]
    for _ in range(workload.setup_repeats):
        t0 = clock()
        data = load_dataset(workdir / "data")
        loads.append(clock() - t0)
        if workload.kind == "pretrain":
            for seq in data["train"]:
                derive_streams(seq, config.streams)
            extra = init_train_state(config)
        else:
            t1 = clock()
            ckpt = load_checkpoint(workdir / "checkpoint.bin")
            extra = query_params(ckpt, PROBE_STREAM)
            ckpt_loads.append(clock() - t1)
        times.append(clock() - t0)
        refs.append(reference())
    layer["skeleton.load_dataset_s"] = median(loads)
    if ckpt_loads:
        layer["checkpoint.load_ms"] = 1e3 * median(ckpt_loads)
        layer["checkpoint.mb"] = (workdir / "checkpoint.bin").stat().st_size / 1e6
    scaled = [t * reference.scale(a, b) for t, a, b in zip(times, refs, refs[1:])]
    return median(scaled), data, extra


def _check_pretrain(state, records, plan_steps: int, ckpt_path: Path, outcome: Outcome):
    outcome.attempt(plan_steps)
    steps_done = len(records) - 1
    if steps_done != plan_steps or state.step != plan_steps:
        outcome.fail(f"pretrain ran {steps_done} steps, plan {plan_steps}",
                     abs(plan_steps - steps_done) or 1)
    bad = [r["step"] for r in records[1:] if not math.isfinite(r["loss_total"])]
    if bad:
        outcome.fail(f"non-finite loss at steps {bad[:5]}", len(bad))
    for u, pair in state.pairs.items():
        _check_params(pair.query, f"{u} query encoder", outcome)
        _check_params(pair.key, f"{u} key encoder", outcome)
        rows = state.queues[u].contents()
        worst = float(np.max(np.abs(np.linalg.norm(rows, axis=1) - 1.0)))
        if worst > UNIT_NORM_TOL:
            outcome.fail(f"{u} queue rows off unit norm by {worst:.2e}")
    t0 = clock()
    ckpt = load_checkpoint(ckpt_path)
    load_s = clock() - t0
    written = state_to_checkpoint(state).tensors
    if set(ckpt.tensors) != set(written) or any(
        not np.array_equal(ckpt.tensors[k], np.asarray(v, dtype=np.float32))
        for k, v in written.items()
    ):
        outcome.fail("checkpoint does not round-trip the final state")
    return ckpt, load_s


def _step_metrics(step_sets: list[list[float]]) -> tuple[dict, dict]:
    """p50 over all steps, the tail per set (fixed size) and its median."""
    samples = [d for steps in step_sets for d in steps]
    tails = [tail_percentile(steps) for steps in step_sets]
    metrics = {
        "step_ms_p50": 1e3 * median(samples),
        "step_ms_tail": 1e3 * median([value for _, value in tails]),
    }
    notes = {"step_samples": len(samples),
             "tail": f"p{tails[0][0]} of {len(step_sets[0])} steps"}
    return metrics, notes


def _span_ms(tracer: Tracer, name: str, steps) -> float:
    """Total milliseconds of the spans called `name` recorded in `steps`."""
    return 1e3 * sum(s.end - s.start for s in tracer.spans if s.step in steps and s.name == name)


def _finetune_steps(rounds: list[Round]) -> list[float]:
    return [d for r in rounds for steps in r.finetune_periods for d in steps]


def _overhead(traced_steps, untraced_steps) -> dict[str, float]:
    """Tracing overhead: traced minus untraced median step time."""
    traced_p50, untraced_p50 = median(traced_steps), median(untraced_steps)
    return {
        "trace.step_ms_p50": 1e3 * traced_p50,
        "trace.untraced_step_ms_p50": 1e3 * untraced_p50,
        "trace.overhead_ms": 1e3 * (traced_p50 - untraced_p50),
    }


def measure_pretrain(workload: Workload, seconds: float, traced: bool, workdir: Path):
    config = run_config(workload.config)
    outcome = Outcome()
    layer: dict[str, float] = {}
    reference = Reference(clock)
    setup_s, data, state = _setup(workload, config, workdir, layer, reference)
    train = data["train"]
    every = workload.probes.every
    eval_data = {"train": train[::every], "val": data["val"][::every]}
    epochs = sum(config.stage_epochs)
    plan_steps = steps_per_epoch(len(train), config.batch_size) * epochs
    run_dir = workdir / "run"
    run_dir.mkdir(exist_ok=True)
    tracer = Tracer() if traced else None

    units = []
    began = clock()
    while True:
        cycle = StepCycle(tracer, reference)
        saves: list[float] = []

        def on_stage_end(current, stage_index):
            # what `skelcl pretrain` does at each stage end
            span = (tracer.span("checkpoint.save", "checkpoint")
                    if tracer and tracer.installed else contextlib.nullcontext())
            t0 = clock()
            with span:
                save_checkpoint(run_dir / f"ckpt_stage{stage_index}.bin",
                                state_to_checkpoint(current))
            saves.append(clock() - t0)

        clocked = ClockedState(state or init_train_state(config), cycle.tick)
        state = None
        gc.collect()
        try:
            t0 = clock()
            final, records = pretrain(train, config, state=clocked, on_stage_end=on_stage_end)
            call_s = clock() - t0
        except Exception as err:  # counted as failed steps, then the run ends
            outcome.attempt(plan_steps)
            outcome.fail(f"pretrain raised {type(err).__name__}: {err}", plan_steps - cycle.index)
            break
        finally:
            cycle.close()
        ckpt_path = run_dir / "checkpoint.bin"
        save_checkpoint(ckpt_path, state_to_checkpoint(final))
        ckpt, load_s = _check_pretrain(final, records, plan_steps, ckpt_path, outcome)
        params = query_params(ckpt, PROBE_STREAM)
        probes = Round(reference).run(params, eval_data, config, workload.probes, outcome)
        probes.check(params, eval_data, outcome)
        units.append(dict(
            cycle=cycle, call_s=call_s, saves=saves, load_s=load_s, probes=probes,
            loss=float(np.mean([r["loss_total"] for r in records[1:] if r["epoch"] == epochs - 1])),
            ckpt_mb=ckpt_path.stat().st_size / 1e6,
        ))
        del final, records, ckpt, params, clocked
        elapsed = clock() - began
        if elapsed + elapsed / len(units) > seconds:
            break

    metrics, notes = {}, {"units": len(units)}
    if units and all(u["probes"].complete() for u in units):
        steps, step_notes = _step_metrics([u["cycle"].scaled("U") for u in units])
        notes.update(step_notes)
        raw = [d for u in units for d in u["cycle"].of_mode("U").values()]
        notes.update(raw_step_ms_p50=1e3 * median(raw),
                     reference_ms_p50=1e3 * median(reference.samples))
        metrics = dict(
            setup_s=setup_s,
            **steps,
            train_seq_per_s=median([
                len(train) * epochs
                / (u["call_s"] * reference.scale(median(u["cycle"].refs.values())))
                for u in units]),
            loss_final=units[-1]["loss"],
            **protocol_metrics([u["probes"] for u in units]),
        )
        if traced:
            layer.update(_pretrain_layers(tracer, units))
    return _finish(metrics, layer, outcome, notes, tracer)


def _pretrain_layers(tracer: Tracer, units) -> dict[str, float]:
    timed, untraced, held = {}, [], []
    for u in units:
        timed.update(u["cycle"].of_mode("T"))
        untraced.extend(u["cycle"].of_mode("U").values())
        held.extend(u["cycle"].held_bytes)
    layer = step_breakdown(tracer, timed)
    # pretrain derives its stream cache before the first step (step -1)
    derive_ms = _span_ms(tracer, "skeleton.derive_streams", {-1})
    layer["skeleton.derive_streams_ms"] = derive_ms / len(units)
    layer["tensor.held_mb_after_step"] = float(np.mean(held)) / 1e6 if held else 0.0
    saves = [s for u in units for s in u["saves"]]
    layer["checkpoint.save_ms"] = 1e3 * median(saves) if saves else 0.0
    layer["checkpoint.load_ms"] = 1e3 * median([u["load_s"] for u in units])
    layer["checkpoint.mb"] = units[-1]["ckpt_mb"]
    layer.update(_overhead(list(timed.values()), untraced))
    return layer


def measure_probe(workload: Workload, seconds: float, traced: bool, workdir: Path):
    config = run_config(workload.config)
    outcome = Outcome()
    layer: dict[str, float] = {}
    reference = Reference(clock)
    setup_s, data, params = _setup(workload, config, workdir, layer, reference)
    tracer = Tracer() if traced else None
    plan = workload.probes

    rounds: list[Round] = []
    modes: list[str] = []
    timed: dict[int, float] = {}  # traced protocol call -> seconds
    held: list[int] = []
    began = clock()
    while True:
        mode = TRACE_CYCLE[len(rounds) % len(TRACE_CYCLE)] if traced else "U"

        def before(name):
            if mode == "T":
                tracer.step = len(timed)
                tracer.install()
            elif mode == "M":
                tracemalloc.start()

        def after(name, elapsed):
            if mode == "T":
                tracer.uninstall()
                if elapsed is not None:
                    timed[len(timed)] = elapsed
            elif mode == "M":
                held.append(tracemalloc.get_traced_memory()[0])
                tracemalloc.stop()

        try:
            # a traced round calls each protocol once, so per-call figures
            # average the same four calls on every commit
            current = Round(reference).run(params, data, config, plan, outcome, before, after,
                                  min_seconds=0.0 if mode == "T" else MIN_PROTOCOL_S)
        finally:
            if tracer and tracer.installed:
                tracer.uninstall()
            if tracemalloc.is_tracing():
                tracemalloc.stop()
        current.check(params, data, outcome)
        rounds.append(current)
        modes.append(mode)
        elapsed = clock() - began
        # a traced run needs one round of each mode
        if elapsed + elapsed / len(rounds) > seconds and len(rounds) >= (3 if traced else 1):
            break

    metrics, notes = {}, {"rounds": len(rounds)}
    bare = [r for r, m in zip(rounds, modes) if m == "U"]
    if all(r.complete() for r in rounds):
        steps, step_notes = _step_metrics([p for r in bare for p in r.finetune_periods])
        notes.update(step_notes)
        notes.update(raw_finetune_s=median([t for r in bare for t in r.times["finetune"]]),
                     reference_ms_p50=1e3 * median(reference.samples))
        metrics = dict(
            setup_s=setup_s,
            **steps,
            train_seq_per_s=median([
                len(data["train"]) * plan.finetune_epochs / t
                for r in bare for t in r.scaled["finetune"]]),
            loss_final=median([r.loss for r in rounds]),
            **protocol_metrics(bare),
        )
    if traced and timed:
        layer.update(step_breakdown(tracer, timed))
        derive_ms = _span_ms(tracer, "skeleton.derive_streams", timed)
        layer["skeleton.derive_streams_ms"] = derive_ms / len(timed)
        layer["tensor.held_mb_after_step"] = float(np.mean(held)) / 1e6 if held else 0.0
        layer["checkpoint.save_ms"] = 0.0
        traced_rounds = [r for r, m in zip(rounds, modes) if m == "T"]
        layer.update(_overhead(_finetune_steps(traced_rounds), _finetune_steps(bare)))
    return _finish(metrics, layer, outcome, notes, tracer)


def _finish(metrics, layer, outcome: Outcome, notes, tracer):
    leftovers = leftover_wrappers()
    if leftovers:
        outcome.fail(f"wrappers left behind: {leftovers}")
    metrics = dict(metrics)
    if metrics:
        metrics["peak_rss_mb"] = _peak_rss_mb()
    return {
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "metrics": metrics,
        "layers": layer,
        "notes": notes,
        "spans": list(tracer.span_records()) if tracer else None,
    }


def measure(workload: Workload, seconds: float, traced: bool, workdir: Path) -> dict:
    leftovers = leftover_wrappers()
    if leftovers:
        raise RuntimeError(f"package already patched: {leftovers}")
    if workload.kind == "pretrain":
        return measure_pretrain(workload, seconds, traced, workdir)
    return measure_probe(workload, seconds, traced, workdir)
