"""Pretraining loop, SGD, stage schedule, and evaluation protocols.

Pretraining follows the momentum-contrast recipe per stream: augment the
batch's joints once per branch (query, key) and derive every stream from
that view, encode both branches, combine the intra/inter losses (mining
from stage 2, extrapolation in stage 3), backprop into the query
encoders, momentum-mix the key encoders, then push the step's key
embeddings into each stream's queue.  Everything stochastic is re-derived
from (seed, labels), so a resumed run replays the uninterrupted
trajectory bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .augment import AugmentPipeline
from .config import RunConfig
from .contrast import EncoderPair, MemoryQueue, combine_losses, momentum_update
from .encoder import EncoderParams, init_params, project, stgcn_forward
from .errors import (
    ConfigValueError,
    EmptySubset,
    EmptyTrainSplit,
    EmptyValSplit,
    EncoderModified,
    LengthMismatch,
    NonFiniteGradient,
    NonFiniteLoss,
    NonFiniteValue,
    StreamMissing,
)
from .rng import RngStream
from .skeleton import SkeletonSequence, derive_streams, shared_graph, stream_arrays

STAGE_NAMES = ("basic", "basic+nnm", "basic+nnm+pft")


@dataclass
class OptimizerState:
    """SGD with momentum and decoupled-from-nothing classic weight decay."""

    lr: float
    momentum: float = 0.9
    weight_decay: float = 1e-4
    buffers: dict[str, np.ndarray] = field(default_factory=dict)


def sgd_step(params: dict[str, T.Tensor], grads: dict[str, np.ndarray], state: OptimizerState):
    """g' = g + wd*theta; buf = m*buf + g'; theta -= lr*buf (in place)."""
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p.data)
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradient(f"gradient for {name} is not finite")
        g = g + state.weight_decay * p.data
        buf = state.buffers.get(name)
        buf = g if buf is None else state.momentum * buf + g
        state.buffers[name] = buf
        p.data[...] = p.data - state.lr * buf


@dataclass(frozen=True)
class StageSchedule:
    """Basic, then +mining, then +extrapolation; cumulative epoch bounds."""

    epochs: tuple[int, int, int]
    lr_drop_epoch: int

    @property
    def total_epochs(self) -> int:
        return sum(self.epochs)

    def stage_of(self, epoch: int) -> int:
        if epoch < self.epochs[0]:
            return 0
        if epoch < self.epochs[0] + self.epochs[1]:
            return 1
        return 2

    def flags(self, epoch: int) -> tuple[bool, bool]:
        stage = self.stage_of(epoch)
        return stage >= 1, stage >= 2  # (nnm, pft)


def stage_schedule(config: RunConfig) -> StageSchedule:
    e = config.stage_epochs
    return StageSchedule((e[0], e[1], e[2]), config.lr_drop_epoch)


@dataclass
class TrainState:
    """Everything the pretraining loop mutates, checkpointable."""

    config: RunConfig
    pairs: dict[str, EncoderPair]
    queues: dict[str, MemoryQueue]
    optimizers: dict[str, OptimizerState]
    epoch: int = 0
    step: int = 0


def init_train_state(config: RunConfig) -> TrainState:
    """Fresh encoders (key = copy of query) and randomly prefilled queues.

    Queues start full of seeded random unit vectors, the usual
    momentum-contrast warm start; real keys displace them FIFO within
    the first capacity/batch steps.
    """
    root = RngStream(config.seed)
    pairs, queues, optimizers = {}, {}, {}
    for u in config.streams:
        params = init_params(config, root.split(f"init.{u}"))
        pairs[u] = EncoderPair(params, config.key_momentum)
        q = MemoryQueue(config.queue_size, config.embed_dim)
        fill = root.split(f"queue_init.{u}").generator().normal(size=(config.queue_size, config.embed_dim))
        fill /= np.linalg.norm(fill, axis=1, keepdims=True)
        q.push(fill.astype(np.float32))
        queues[u] = q
        optimizers[u] = OptimizerState(
            lr=config.lr, momentum=config.sgd_momentum, weight_decay=config.weight_decay
        )
    return TrainState(config, pairs, queues, optimizers)


def _augment_batch(joints, pipeline, rng, graph, stream_ids) -> dict[str, np.ndarray]:
    """One augmented view of an (N, T, C, V) joint batch, then every stream derived from it."""
    return stream_arrays(pipeline.apply_array(joints, rng), graph, stream_ids)


def pretrain(
    dataset: list[SkeletonSequence],
    config: RunConfig,
    state: TrainState | None = None,
    on_stage_end=None,
) -> tuple[TrainState, list[dict]]:
    """Run the three-stage schedule; returns final state and metric records.

    `state` resumes a checkpointed run from its epoch cursor.  The first
    record is a header with the materialized config and its hash;
    `on_stage_end(state, stage_index)` fires at each stage boundary.
    """
    if not dataset:
        raise EmptyTrainSplit("pretraining needs a nonempty dataset")
    keys_per_step = min(config.batch_size, len(dataset))
    if keys_per_step > config.queue_size:
        raise ConfigValueError("queue_size", f"{config.queue_size} < {keys_per_step} keys per step")
    graph = shared_graph(dataset)
    adjacency = graph.normalized_adjacency(np.float32)
    joints = np.stack([seq.data for seq in dataset])
    schedule = stage_schedule(config)
    if state is None:
        state = init_train_state(config)
    root = RngStream(config.seed)
    pipelines = {
        "q": AugmentPipeline(config.query_family, config),
        "k": AugmentPipeline(config.key_family, config),
    }

    records: list[dict] = [
        {"config": config.to_dict(), "config_hash": config.hash(), "n_sequences": len(dataset)}
    ]
    n = len(dataset)
    for epoch in range(state.epoch, schedule.total_epochs):
        nnm, pft = schedule.flags(epoch)
        stage = schedule.stage_of(epoch)
        lr = config.lr if epoch < schedule.lr_drop_epoch else config.lr_after_drop
        order = root.split(f"shuffle.e{epoch}").permutation(n)

        for bi in range(math.ceil(n / config.batch_size)):
            indices = order[bi * config.batch_size : (bi + 1) * config.batch_size]
            step_keys: dict[str, np.ndarray] = {}
            embeddings: dict[str, tuple[T.Tensor, np.ndarray]] = {}
            views = {
                b: _augment_batch(joints[indices], p, root.split(f"aug.e{epoch}.b{bi}.{b}"), graph,
                                  config.streams)
                for b, p in pipelines.items()
            }
            try:
                with T.Tape():
                    for u in config.streams:
                        pair = state.pairs[u]
                        xq, xk = views["q"][u], views["k"][u]
                        hq = stgcn_forward(xq, adjacency, pair.query, mode="train")
                        zq = project(hq, pair.query)
                        with T.no_tape():
                            hk = stgcn_forward(
                                xk, adjacency, pair.key, mode="train", update_stats=False
                            )
                            zk = project(hk, pair.key).data
                        embeddings[u] = (zq, zk)
                        step_keys[u] = zk
                    result = combine_losses(
                        embeddings, state.queues, config, nnm, pft, root.split(f"pft.e{epoch}.b{bi}")
                    )
                    grads = T.backward(result.total)
            except NonFiniteValue as err:
                raise NonFiniteLoss(
                    f"non-finite loss at epoch {epoch} step {state.step}: {err}; "
                    f"stage={STAGE_NAMES[stage]} lr={lr}"
                ) from err

            for u in config.streams:
                pair = state.pairs[u]
                state.optimizers[u].lr = lr
                named = {
                    name: grads[t].data
                    for name, t in pair.query.trainable().items()
                    if t in grads
                }
                sgd_step(pair.query.trainable(), named, state.optimizers[u])
                momentum_update(pair)
                state.queues[u].push(step_keys[u])

            record = {
                "step": state.step,
                "epoch": epoch,
                "stage": STAGE_NAMES[stage],
                "loss_total": result.total.item(),
                "lr": lr,
            }
            record.update(result.breakdown)
            if nnm:
                record["nnm_mean_similarity"] = result.nnm_mean_similarity
            if pft:
                record["pft_applied_rate"] = result.pft_applied_rate
            records.append(record)
            state.step += 1

        state.epoch = epoch + 1
        new_stage = schedule.stage_of(state.epoch) if state.epoch < schedule.total_epochs else 3
        if new_stage != stage and on_stage_end is not None:
            on_stage_end(state, stage)
    return state, records


# -- feature extraction for the protocols ---------------------------------------------


FEATURE_CHUNK = 64  # clips per eval-mode forward when extracting features
PROTOCOL_BATCH = 32  # clips per SGD step of the linear probe and finetuning


def _features(
    params: EncoderParams, sequences: list[SkeletonSequence], stream: str, projected: bool
) -> np.ndarray:
    """Eval-mode hidden vectors h, or projected embeddings z, one row per clip."""
    adjacency = shared_graph(sequences).normalized_adjacency(np.float32)
    arrays = np.stack([derive_streams(s, (stream,))[stream] for s in sequences])
    outs = []
    with T.no_tape():
        for i in range(0, len(arrays), FEATURE_CHUNK):
            h = stgcn_forward(arrays[i : i + FEATURE_CHUNK], adjacency, params, mode="eval")
            outs.append((project(h, params) if projected else h).data)
    return np.concatenate(outs)


def _check_splits(train_seqs, val_seqs, protocol: str) -> None:
    if not train_seqs:
        raise EmptyTrainSplit(f"{protocol} needs training samples")
    if not val_seqs:
        raise EmptyValSplit(f"{protocol} needs validation samples")


def _labels(sequences) -> np.ndarray:
    return np.array([s.label for s in sequences], dtype=np.int64)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


@dataclass
class ProbeResult:
    accuracy: float
    weights: np.ndarray
    bias: np.ndarray
    val_scores: np.ndarray
    val_labels: np.ndarray
    encoder_digest_before: str
    encoder_digest_after: str


def linear_probe(
    params: EncoderParams,
    train_seqs: list[SkeletonSequence],
    val_seqs: list[SkeletonSequence],
    stream: str = "joint",
    epochs: int = 100,
    lr: float = 0.3,
    seed: int = 0,
) -> ProbeResult:
    """Frozen-encoder evaluation: one affine layer on h, softmax CE.

    Checks (and reports) that encoder parameter bytes are untouched,
    raising `EncoderModified` otherwise.
    """
    _check_splits(train_seqs, val_seqs, "linear probe")
    digest_before = params.digest()
    h_train = _features(params, train_seqs, stream, projected=False)
    h_val = _features(params, val_seqs, stream, projected=False)
    y_train = _labels(train_seqs)
    y_val = _labels(val_seqs)
    num_classes = int(max(y_train.max(), y_val.max())) + 1

    w = T.parameter(np.zeros((h_train.shape[1], num_classes), dtype=np.float32))
    b = T.parameter(np.zeros(num_classes, dtype=np.float32))
    opt = OptimizerState(lr=lr, momentum=0.9, weight_decay=0.0)
    rng = RngStream(seed).split("linear_probe")
    n = len(h_train)
    for epoch in range(epochs):
        order = rng.split(f"e{epoch}").permutation(n)
        for bi in range(math.ceil(n / PROTOCOL_BATCH)):
            idx = order[bi * PROTOCOL_BATCH : (bi + 1) * PROTOCOL_BATCH]
            mask = np.eye(num_classes, dtype=bool)[y_train[idx]]
            with T.Tape():
                logits = T.add(T.matmul(T.Tensor(h_train[idx]), w), b)
                loss = T.mean_(T.masked_softmax_nll_rows(logits, mask))
                grads = T.backward(loss)
            sgd_step({"w": w, "b": b}, {"w": grads[w].data, "b": grads[b].data}, opt)

    val_logits = h_val @ w.data + b.data
    predicted = np.argmax(val_logits, axis=1)
    accuracy = float((predicted == y_val).mean())
    digest_after = params.digest()
    if digest_before != digest_after:
        raise EncoderModified("linear probe must not touch the encoder")
    return ProbeResult(
        accuracy, w.data.copy(), b.data.copy(), _softmax(val_logits), y_val,
        digest_before, digest_after,
    )


def knn_probe(
    params: EncoderParams,
    train_seqs: list[SkeletonSequence],
    val_seqs: list[SkeletonSequence],
    stream: str = "joint",
    k: int = 5,
) -> float:
    """Cosine k-nearest-neighbor majority vote on projected embeddings."""
    _check_splits(train_seqs, val_seqs, "knn probe")
    if k > len(train_seqs):
        raise ConfigValueError("knn_k", f"k={k} exceeds the training split size {len(train_seqs)}")
    z_train = _features(params, train_seqs, stream, projected=True)
    z_val = _features(params, val_seqs, stream, projected=True)
    y_train = _labels(train_seqs)
    y_val = _labels(val_seqs)
    sims = z_val @ z_train.T
    num_classes = int(y_train.max()) + 1
    correct = 0
    for i in range(len(z_val)):
        nearest = np.argsort(-sims[i], kind="stable")[:k]
        votes = np.bincount(y_train[nearest], minlength=num_classes)
        if int(np.argmax(votes)) == y_val[i]:  # argmax tie -> smallest class index
            correct += 1
    return correct / max(1, len(z_val))


def stratified_fraction(
    sequences: list[SkeletonSequence], fraction: float, rng: RngStream
) -> list[int]:
    """Class-stratified subset indices with a one-per-class floor."""
    if not 0 < fraction <= 1:
        raise ConfigValueError("fraction", f"must lie in (0, 1], got {fraction}")
    labels = _labels(sequences)
    picked: list[int] = []
    gen = rng.generator()
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        if idx.size == 0:
            raise EmptySubset(f"class {cls} has no samples")
        take = max(1, int(round(idx.size * fraction)))
        idx = idx[gen.permutation(idx.size)]
        picked.extend(int(i) for i in idx[:take])
    return sorted(picked)


@dataclass
class FinetuneResult:
    accuracy: float
    params: EncoderParams
    encoder_digest_before: str
    encoder_digest_after: str
    subset_size: int


def finetune(
    params: EncoderParams,
    train_seqs: list[SkeletonSequence],
    val_seqs: list[SkeletonSequence],
    stream: str = "joint",
    fraction: float = 1.0,
    epochs: int = 30,
    lr: float = 0.1,
    weight_decay: float = 1e-4,
    seed: int = 0,
) -> FinetuneResult:
    """Jointly train a copy of the encoder plus a linear head.

    `fraction < 1` runs the semi-supervised protocol on a class-
    stratified labeled subset (at least one sample per class).
    """
    _check_splits(train_seqs, val_seqs, "finetuning")
    rng = RngStream(seed).split("finetune")
    subset = stratified_fraction(train_seqs, fraction, rng.split("subset"))
    subset_seqs = [train_seqs[i] for i in subset]

    tuned = params.copy()
    digest_before = tuned.digest()
    adjacency = shared_graph(train_seqs).normalized_adjacency(np.float32)
    arrays = np.stack([derive_streams(s, (stream,))[stream] for s in subset_seqs])
    y = _labels(subset_seqs)
    y_val = _labels(val_seqs)
    num_classes = int(max(y.max(), y_val.max())) + 1

    head_w = T.parameter(np.zeros((tuned.config.enc_channels[-1], num_classes), dtype=np.float32))
    head_b = T.parameter(np.zeros(num_classes, dtype=np.float32))
    trainable = dict(tuned.trainable())
    trainable["head.w"] = head_w
    trainable["head.b"] = head_b
    opt = OptimizerState(lr=lr, momentum=0.9, weight_decay=weight_decay)

    n = len(arrays)
    for epoch in range(epochs):
        order = rng.split(f"e{epoch}").permutation(n)
        for bi in range(math.ceil(n / PROTOCOL_BATCH)):
            idx = order[bi * PROTOCOL_BATCH : (bi + 1) * PROTOCOL_BATCH]
            mask = np.eye(num_classes, dtype=bool)[y[idx]]
            with T.Tape():
                h = stgcn_forward(arrays[idx], adjacency, tuned, mode="train")
                logits = T.add(T.matmul(h, head_w), head_b)
                loss = T.mean_(T.masked_softmax_nll_rows(logits, mask))
                grads = T.backward(loss)
            named = {name: grads[t].data for name, t in trainable.items() if t in grads}
            sgd_step(trainable, named, opt)

    h_val = _features(tuned, val_seqs, stream, projected=False)
    predicted = np.argmax(h_val @ head_w.data + head_b.data, axis=1)
    accuracy = float((predicted == y_val).mean())
    return FinetuneResult(accuracy, tuned, digest_before, tuned.digest(), len(subset))


def fuse_predictions(
    scores: dict[str, np.ndarray], weights: dict[str, float]
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted sum of per-stream class scores (positive weights); argmax ties pick class 0."""
    streams = list(scores)
    shapes = {np.asarray(scores[s]).shape for s in streams}
    if len(shapes) != 1:
        raise LengthMismatch(f"score shapes differ: {shapes}")
    fused = None
    for s in streams:
        term = weights[s] * np.asarray(scores[s], dtype=np.float64)
        fused = term if fused is None else fused + term
    return fused, np.argmax(fused, axis=1)
