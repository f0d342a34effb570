"""Pretraining loop, SGD, stage schedule, and evaluation protocols.

Pretraining follows the momentum-contrast recipe per stream: augment the
batch's joints once per branch (query, key) and derive every stream from
that view, encode both branches, combine the intra/inter losses (mining
from stage 2, extrapolation in stage 3), backprop into the query
encoders, momentum-mix the key encoders, then push the step's key
embeddings into each stream's queue.  Everything stochastic is re-derived
from (seed, labels), so a resumed run replays the uninterrupted
trajectory bit for bit.

The protocols share one path.  `skeleton.clip_batch` checks that a
split's clips share one graph and frame count and stacks them, and
`stream_arrays` derives the probed stream from that stack once.  The
linear probe and finetuning train their linear head in one loop,
`_fit_head`: the probe feeds it frozen eval-mode h, finetuning the taped
train-mode encoder, whose parameters step with the head.  A head step
records one tape node for the affine head and its mean softmax
cross-entropy (`T.linear_softmax_nll`), after the encoder's blocks when
finetuning.  Labels must be nonnegative integers (`InvalidLabel`
otherwise).  The kNN probe
ranks every val clip's train neighbours with one row-wise stable sort
and counts all votes at once.  Every setting a protocol takes is a
required keyword; `RunConfig` holds the defaults.
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
    EmptyTrainSplit,
    EmptyValSplit,
    EncoderModified,
    InvalidLabel,
    LengthMismatch,
    NonFiniteGradient,
    NonFiniteLoss,
    NonFiniteValue,
    UnlabeledClip,
)
from .rng import RngStream
from .skeleton import SkeletonSequence, clip_batch, stream_arrays
from .skeleton import derive_streams  # noqa: F401  (skelbench's tracer patches this name)

STAGE_NAMES = ("basic", "basic+nnm", "basic+nnm+pft")


@dataclass
class OptimizerState:
    """SGD with momentum and decoupled-from-nothing classic weight decay."""

    lr: float
    momentum: float
    weight_decay: float
    buffers: dict[str, np.ndarray] = field(default_factory=dict)


def sgd_step(
    params: dict[str, T.Tensor], grads: dict[T.Tensor, T.Tensor], state: OptimizerState
) -> None:
    """g' = g + wd*theta; buf = m*buf + g'; theta -= lr*buf (in place).

    `grads` is `T.backward`'s map; a parameter missing from it has a zero gradient.
    """
    for name, p in params.items():
        g = grads[p].data if p in grads else np.zeros_like(p.data)
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradient(f"gradient for {name} is not finite")
        g = g + state.weight_decay * p.data
        buf = state.buffers.get(name)
        buf = g if buf is None else state.momentum * buf + g
        state.buffers[name] = buf
        p.data[...] = p.data - state.lr * buf


def stage_of(config: RunConfig, epoch: int) -> int:
    """0 (basic), 1 (+mining) or 2 (+extrapolation): the stage `epoch` falls in."""
    basic, mining, _ = config.stage_epochs
    if epoch < basic:
        return 0
    return 1 if epoch < basic + mining else 2


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
    graph, joints = clip_batch(dataset)
    adjacency = graph.normalized_adjacency(np.float32)
    total_epochs = sum(config.stage_epochs)
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
    for epoch in range(state.epoch, total_epochs):
        stage = stage_of(config, epoch)
        nnm, pft = stage >= 1, stage >= 2
        lr = config.lr if epoch < config.lr_drop_epoch else config.lr_after_drop
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
            stream = None  # the stream whose encoder pass is running
            try:
                with T.Tape():
                    for u in config.streams:
                        stream = u
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
                    stream = None
                    result = combine_losses(
                        embeddings, state.queues, config, nnm, pft, root.split(f"pft.e{epoch}.b{bi}")
                    )
                    grads = T.backward(result.total)
            except NonFiniteValue as err:
                where = f" in the {stream} encoder pass" if stream else ""
                raise NonFiniteLoss(
                    f"non-finite value at epoch {epoch} step {state.step}{where}: {err}; "
                    f"stage={STAGE_NAMES[stage]} lr={lr}",
                    op=err.op, epoch=epoch, step=state.step, stage=STAGE_NAMES[stage],
                    stream=stream,
                ) from err

            for u in config.streams:
                pair = state.pairs[u]
                state.optimizers[u].lr = lr
                sgd_step(pair.query.trainable(), grads, state.optimizers[u])
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
        new_stage = stage_of(config, state.epoch) if state.epoch < total_epochs else 3
        if new_stage != stage and on_stage_end is not None:
            on_stage_end(state, stage)
    return state, records


# -- evaluation protocols ---------------------------------------------------------------


FEATURE_CHUNK = 64  # clips per eval-mode forward when extracting features
PROTOCOL_BATCH = 32  # clips per SGD step of the linear probe and finetuning


def _stream_batch(sequences: list[SkeletonSequence], stream: str) -> tuple[np.ndarray, np.ndarray]:
    """The clips' normalized adjacency and their (N, T, C, V) `stream` array."""
    graph, joints = clip_batch(sequences)
    return graph.normalized_adjacency(np.float32), stream_arrays(joints, graph, (stream,))[stream]


def _features(
    params: EncoderParams, sequences: list[SkeletonSequence], stream: str, projected: bool
) -> np.ndarray:
    """Eval-mode hidden vectors h, or projected embeddings z, one row per clip."""
    adjacency, x = _stream_batch(sequences, stream)
    outs = []
    with T.no_tape():
        for i in range(0, len(x), FEATURE_CHUNK):
            h = stgcn_forward(x[i : i + FEATURE_CHUNK], adjacency, params, mode="eval")
            outs.append((project(h, params) if projected else h).data)
    return np.concatenate(outs)


def _check_splits(train_seqs, val_seqs, protocol: str) -> None:
    if not train_seqs:
        raise EmptyTrainSplit(f"{protocol} needs training samples")
    if not val_seqs:
        raise EmptyValSplit(f"{protocol} needs validation samples")


def _labels(sequences, split: str) -> np.ndarray:
    for i, s in enumerate(sequences):
        if s.label is None:
            raise UnlabeledClip(f"{split} clip {i} has no label")
        if isinstance(s.label, bool) or not isinstance(s.label, (int, np.integer)) or s.label < 0:
            raise InvalidLabel(f"{split} clip {i} has label {s.label!r}, not a nonnegative integer")
    return np.array([s.label for s in sequences], dtype=np.int64)


def _fit_head(rows, dim: int, y: np.ndarray, num_classes: int, trainable: dict[str, T.Tensor],
              lr: float, weight_decay: float, rng: RngStream, epochs: int):
    """SGD on a zero-initialized linear head's softmax cross-entropy; returns (w, b).

    Each epoch visits the clips in `rng.split(f"e{epoch}")` order,
    `PROTOCOL_BATCH` at a time.  `rows(idx)` gives the batch's (B, dim)
    hidden vectors, recorded on the tape when they depend on `trainable`,
    which steps along with the head.  The head and its loss are one tape
    node, `T.linear_softmax_nll`.
    """
    w = T.parameter(np.zeros((dim, num_classes), dtype=np.float32))
    b = T.parameter(np.zeros(num_classes, dtype=np.float32))
    trainable = {**trainable, "head.w": w, "head.b": b}
    opt = OptimizerState(lr=lr, momentum=0.9, weight_decay=weight_decay)
    for epoch in range(epochs):
        order = rng.split(f"e{epoch}").permutation(len(y))
        for i in range(0, len(y), PROTOCOL_BATCH):
            idx = order[i : i + PROTOCOL_BATCH]
            with T.Tape():
                grads = T.backward(T.linear_softmax_nll(rows(idx), w, b, y[idx]))
            sgd_step(trainable, grads, opt)
    return w.data, b.data


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
    *,
    stream: str,
    epochs: int,
    lr: float,
    seed: int,
) -> ProbeResult:
    """Frozen-encoder evaluation: one affine layer on h, softmax CE.

    Checks (and reports) that encoder parameter bytes are untouched,
    raising `EncoderModified` otherwise.
    """
    _check_splits(train_seqs, val_seqs, "linear probe")
    y_train, y_val = _labels(train_seqs, "train"), _labels(val_seqs, "val")
    digest_before = params.digest()
    h_train = _features(params, train_seqs, stream, projected=False)
    h_val = _features(params, val_seqs, stream, projected=False)
    num_classes = int(max(y_train.max(), y_val.max())) + 1
    w, b = _fit_head(lambda idx: T.Tensor(h_train[idx]), h_train.shape[1], y_train, num_classes,
                     {}, lr, 0.0, RngStream(seed).split("linear_probe"), epochs)

    val_logits = h_val @ w + b
    accuracy = float((np.argmax(val_logits, axis=1) == y_val).mean())
    digest_after = params.digest()
    if digest_before != digest_after:
        raise EncoderModified("linear probe must not touch the encoder")
    return ProbeResult(accuracy, w, b, _softmax(val_logits), y_val, digest_before, digest_after)


def knn_probe(
    params: EncoderParams,
    train_seqs: list[SkeletonSequence],
    val_seqs: list[SkeletonSequence],
    *,
    stream: str,
    k: int,
) -> float:
    """Cosine k-nearest-neighbor majority vote on projected embeddings.

    Similarity ties go to the lower train index, vote ties to the smaller class.
    """
    _check_splits(train_seqs, val_seqs, "knn probe")
    if k > len(train_seqs):
        raise ConfigValueError("knn_k", f"k={k} exceeds the training split size {len(train_seqs)}")
    y_train, y_val = _labels(train_seqs, "train"), _labels(val_seqs, "val")
    z_train = _features(params, train_seqs, stream, projected=True)
    z_val = _features(params, val_seqs, stream, projected=True)
    nearest = np.argsort(-(z_val @ z_train.T), axis=1, kind="stable")[:, :k]
    votes = np.zeros((len(y_val), int(y_train.max()) + 1), dtype=np.int64)
    np.add.at(votes, (np.arange(len(y_val))[:, None], y_train[nearest]), 1)
    return np.count_nonzero(np.argmax(votes, axis=1) == y_val) / len(y_val)


def stratified_fraction(
    sequences: list[SkeletonSequence], fraction: float, rng: RngStream
) -> list[int]:
    """Class-stratified subset indices with a one-per-class floor."""
    if not 0 < fraction <= 1:
        raise ConfigValueError("fraction", f"must lie in (0, 1], got {fraction}")
    labels = _labels(sequences, "train")
    picked: list[int] = []
    gen = rng.generator()
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
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
    *,
    stream: str,
    fraction: float,
    epochs: int,
    lr: float,
    weight_decay: float,
    seed: int,
) -> FinetuneResult:
    """Jointly train a copy of the encoder plus a linear head.

    `fraction < 1` runs the semi-supervised protocol on a class-
    stratified labeled subset (at least one sample per class).
    """
    _check_splits(train_seqs, val_seqs, "finetuning")
    rng = RngStream(seed).split("finetune")
    subset = stratified_fraction(train_seqs, fraction, rng.split("subset"))
    y_val = _labels(val_seqs, "val")
    # the whole train split, not only the subset, must share one graph
    adjacency, x = _stream_batch(train_seqs, stream)
    x, y = x[subset], _labels(train_seqs, "train")[subset]
    num_classes = int(max(y.max(), y_val.max())) + 1

    tuned = params.copy()
    digest_before = tuned.digest()
    w, b = _fit_head(lambda idx: stgcn_forward(x[idx], adjacency, tuned, mode="train"),
                     tuned.config.enc_channels[-1], y, num_classes, tuned.trainable(), lr,
                     weight_decay, rng, epochs)

    h_val = _features(tuned, val_seqs, stream, projected=False)
    accuracy = float((np.argmax(h_val @ w + b, axis=1) == y_val).mean())
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
