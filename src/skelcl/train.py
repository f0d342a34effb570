"""Pretraining loop, SGD, stage schedule, and evaluation protocols.

Pretraining follows the momentum-contrast recipe per stream: stack the
batch's joints, augment the stack once per branch and derive every
stream from each view, encode both branches, combine the intra/inter
losses (mining from stage 2, extrapolation in stage 3), backprop into
the query encoders, momentum-mix the key encoders, then push the step's
key embeddings into each stream's queue.  Augmentation writes over the
array it is given, so the query branch augments a copy of the stack and
the key branch the stack itself; no clip's own array is written.
`skeleton.shared_graph` checks once, before the first step, that every
clip stacks with every other.  Everything stochastic is re-derived from
(seed, labels), so a resumed run replays the uninterrupted trajectory
bit for bit.  Settings live in `RunConfig` only; a `TrainState`, built
by `init_train_state` alone, holds arrays and counters, its `buffers`
the SGD momentum keyed "{stream}.{param}".

The protocols stack a split once (`skeleton.clip_batch`) and derive the
probed stream from that stack.  The linear probe and finetuning train
their linear head in `_fit_head`, around the head kernel
`T.linear_head`.  The probe's head reads frozen h, so its steps run off
the tape; finetuning's blocks step with the head, through one tape
node, `T.linear_softmax_nll`.  Labels must be nonnegative integers
(`InvalidLabel` otherwise).  Every setting a protocol takes is a
required keyword; `RunConfig` holds the defaults, and a value out of
the range `RunConfig` allows raises `ConfigValueError` naming its key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
from .skeleton import SkeletonSequence, clip_batch, shared_graph, stream_arrays
from .skeleton import derive_streams  # noqa: F401  (skelbench's tracer patches this name)

STAGE_NAMES = ("basic", "basic+nnm", "basic+nnm+pft")


def sgd_step(params: dict[str, T.Tensor], grads: dict[T.Tensor, T.Tensor],
             buffers: dict[str, np.ndarray], lr: float, momentum: float,
             weight_decay: float) -> None:
    """`_sgd_update` of every parameter in `params`.

    `grads` is `T.backward`'s map (a missing parameter has a zero gradient);
    `buffers[name]` is the momentum of `params[name]`, zero-filled by the
    caller before the first step.
    """
    for name, p in params.items():
        g = grads[p].data if p in grads else np.zeros_like(p.data)
        _sgd_update(name, p.data, g, buffers, lr, momentum, weight_decay)


def _sgd_update(name: str, theta: np.ndarray, g: np.ndarray, buffers: dict[str, np.ndarray],
                lr: float, momentum: float, weight_decay: float) -> None:
    """g' = g + wd*theta; buf = m*buf + g'; theta -= lr*buf, all in place,
    with buf = `buffers[name]`.

    A non-finite `g` raises `NonFiniteGradient` naming `name`.
    """
    if not np.isfinite(g).all():
        raise NonFiniteGradient(f"gradient for {name} is not finite")
    step = weight_decay * theta
    step += g
    buf = buffers[name]
    buf *= momentum
    buf += step
    theta -= lr * buf


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
    buffers: dict[str, np.ndarray]  # SGD momentum, keyed "{stream}.{param}", zero at init
    epoch: int = 0
    step: int = 0


QUEUE_FILL_ROWS = 256  # rows of a queue's random warm start drawn at a time


def init_train_state(config: RunConfig) -> TrainState:
    """Fresh encoders (key = copy of query), randomly prefilled queues and
    zero-filled SGD momentum for every query parameter.

    Queues start full of seeded random unit vectors, the usual
    momentum-contrast warm start; real keys displace them FIFO within
    the first capacity/batch steps.  Each fill is drawn and pushed
    `QUEUE_FILL_ROWS` rows at a time from one generator, which gives the
    rows of one (queue_size, embed_dim) draw without holding it.
    """
    root = RngStream(config.seed)
    pairs, queues = {}, {}
    for u in config.streams:
        pairs[u] = EncoderPair(init_params(config, root.split(f"init.{u}")))
        q = MemoryQueue(config.queue_size, config.embed_dim)
        gen = root.split(f"queue_init.{u}").generator()
        for start in range(0, config.queue_size, QUEUE_FILL_ROWS):
            fill = gen.normal(size=(min(QUEUE_FILL_ROWS, config.queue_size - start),
                                    config.embed_dim))
            fill /= np.linalg.norm(fill, axis=1, keepdims=True)
            q.push(fill.astype(np.float32))
        queues[u] = q
    buffers = {f"{u}.{name}": np.zeros_like(t.data)
               for u, pair in pairs.items() for name, t in pair.query.trainable().items()}
    return TrainState(config, pairs, queues, buffers)


def _augment_batch(joints, pipeline, rng, graph, stream_ids) -> dict[str, np.ndarray]:
    """Every stream of one augmented view of an (N, T, C, V) joint batch,
    augmented in place; the joint view is `joints` itself."""
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
    graph = shared_graph(dataset)  # checked once, so every step's batch stacks
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
        order = root.split(f"shuffle.e{epoch}").generator().permutation(n)

        for bi in range(math.ceil(n / config.batch_size)):
            indices = order[bi * config.batch_size : (bi + 1) * config.batch_size]
            embeddings: dict[str, tuple[T.Tensor, np.ndarray]] = {}
            joints = np.stack([dataset[i].data for i in indices])
            # the query branch augments a copy, then the key branch the stack itself
            views = {
                b: _augment_batch(joints.copy() if b == "q" else joints, p,
                                  root.split(f"aug.e{epoch}.b{bi}.{b}"), graph, config.streams)
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
                params = {f"{u}.{name}": t for name, t in pair.query.trainable().items()}
                sgd_step(params, grads, state.buffers, lr, config.sgd_momentum,
                         config.weight_decay)
                momentum_update(pair, config.key_momentum)
                state.queues[u].push(embeddings[u][1])

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
    `PROTOCOL_BATCH` at a time; `y` holds checked class indices below
    `num_classes`.  With `trainable` parameters, `rows(idx)` gives the
    batch's (B, dim) hidden vectors recorded on the tape, and a step is
    the tape node `T.linear_softmax_nll`, `T.backward` and `sgd_step` of
    the parameters and the head.  Without, `rows(idx)` gives frozen
    (B, dim) arrays, and a step calls the head kernel `T.linear_head`
    off the tape and updates the head's two arrays.  NumPy's overflow
    warnings are off in the loop: an overflow surfaces as a later
    `NonFiniteValue` or `NonFiniteGradient`, or, after the last step,
    as the `NonFiniteValue` the next step's loss would have raised.
    """
    w = T.parameter(np.zeros((dim, num_classes), dtype=np.float32))
    b = T.parameter(np.zeros(num_classes, dtype=np.float32))
    stepped = {**trainable, "head.w": w, "head.b": b}
    buffers = {name: np.zeros_like(t.data) for name, t in stepped.items()}
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs):
            order = rng.split(f"e{epoch}").generator().permutation(len(y))
            for i in range(0, len(y), PROTOCOL_BATCH):
                idx = order[i : i + PROTOCOL_BATCH]
                if trainable:
                    with T.Tape():
                        grads = T.backward(T.linear_softmax_nll(rows(idx), w, b, y[idx]))
                    sgd_step(stepped, grads, buffers, lr, 0.9, weight_decay)
                else:
                    loss, grads = T.linear_head(rows(idx), w.data, b.data, y[idx])
                    _, g_w, g_b = grads(np.ones_like(loss), (False, True, True))
                    for name, theta, g in (("head.w", w.data, g_w), ("head.b", b.data, g_b)):
                        _sgd_update(name, theta, g, buffers, lr, 0.9, weight_decay)
    # the last step's update can overflow, and no loss after it would see that
    broken = [name for name, t in stepped.items() if not np.isfinite(t.data).all()]
    if broken:
        raise NonFiniteValue(f"linear_softmax_nll produced NaN or Inf: the last step left "
                             f"{', '.join(broken)} non-finite", op="linear_softmax_nll")
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
    if epochs < 0:
        raise ConfigValueError("linear_epochs", f"must be nonnegative, got {epochs}")
    _check_splits(train_seqs, val_seqs, "linear probe")
    y_train, y_val = _labels(train_seqs, "train"), _labels(val_seqs, "val")
    digest_before = params.digest()
    h_train = _features(params, train_seqs, stream, projected=False)
    h_val = _features(params, val_seqs, stream, projected=False)
    num_classes = int(max(y_train.max(), y_val.max())) + 1
    w, b = _fit_head(lambda idx: h_train[idx], h_train.shape[1], y_train, num_classes,
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
    if k < 1:
        raise ConfigValueError("knn_k", f"must be positive, got {k}")
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
    """Jointly train a copy of the encoder's blocks plus a linear head.

    The head reads h, which the projector does not feed, so the projector
    is not stepped: it gets no gradient, and weight decay alone must not
    shrink it.  `FinetuneResult.params` keeps its values.

    `fraction < 1` runs the semi-supervised protocol on a class-
    stratified labeled subset (at least one sample per class).
    """
    if epochs < 0:
        raise ConfigValueError("finetune_epochs", f"must be nonnegative, got {epochs}")
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
    blocks = {name: t for name, t in tuned.trainable().items() if name.startswith("block")}
    w, b = _fit_head(lambda idx: stgcn_forward(x[idx], adjacency, tuned, mode="train"),
                     tuned.config.enc_channels[-1], y, num_classes, blocks, lr, weight_decay, rng,
                     epochs)

    h_val = _features(tuned, val_seqs, stream, projected=False)
    accuracy = float((np.argmax(h_val @ w + b, axis=1) == y_val).mean())
    return FinetuneResult(accuracy, tuned, digest_before, tuned.digest(), len(subset))


def fuse_predictions(
    scores: dict[str, np.ndarray], weights: dict[str, float]
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted sum of per-stream class scores; argmax ties pick class 0.

    Every stream of `scores` needs a positive weight, `ConfigValueError`
    ("fusion_weights") otherwise.
    """
    streams = list(scores)
    for s in streams:
        if not weights.get(s, 0.0) > 0:
            raise ConfigValueError("fusion_weights",
                                   f"stream {s!r} needs a positive weight, got {weights.get(s)}")
    shapes = {np.asarray(scores[s]).shape for s in streams}
    if len(shapes) != 1:
        raise LengthMismatch(f"score shapes differ: {shapes}")
    fused = None
    for s in streams:
        term = weights[s] * np.asarray(scores[s], dtype=np.float64)
        fused = term if fused is None else fused + term
    return fused, np.argmax(fused, axis=1)
