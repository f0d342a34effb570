"""Pretraining loop, SGD, stage schedule, and evaluation protocols.

Pretraining follows the momentum-contrast recipe per stream: stack the
batch's joints, augment the stack once per branch and derive every
stream from each view, encode both branches, combine the intra/inter
losses (mining from stage 2, extrapolation in stage 3), backprop into
the query encoders, momentum-mix the key encoders, then push the step's
key embeddings into each stream's queue.  Augmentation writes over the
array it is given; `branch_views` is the one place that picks the array,
a copy of the stack for the query branch and the stack itself for the
key branch, so no clip's own array is written.  Every SGD update checks
the array it wrote (`_sgd_update`), and a step that produces NaN or Inf
raises `NonFiniteLoss` naming the op, step, stage, lr and the stream
whose encoder pass or update did.  `skeleton.shared_graph` checks once,
before the first step, that every clip stacks with every other.
Everything stochastic is re-derived from (seed, labels), so a resumed
run replays the uninterrupted trajectory bit for bit.  Settings live in
`RunConfig` only; a `TrainState`, built by `init_train_state` alone,
holds arrays and counters, its `buffers` the SGD momentum keyed
"{stream}.{param}".

The protocols stack a split once (`skeleton.clip_batch`) and derive the
probed stream from that stack.  Their eval-mode features come from
`eval_features`, whose passes are sized by one byte budget,
`FEATURE_BYTES`, on the full-batch block activations a pass holds, not
by a clip count: each call has a fixed cost, so a pass takes as many
clips as the budget allows (a one-block encoder, whose only block
pools, encodes a split in one call), while at wide channels the budget
still bounds memory.  The linear probe and finetuning train their
linear head in `_fit_head`, around the head kernel `T.linear_head`.
The probe's head reads frozen h, so its steps run off the tape;
finetuning's blocks step with the head, through one tape node,
`T.linear_softmax_nll`.  Labels must be nonnegative integers
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
from .contrast import EncoderPair, MemoryQueue, combine_losses, momentum_update, nnm_mine
from .encoder import EncoderParams, init_params, project, stgcn_forward
from .errors import (
    ConfigValueError,
    EmptyTrainSplit,
    EmptyValSplit,
    EncoderModified,
    InvalidLabel,
    LengthMismatch,
    NonFiniteLoss,
    NonFiniteValue,
    UnlabeledClip,
)
from .rng import RngStream
from .skeleton import SkeletonSequence, clip_batch, shared_graph, stratified_pick, stream_arrays
from .skeleton import derive_streams  # noqa: F401  (skelbench's tracer patches this name)

STAGE_NAMES = ("basic", "basic+nnm", "basic+nnm+pft")


def sgd_step(params: dict[str, T.Tensor], grads: dict[T.Tensor, T.Tensor],
             buffers: dict[str, np.ndarray], lr: float, momentum: float,
             weight_decay: float) -> None:
    """`_sgd_update` of every parameter in `params`, with NumPy's overflow
    warnings off: the update's own check reports an overflow.

    `grads` is `T.backward`'s map (a missing parameter has a zero gradient);
    `buffers[name]` is the momentum of `params[name]`, zero-filled by the
    caller before the first step.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        for name, p in params.items():
            g = grads[p].data if p in grads else np.zeros_like(p.data)
            _sgd_update(name, p.data, g, buffers, lr, momentum, weight_decay)


def _sgd_update(name: str, theta: np.ndarray, g: np.ndarray, buffers: dict[str, np.ndarray],
                lr: float, momentum: float, weight_decay: float) -> None:
    """g' = g + wd*theta; buf = m*buf + g'; theta -= lr*buf, all in place,
    with buf = `buffers[name]`.

    A `theta` the update leaves non-finite, from a non-finite `g` or an
    overflow, raises `NonFiniteValue` (op "sgd_step") naming `name`.
    """
    step = weight_decay * theta
    step += g
    buf = buffers[name]
    buf *= momentum
    buf += step
    theta -= lr * buf
    if not np.isfinite(theta).all():
        raise NonFiniteValue(f"sgd_step left {name} non-finite", op="sgd_step")


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


def branch_views(joints: np.ndarray, config: RunConfig, rngs, graph,
                 streams) -> dict[str, dict[str, np.ndarray]]:
    """Branch ("q", "k") -> every stream of its view of an (N, T, C, V)
    joint batch, augmented by the branch's family with the stream
    `rngs(branch)`.

    The query branch augments a copy, then the key branch `joints` itself.
    """
    return {
        b: _augment_batch(joints.copy() if b == "q" else joints, AugmentPipeline(family, config),
                          rngs(b), graph, streams)
        for b, family in (("q", config.query_family), ("k", config.key_family))
    }


def pretrain(
    dataset: list[SkeletonSequence],
    config: RunConfig,
    state: TrainState | None = None,
    on_stage_end=None,
) -> tuple[TrainState, list[dict]]:
    """Run the three-stage schedule; returns final state and metric records.

    `state` resumes a checkpointed run from its epoch cursor.  The first
    record is a header with the materialized config and its hash;
    `on_stage_end(state, stage_index)` fires at each stage boundary with
    the live state, which training goes on to update in place: a
    callback that keeps a `state_to_checkpoint` of it (which shares its
    arrays) must save or copy it before returning.
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
            views = branch_views(joints, config, lambda b: root.split(f"aug.e{epoch}.b{bi}.{b}"),
                                 graph, config.streams)
            phase = "encoder pass"  # what runs for `stream` when a value turns non-finite
            try:
                with T.Tape():
                    for stream in config.streams:
                        pair = state.pairs[stream]
                        xq, xk = views["q"][stream], views["k"][stream]
                        hq = stgcn_forward(xq, adjacency, pair.query, mode="train")
                        zq = project(hq, pair.query)
                        with T.no_tape():
                            hk = stgcn_forward(
                                xk, adjacency, pair.key, mode="train", update_stats=False
                            )
                            zk = project(hk, pair.key).data
                        embeddings[stream] = (zq, zk)
                    stream = None
                    result = combine_losses(
                        embeddings, state.queues, config, nnm, pft, root.split(f"pft.e{epoch}.b{bi}")
                    )
                    grads = T.backward(result.total)
                phase = "update"
                for stream in config.streams:
                    pair = state.pairs[stream]
                    params = {f"{stream}.{name}": t for name, t in pair.query.trainable().items()}
                    sgd_step(params, grads, state.buffers, lr, config.sgd_momentum,
                             config.weight_decay)
                    momentum_update(pair, config.key_momentum)
                    state.queues[stream].push(embeddings[stream][1])
            except NonFiniteValue as err:
                where = f" in the {stream} {phase}" if stream else ""
                raise NonFiniteLoss(
                    f"non-finite value at epoch {epoch} step {state.step}{where}: {err}; "
                    f"stage={STAGE_NAMES[stage]} lr={lr}",
                    op=err.op, epoch=epoch, step=state.step, stage=STAGE_NAMES[stage],
                    stream=stream,
                ) from err

            record = {
                "step": state.step,
                "epoch": epoch,
                "stage": STAGE_NAMES[stage],
                "loss_total": result.total.item(),
                "lr": lr,
                **result.breakdown,
            }
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


FEATURE_BYTES = 8 * 2**20  # full-batch activation bytes one eval-mode pass may hold
PROTOCOL_BATCH = 32  # clips per SGD step of the linear probe and finetuning


def _stream_batch(sequences: list[SkeletonSequence], stream: str) -> tuple[np.ndarray, np.ndarray]:
    """The clips' normalized adjacency and their (N, T, C, V) `stream` array."""
    graph, joints = clip_batch(sequences)
    return graph.normalized_adjacency(np.float32), stream_arrays(joints, graph, (stream,))[stream]


def eval_features(x: np.ndarray, adjacency: np.ndarray, params: EncoderParams,
                  projected: bool) -> np.ndarray:
    """Eval-mode hidden vectors h, or projected embeddings z, one row per
    clip of an (N, T, C, V) batch, encoded off the tape.

    A pass holds the full-batch output of every block but the last, which
    pools: T·V·itemsize·ΣC_i bytes per clip over those blocks.  Each pass
    takes max(2, `FEATURE_BYTES` // that) clips, and all N when it is 0
    (a one-block encoder), split by the rule of `tensor.pieces`, so the
    per-call cost is paid once per budget, not once per fixed clip
    count, and memory stays bounded at wide channels.
    A clip's rows do not depend on the other clips in its pass, so they
    are the same at any pass size of two or more.  A one-clip pass is
    the exception: NumPy's matmul takes a GEMV path for the projector's
    one-row product, whose z rounds differently, so no pass of a batch
    of two or more clips has one clip.
    """
    itemsize = np.result_type(x, params["block0.spatial_weight"].data).itemsize
    per_clip = x.shape[1] * x.shape[3] * itemsize * sum(params.config.enc_channels[:-1])
    n = len(x)
    outs = []
    with T.no_tape():
        for piece in T.pieces(n, max(2, FEATURE_BYTES // per_clip) if per_clip else n):
            h = stgcn_forward(x[piece], adjacency, params, mode="eval")
            outs.append((project(h, params) if projected else h).data)
    return np.concatenate(outs)


def _features(
    params: EncoderParams, sequences: list[SkeletonSequence], stream: str, projected: bool
) -> np.ndarray:
    """Eval-mode hidden vectors h, or projected embeddings z, one row per
    clip, from `eval_features`: as many clips per pass as `FEATURE_BYTES`
    of activations allow, which trades the per-call cost of many small
    passes against bounded memory at real channel widths."""
    adjacency, x = _stream_batch(sequences, stream)
    return eval_features(x, adjacency, params, projected)


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
    warnings are off in the loop: an update that leaves an array
    non-finite, the last one's included, names it (`_sgd_update`).
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
    return w.data, b.data


def _val_logits(h_val: np.ndarray, w: np.ndarray, b: np.ndarray, protocol: str) -> np.ndarray:
    """The fitted head's logits h_val @ w + b; logits that are not finite
    raise `NonFiniteValue` with `protocol` as the op, in place of NumPy's
    overflow warnings."""
    with np.errstate(over="ignore", invalid="ignore"):
        logits = h_val @ w + b
    if not np.isfinite(logits).all():
        raise NonFiniteValue(f"{protocol} validation logits are not finite", op=protocol)
    return logits


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
    if not lr > 0:
        raise ConfigValueError("linear_lr", f"must be positive, got {lr}")
    _check_splits(train_seqs, val_seqs, "linear probe")
    y_train, y_val = _labels(train_seqs, "train"), _labels(val_seqs, "val")
    digest_before = params.digest()
    h_train = _features(params, train_seqs, stream, projected=False)
    h_val = _features(params, val_seqs, stream, projected=False)
    num_classes = int(max(y_train.max(), y_val.max())) + 1
    w, b = _fit_head(lambda idx: h_train[idx], h_train.shape[1], y_train, num_classes,
                     {}, lr, 0.0, RngStream(seed).split("linear_probe"), epochs)

    val_logits = _val_logits(h_val, w, b, "linear_probe")
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

    Each val clip's k neighbours are the k largest entries of its row of
    z_val @ z_train.T, picked by `contrast.nnm_mine`, the package's one
    stable top-k: similarity ties go to the lower train index.  Vote ties
    go to the smaller class.
    """
    _check_splits(train_seqs, val_seqs, "knn probe")
    if k < 1:
        raise ConfigValueError("knn_k", f"must be positive, got {k}")
    if k > len(train_seqs):
        raise ConfigValueError("knn_k", f"k={k} exceeds the training split size {len(train_seqs)}")
    y_train, y_val = _labels(train_seqs, "train"), _labels(val_seqs, "val")
    z_train = _features(params, train_seqs, stream, projected=True)
    z_val = _features(params, val_seqs, stream, projected=True)
    nearest, _ = nnm_mine(z_val @ z_train.T, k)
    votes = np.zeros((len(y_val), int(y_train.max()) + 1), dtype=np.int64)
    np.add.at(votes, (np.arange(len(y_val))[:, None], y_train[nearest]), 1)
    return np.count_nonzero(np.argmax(votes, axis=1) == y_val) / len(y_val)


def stratified_fraction(
    sequences: list[SkeletonSequence], fraction: float, rng: RngStream
) -> list[int]:
    """Class-stratified subset indices with a one-per-class floor."""
    if not 0 < fraction <= 1:
        raise ConfigValueError("fraction", f"must lie in (0, 1], got {fraction}")
    return stratified_pick(_labels(sequences, "train"), fraction, rng.generator(), floor=1)


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
    if not lr > 0:
        raise ConfigValueError("finetune_lr", f"must be positive, got {lr}")
    if not weight_decay >= 0:
        raise ConfigValueError("weight_decay", f"must be nonnegative, got {weight_decay}")
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
    accuracy = float((np.argmax(_val_logits(h_val, w, b, "finetune"), axis=1) == y_val).mean())
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
