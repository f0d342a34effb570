"""Contrastive machinery: momentum pair, memory queues, losses, extrapolation.

The loss family is masked-softmax InfoNCE over a positive pair plus a
FIFO queue of past key embeddings.  `queue_nll` scores stacks of
queries, given as blocks, each group against its own negatives read in
place, as one tape node whose value is the step total, and
`combine_losses` scores every intra- and inter-stream term of a step in
one `queue_nll` call.  Neighbor mining enlarges a row's numerator with
the most similar queue entries (`nnm_mine`).  The hard-positive
extrapolation (PFT) replaces a positive pair with a lower-similarity
synthetic pair, guarded so the pair's similarity never turns negative,
with weights from `pft_lambdas`; its query side is one closed-form tape
node (`pft_transform`).  So the loss of a pretraining step records one
node per PFT term and one `queue_nll` node, and no generic op.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import RunConfig
from .encoder import EncoderParams
from .errors import (BatchTooLarge, ConfigValueError, EmptyQueue, InvalidArgument, NonFiniteValue,
                     QueueTooSmall, ShapeMismatch)
from .rng import RngStream


def check_unit_rows(rows: np.ndarray, what: str, unit_rows: int | None = None,
                    errors=(NonFiniteValue, InvalidArgument)) -> None:
    """Raise `errors[0]` if an entry of `rows` is not finite and `errors[1]` if
    one of its first `unit_rows` rows (all by default) is off unit norm; one
    pass over `rows`, so a finite entry too large to square reads as infinite."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(rows, axis=1)
    if not np.isfinite(norms).all():  # NaN fails every comparison, so check it first
        raise errors[0](f"{what} must be finite")
    if np.any(np.abs(norms[:unit_rows] - 1.0) > 1e-3):
        raise errors[1](f"{what} must be unit-norm")


class MemoryQueue:
    """FIFO ring of unit-norm negative embeddings, one per stream.

    The ring fills from row 0, so `slots[:filled]` holds every stored
    embedding (in slot order; `head` is the next slot overwritten), which
    is what the loss reads, in place.
    """

    def __init__(self, capacity: int, dim: int, dtype=np.float32):
        if capacity < 1:
            raise ConfigValueError("queue_size", f"must be positive, got {capacity}")
        self.capacity = capacity
        self.dim = dim
        self.slots = np.zeros((capacity, dim), dtype=dtype)
        self.head = 0
        self.filled = 0

    def push(self, batch: np.ndarray) -> None:
        batch = np.asarray(batch)
        if batch.ndim != 2 or batch.shape[1] != self.dim:
            raise ShapeMismatch(f"expected (*, {self.dim}) embeddings")
        n = batch.shape[0]
        if n > self.capacity:
            raise BatchTooLarge(f"batch {n} exceeds capacity {self.capacity}")
        check_unit_rows(batch, "queue entries")
        idx = (self.head + np.arange(n)) % self.capacity
        self.slots[idx] = batch.astype(self.slots.dtype, copy=False)
        self.head = int((self.head + n) % self.capacity)
        self.filled = min(self.capacity, self.filled + n)

    def contents(self) -> np.ndarray:
        """Stored embeddings, oldest first, as a new (filled, dim) array."""
        if self.filled < self.capacity:
            parts = (self.slots[: self.filled],)
        else:
            parts = (self.slots[self.head :], self.slots[: self.head])
        return np.concatenate(parts)


class EncoderPair:
    """Gradient-trained query parameters plus momentum-tracked key copy."""

    def __init__(self, query: EncoderParams):
        self.query = query
        self.key = query.copy()


def momentum_update(pair: EncoderPair, m: float) -> None:
    """key <- m * key + (1 - m) * query in place, every named tensor including stats."""
    for name, q in pair.query.tensors.items():
        k = pair.key.tensors[name].data
        k *= m
        k += (1.0 - m) * q.data


# -- losses ----------------------------------------------------------------------


def _as_const(v) -> np.ndarray:
    return v.data if isinstance(v, T.Tensor) else np.asarray(v)


def queue_nll(queries, zk, negatives, tau: float, divisor: float, mine=None, k: int = 1):
    """Masked InfoNCE over any leading group axes, summed over its rows and
    divided by `divisor`; one tape node.

    `queries` is a sequence of query tensors (blocks) whose concatenation
    along axis 0, reshaped to the shape of `zk`, is the (..., B, D) query
    stack zq (blocks that do not concatenate raise NumPy's ValueError);
    `zk` holds the matching (..., B, D) keys and `negatives` is a
    sequence of (Q, D) arrays, one per group in the C order of the
    leading axes (one for (B, D) keys), each read in place.  Row i's
    numerator holds its positive pair (zq[i], zk[i]); the denominator
    holds the positive and every negative of its group.  The optional
    (..., B) boolean `mine` marks the rows that mine neighbours: each
    adds its `k` most similar negatives of its group to its numerator
    (`nnm_mine`).  Returns (total, rows, neighbors): the scalar tensor
    rows.sum() / divisor, the (..., B) array of per-row losses, and
    `nnm_mine`'s (indices, similarities) pair for the marked rows in C
    order, or None without `mine`.  Gradient flows into the query blocks
    only: the backward splits the stack's gradient back into them.

    A row's loss sums over its negatives, so their order changes only its
    rounding.  Neighbour indices are rows of the group's array, and of
    equally similar negatives the one in the lower row is mined first.

    The groups run one at a time through one reused (B, 1+Q) logit slab,
    and a call that records forms the group's query gradient while its
    slab is live, so the node holds only the (..., B, D) gradient.  Mining
    rows select their neighbours from the slab's similarities before the
    division by `tau`, which could round distinct similarities into ties.
    Each row meets the NumPy ops of one (..., B, 1+Q) buffer over the
    stacked negatives reduced by `sum_` and `div` nodes, in the same
    order, so the results, and each block's gradient, are bit-identical
    to that chain's fed by `concat` and `reshape` nodes.
    """
    blocks = tuple(T.as_tensor(t) for t in queries)
    keys = _as_const(zk)
    if keys.ndim < 2 or sum(t.size for t in blocks) != keys.size:
        raise ShapeMismatch(f"query blocks {[t.shape for t in blocks]}, keys {keys.shape}")
    q = np.concatenate([t.data for t in blocks])
    keys = keys.astype(q.dtype, copy=False)
    stack, offsets = keys.shape, np.cumsum([len(t.data) for t in blocks])[:-1]
    batch, dim = stack[-2:]
    shapes = [np.shape(group) for group in negatives]  # one (Q, D) each, Q shared
    if len(shapes) != math.prod(stack[:-2]) or any(s != (*shapes[0][:1], dim) for s in shapes):
        raise ShapeMismatch(f"queries {stack} need one (Q, {dim}) negatives array per group, "
                            f"got shapes {shapes}")
    size = shapes[0][0]
    if size == 0:
        raise EmptyQueue("no negatives stored yet")
    if mine is not None:
        mine = np.asarray(mine, dtype=bool)
        if mine.shape != stack[:-1]:
            raise ShapeMismatch(f"mine {mine.shape} vs queries {stack}")
        mine = mine.reshape(-1, batch)
    q, keys = q.reshape(-1, batch, dim), keys.reshape(-1, batch, dim)
    divisor = np.asarray(divisor, dtype=q.dtype)
    rows = np.empty(q.shape[:2], dtype=q.dtype)
    slab = np.empty((batch, 1 + size), dtype=q.dtype)
    dq = row_grad = None
    if T._recording(blocks) is not None:
        dq = np.empty(q.shape, dtype=q.dtype)
        # the weight `div` fed back to each row through `sum_`, then / tau
        row_grad = np.full(batch, np.ones((), q.dtype) / divisor, dtype=q.dtype) / tau
    found = []
    for i, group in enumerate(negatives):
        group = np.asarray(group, dtype=q.dtype)  # a view unless the dtypes differ
        slab[:, 0] = (q[i] * keys[i]).sum(axis=-1)
        sims = slab[:, 1:]
        np.matmul(q[i], group.T, out=sims)
        picks = None
        if mine is not None:
            (mined,) = np.nonzero(mine[i])
            found.append(nnm_mine(sims[mined], k))
            picks = ((mined,), found[-1][0] + 1)  # slab columns of the neighbours
        slab /= tau
        rows[i], grad = T._softmax_nll_rows(slab, lead=1, picks=picks)
        if dq is not None:
            dlogits = grad(row_grad)
            np.multiply(dlogits[:, :1], keys[i], out=dq[i])
            dq[i] += dlogits[:, 1:] @ group
    rows = rows.reshape(stack[:-1])
    neighbors = None
    if mine is not None:
        neighbors = tuple(np.concatenate(part) for part in zip(*found))

    def bwd(g, needs):
        pieces = np.split((dq if g == 1 else dq * g).reshape(-1, *blocks[0].shape[1:]), offsets)
        return tuple(piece if need else None for piece, need in zip(pieces, needs))

    return T._apply(rows.sum() / divisor, blocks, bwd), rows, neighbors


def nnm_mine(sims: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row of an (R, Q) similarity array, its k largest entries.

    Returns (indices, similarities), both (R, k), each row ordered by
    descending similarity with ties to the lower index: the order a
    stable sort of -sims gives.  The selection is k rounds of argmax,
    which returns a row's first maximum, with each pick but the last
    masked to -inf for the next round and restored afterwards, so `sims`
    holds its values again on return.  Its callers are neighbor mining
    (k = `nnm_topk`) and the kNN probe (k = `knn_k`).  The probe checks
    its k before the call, so the errors below, which name `nnm_topk`
    and the queue, come from mining alone.

    That is O(kQ) per row, against O(Q log Q) for a full stable sort.
    Measured with one BLAS thread, it beats the sort about 40x at k = 5
    on (283, 850) rows and 3-5x on (50, 150) rows; it still wins at
    k = 20 for Q = 150 and at k = 50 for Q = 850, and loses at k = 50
    for Q = 150; at k = Q it is 3-6x slower.
    """
    if k < 1:
        raise ConfigValueError("nnm_topk", f"must be positive, got {k}")
    if sims.shape[1] < k:
        raise QueueTooSmall(f"queue holds {sims.shape[1]} < k={k}")
    rows = np.arange(sims.shape[0])
    indices = np.empty((sims.shape[0], k), dtype=np.intp)
    values = np.empty((sims.shape[0], k), dtype=sims.dtype)
    for j in range(k):
        if j:
            sims[rows, indices[:, j - 1]] = -np.inf
        indices[:, j] = np.argmax(sims, axis=1)
        values[:, j] = sims[rows, indices[:, j]]
    sims[rows[:, None], indices[:, :-1]] = values[:, :-1]
    T.record_kink(indices)
    return indices, values


# -- hard-positive extrapolation ----------------------------------------------------


def pft_lambdas(gen: np.random.Generator, config: RunConfig, size=None):
    """PFT's extrapolation weights from `gen`: Beta(alpha, alpha) * mu + 1,
    with the config's `pft_alpha` and `pft_mu`."""
    return gen.beta(config.pft_alpha, config.pft_alpha, size) * config.pft_mu + 1.0


def predicted_similarity(s, lam):
    """Closed form for the raw dot product of the extrapolated pair."""
    return 2.0 * lam * (1.0 - lam) * (1.0 - s) + s


def pft_transform(zq, zk, lam):
    """Extrapolate each positive pair away from each other.

    `zq` is a (B, D) query tensor, `zk` a (B, D) key array and `lam` the
    (B,) extrapolation weights, each >= 1.  Returns (zq_eff, zk_eff,
    applied): row i of zq_eff is the unit row of lam zq + (1 - lam) zk
    and of zk_eff that of lam zk + (1 - lam) zq, except that rows keep
    their originals (applied False) whenever the pair's similarity is
    already negative or the predicted post-transform similarity would
    turn negative.

    The query side is one tape node in closed form.  Its forward makes
    the NumPy calls of the mul, add, `l2_normalize` and where chain in
    that order, so its rows are bit for bit that chain's, and the mix's
    row norms get `l2_normalize`'s check (`T._row_norms`: a mix that is
    not finite or has a zero row raises, op "l2_normalize").  Its
    backward passes an applied row lam (g - z <g, z>) / |v|
    (`T._unit_row_grad`, with z the unit row of the mix v) and any other
    row g unchanged.  The key side is a constant, computed in NumPy.
    """
    zq = T.as_tensor(zq)
    zk = _as_const(zk).astype(zq.dtype)
    lam = np.asarray(lam).astype(zq.dtype)
    s = (zq.data * zk).sum(axis=1)
    applied = (s >= 0.0) & (predicted_similarity(s, lam) >= 0.0)
    T.record_kink(applied)
    lam_col, keep = lam[:, None], applied[:, None]
    mixed_q = zq.data * lam_col + (1.0 - lam_col) * zk
    norms = T._row_norms(mixed_q)
    unit = mixed_q / norms

    def bwd(g, needs):
        return (np.where(keep, lam_col * T._unit_row_grad(g, unit, norms), g),)

    zq_eff = T._apply(np.where(keep, unit, zq.data), (zq,), bwd, check=False)
    mixed_k = lam_col * zk + (1.0 - lam_col) * zq.data
    mixed_k /= np.linalg.norm(mixed_k, axis=1, keepdims=True)
    return zq_eff, np.where(keep, mixed_k, zk), applied


@dataclass
class HistogramTable:
    """Aligned before/after similarity histograms over [-1, 1]."""

    edges: np.ndarray
    before_counts: np.ndarray
    after_counts: np.ndarray
    before_stats: dict[str, float]
    after_stats: dict[str, float]


def similarity_histogram(before, after, bins: int = 20) -> HistogramTable:
    before = np.asarray(before, dtype=np.float64)
    after = np.asarray(after, dtype=np.float64)
    if before.size == 0 or after.size == 0:
        raise InvalidArgument("need at least one pair")
    edges = np.linspace(-1.0, 1.0, bins + 1)
    b_counts, _ = np.histogram(np.clip(before, -1, 1), edges)
    a_counts, _ = np.histogram(np.clip(after, -1, 1), edges)

    def stats(x):
        return {"mean": float(x.mean()), "var": float(x.var()), "min": float(x.min())}

    return HistogramTable(edges, b_counts, a_counts, stats(before), stats(after))


# -- combined objective ----------------------------------------------------------------


@dataclass
class CombineResult:
    total: T.Tensor
    breakdown: dict[str, float]
    pft_applied_rate: float | None = None
    nnm_mean_similarity: float | None = None


def combine_losses(
    stream_embeddings: dict[str, tuple[T.Tensor, np.ndarray]],
    queues: dict[str, MemoryQueue],
    config: RunConfig,
    nnm: bool,
    pft: bool,
    rng: RngStream,
) -> CombineResult:
    """Total loss over all intra terms and directed inter terms.

    `stream_embeddings[u] = (zq, zk)` with zq a (B, D) gradient-bearing
    tensor and zk a gradient-free (B, D) array.  With |S| streams the
    result holds |S| intra terms plus |S|(|S|-1) inter terms (u's
    queries against v's keys and queue), each reported as its batch mean
    in the breakdown.  Mining (`nnm`, the config's top-k) applies to
    intra terms only; the extrapolation (`pft`, weights `pft_lambdas`
    drawn from `rng`) applies to intra pairs and, if configured, to
    inter pairs as well, each term's queries through one `pft_transform`
    node.  The one `queue_nll` call takes the terms' (B, D) query
    tensors as its blocks, group by group, so no `concat` or `reshape`
    node stacks them: group v holds every stream's queries against v's
    keys and queue, whose live rows it reads in place, so no queue is
    copied.  The total is that call's node (the rows' sum divided by the
    batch size): it works through one group's logit slab at a time,
    keeps only the query gradient for the backward, and is bit-identical
    to the per-row losses reduced by `sum_` and `div` nodes.
    """
    streams = config.streams
    missing = set(streams) - set(stream_embeddings)
    if missing:
        raise ShapeMismatch(f"missing stream embeddings: {sorted(missing)}")
    shapes = [(queues[v].filled, queues[v].dim) for v in streams]
    if len(set(shapes)) > 1:
        raise ShapeMismatch(f"queues hold {[size for size, _ in shapes]} entries")
    n, batch = len(streams), stream_embeddings[streams[0]][0].shape[0]

    queries, keys, applied_masks = [], [], []
    for v in streams:
        for u in streams:
            zq, zk = stream_embeddings[u][0], _as_const(stream_embeddings[v][1])
            if pft and (u == v or config.pft_apply_to_inter):
                gen = rng.split(f"lambda.{u}" if u == v else f"lambda.{u}->{v}").generator()
                zq, zk, applied = pft_transform(zq, zk, pft_lambdas(gen, config, batch))
                applied_masks.append(applied)
            queries.append(zq)
            keys.append(zk)

    negatives = [queues[v].slots[: queues[v].filled] for v in streams]  # in place, slot order
    mine = np.repeat(np.eye(n, dtype=bool), batch, axis=1) if nnm else None  # the intra rows
    total, losses, neighbors = queue_nll(
        queries, np.concatenate(keys).reshape(n, n * batch, -1), negatives, config.tau, batch,
        mine, config.nnm_topk,
    )
    per_term = losses.reshape(n, n, batch).mean(axis=2)  # [v, u]
    breakdown = {f"intra:{u}": float(per_term[i, i]) for i, u in enumerate(streams)}
    for i, u in enumerate(streams):
        for g, v in enumerate(streams):
            if g != i:
                breakdown[f"inter:{u}->{v}"] = float(per_term[g, i])

    rate = float(np.concatenate(applied_masks).mean()) if pft else None
    mined_mean = float(neighbors[1].mean()) if nnm else None
    return CombineResult(total, breakdown, rate, mined_mean)
