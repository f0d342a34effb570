"""Contrastive machinery: momentum pair, memory queues, losses, extrapolation.

The loss family is masked-softmax InfoNCE over a positive pair plus a
FIFO queue of past key embeddings.  `queue_nll` scores stacks of
queries against stacks of queue snapshots as one tape node over one
(..., B, 1+Q) logit buffer, which its forward fills and exponentiates
in place and its closed-form backward reuses; the row softmax-NLL
itself is `tensor._softmax_nll_rows`, shared with the probes.
`combine_losses` scores every intra- and inter-stream term of a step in
one `queue_nll` call.  Neighbor mining enlarges a row's numerator with
the most similar queue entries; the kernel selects them (`nnm_mine`)
from the similarities its one matmul wrote into the logit buffer, so
mining needs no GEMM of its own.  The hard-positive extrapolation
replaces a positive pair with a lower-similarity synthetic pair
(guarded so the pair's similarity never turns negative).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import RunConfig
from .encoder import EncoderParams
from .errors import BatchTooLarge, EmptyQueue, NonFiniteValue, QueueTooSmall, ShapeMismatch
from .rng import RngStream


class MemoryQueue:
    """FIFO ring of unit-norm negative embeddings, one per stream."""

    def __init__(self, capacity: int, dim: int, dtype=np.float32):
        if capacity < 1:
            raise ValueError("capacity must be positive")
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
        norms = np.linalg.norm(batch, axis=1)
        if not np.isfinite(norms).all():  # NaN fails every comparison, so check it first
            raise NonFiniteValue("queue entries must be finite")
        if np.any(np.abs(norms - 1.0) > 1e-3):
            raise ValueError("queue entries must be unit-norm")
        idx = (self.head + np.arange(n)) % self.capacity
        self.slots[idx] = batch.astype(self.slots.dtype)
        self.head = int((self.head + n) % self.capacity)
        self.filled = min(self.capacity, self.filled + n)

    def contents(self) -> np.ndarray:
        """Stored embeddings, oldest first."""
        if self.filled < self.capacity:
            return self.slots[: self.filled].copy()
        return np.concatenate([self.slots[self.head :], self.slots[: self.head]])


class EncoderPair:
    """Gradient-trained query parameters plus momentum-tracked key copy."""

    def __init__(self, query: EncoderParams, momentum: float):
        self.query = query
        self.key = query.copy()
        self.momentum = momentum


def momentum_update(pair: EncoderPair) -> None:
    """key <- m * key + (1 - m) * query, every named tensor including stats."""
    m = pair.momentum
    for name, q in pair.query.tensors.items():
        k = pair.key.tensors[name]
        k.data[...] = m * k.data + (1.0 - m) * q.data


# -- losses ----------------------------------------------------------------------


def _as_const(v) -> np.ndarray:
    return v.data if isinstance(v, T.Tensor) else np.asarray(v)


def queue_nll(zq, zk, negatives: np.ndarray, tau: float, mine=None, k: int = 1):
    """Per-row masked InfoNCE over any leading group axes; one tape node.

    `zq` is a (..., B, D) query stack, `zk` the matching (..., B, D)
    keys and `negatives` a (..., Q, D) stack of queue snapshots
    (`MemoryQueue.contents()`), one per group.  Row i's numerator holds
    its positive pair (zq[i], zk[i]); the denominator holds the positive
    and every negative of its group.  The optional (..., B) boolean
    `mine` marks the rows that mine neighbours: each adds its `k` most
    similar negatives of its group to its numerator (`nnm_mine`).
    Returns (losses, neighbors): the (..., B) loss tensor, and
    `nnm_mine`'s (indices, similarities) pair for the marked rows in
    C order, or None without `mine`.  Gradient flows into `zq` only.

    The logits live in one (..., B, 1+Q) buffer: column 0 holds the
    positive logit and the matmul writes zq @ negativesᵀ straight into
    columns 1:.  The mining rows select their neighbours from those
    similarities before the division by `tau` (which could round
    distinct similarities into ties), so one GEMM feeds both the mining
    and the logits; their columns reach `tensor._softmax_nll_rows` as
    index picks, so the numerator gathers only the k picked entries per
    mining row.  The division, the row-max shift and the exp() then
    happen in place.  The backward overwrites that buffer with
    dlogits / tau and contracts it back onto the keys and the queue:
    dzq = dlogits[..., :1] * zk + dlogits[..., 1:] @ negatives.
    """
    if negatives.shape[-2] == 0:
        raise EmptyQueue("no negatives stored yet")
    zq = T.as_tensor(zq)
    q = zq.data
    keys = _as_const(zk).astype(q.dtype, copy=False)
    negatives = negatives.astype(q.dtype, copy=False)
    stack = q.shape[:-2] + (negatives.shape[-2], q.shape[-1])  # one (Q, D) snapshot per group
    if q.ndim < 2 or keys.shape != q.shape or negatives.shape != stack:
        raise ShapeMismatch(f"queries {q.shape}, keys {keys.shape}, negatives {negatives.shape}")
    if mine is not None:
        mine = np.asarray(mine, dtype=bool)
        if mine.shape != q.shape[:-1]:
            raise ShapeMismatch(f"mine {mine.shape} vs queries {q.shape}")
    logits = np.empty(q.shape[:-1] + (1 + negatives.shape[-2],), dtype=q.dtype)
    logits[..., 0] = (q * keys).sum(axis=-1)
    sims = logits[..., 1:]
    np.matmul(q, np.swapaxes(negatives, -1, -2), out=sims)
    picks = neighbors = None
    if mine is not None:
        neighbors = nnm_mine(sims[mine], k)
        picks = (np.nonzero(mine), neighbors[0] + 1)  # buffer columns of the neighbours
    logits /= tau
    nll, grad = T._softmax_nll_rows(logits, lead=1, picks=picks)

    def bwd(g, needs):
        if not needs[0]:
            return (None,)
        dlogits = grad(g / tau)
        dq = dlogits[..., :1] * keys
        dq += dlogits[..., 1:] @ negatives
        return (dq,)

    return T._apply(nll, (zq,), bwd), neighbors


def nnm_mine(sims: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row of an (R, Q) similarity array, its k largest entries.

    Returns (indices, similarities), both (R, k), each row ordered by
    descending similarity with ties to the lower index: the order a
    stable sort of -sims gives.  The selection is exact: k rounds of
    argmax, which returns a row's first maximum, with each pick but the
    last masked to -inf for the next round and restored afterwards, so
    `sims` holds its values again on return.  That is O(kQ) per row: on
    uniform (128, 4096) float32 rows (one thread) it took 0.14 / 0.6 /
    6.1 / 15.6 ms at k = 1 / 5 / 64 / 128, against 3.8 / 3.9 / 7.2 /
    10.3 ms for an exact partition-and-sort selection, which overtakes
    it near k = 100.  Every caller mines k = 1.
    """
    if k < 1:
        raise ValueError("k must be positive")
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


def predicted_similarity(s, lam):
    """Closed form for the raw dot product of the extrapolated pair."""
    return 2.0 * lam * (1.0 - lam) * (1.0 - s) + s


def pft_transform(zq, zk, lam):
    """Extrapolate each positive pair away from each other.

    `zq` is a (B, D) query tensor, `zk` a (B, D) key array and `lam` the
    (B,) extrapolation weights, each >= 1.  Returns (zq_eff, zk_eff,
    applied): rows keep their originals (applied False) whenever the
    pair's similarity is already negative or the predicted
    post-transform similarity would turn negative.  Gradient flows
    through the query-side extrapolation only; the key side stays
    constant.
    """
    zq = T.as_tensor(zq)
    zk = _as_const(zk).astype(zq.dtype)
    lam = np.asarray(lam).astype(zq.dtype)
    s = (zq.data * zk).sum(axis=1)
    applied = (s >= 0.0) & (predicted_similarity(s, lam) >= 0.0)
    T.record_kink(applied)
    lam_col = lam[:, None]
    mixed_q = T.add(T.mul(zq, lam_col), T.Tensor((1.0 - lam_col) * zk))
    zq_eff = T.where(applied[:, None], T.l2_normalize(mixed_q), zq)
    mixed_k = lam_col * zk + (1.0 - lam_col) * zq.data
    mixed_k /= np.linalg.norm(mixed_k, axis=1, keepdims=True)
    return zq_eff, np.where(applied[:, None], mixed_k, zk), applied


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
        raise ValueError("need at least one pair")
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
    intra terms only; the extrapolation (`pft`, weights Beta(alpha,
    alpha) * mu + 1 drawn from `rng`) applies to intra pairs and, if
    configured, to inter pairs as well.  Group v of the one `queue_nll`
    call stacks every stream's queries against v's keys and queue.
    """
    streams = config.streams
    missing = set(streams) - set(stream_embeddings)
    if missing:
        raise ShapeMismatch(f"missing stream embeddings: {sorted(missing)}")
    snapshots = [queues[v].contents() for v in streams]
    if len({snap.shape for snap in snapshots}) > 1:
        raise ShapeMismatch(f"queues hold {[snap.shape[0] for snap in snapshots]} entries")
    negatives = np.stack(snapshots)  # (S, Q, D): one snapshot serves every term against it
    n, batch = len(streams), stream_embeddings[streams[0]][0].shape[0]

    queries, keys, applied_flags = [], [], []
    for v in streams:
        for u in streams:
            zq, zk = stream_embeddings[u][0], _as_const(stream_embeddings[v][1])
            if pft and (u == v or config.pft_apply_to_inter):
                gen = rng.split(f"lambda.{u}" if u == v else f"lambda.{u}->{v}").generator()
                lam = gen.beta(config.pft_alpha, config.pft_alpha, size=batch) * config.pft_mu + 1.0
                zq, zk, applied = pft_transform(zq, zk, lam)
                applied_flags.append(applied)
            queries.append(zq)
            keys.append(zk)

    shape = (n, n * batch, -1)
    mine = np.repeat(np.eye(n, dtype=bool), batch, axis=1) if nnm else None  # the intra rows
    losses, neighbors = queue_nll(
        T.reshape(T.concat(queries, axis=0), shape),
        np.concatenate(keys).reshape(shape),
        negatives,
        config.tau,
        mine,
        config.nnm_topk,
    )
    per_term = losses.data.reshape(n, n, batch).mean(axis=2)  # [v, u]
    breakdown = {f"intra:{u}": float(per_term[i, i]) for i, u in enumerate(streams)}
    for i, u in enumerate(streams):
        for g, v in enumerate(streams):
            if g != i:
                breakdown[f"inter:{u}->{v}"] = float(per_term[g, i])

    rate = float(np.concatenate(applied_flags).mean()) if pft else None
    mined_mean = float(neighbors[1].mean()) if nnm else None
    return CombineResult(T.div(T.sum_(losses), batch), breakdown, rate, mined_mean)
