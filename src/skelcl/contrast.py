"""Contrastive machinery: momentum pair, memory queues, losses, extrapolation.

The loss family is masked-softmax InfoNCE over a positive pair plus a
FIFO queue of past key embeddings.  Intra-stream and inter-stream terms
share one kernel; neighbor mining enlarges the numerator with the most
similar queue entries, and the hard-positive extrapolation replaces a
positive pair with a lower-similarity synthetic pair (guarded so the
pair's similarity never turns negative).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import RunConfig
from .encoder import EncoderParams
from .errors import BatchTooLarge, EmptyQueue, QueueTooSmall, ShapeMismatch
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
        if k.shape != q.shape:
            raise ShapeMismatch(f"{name}: key {k.shape} vs query {q.shape}")
        k.data[...] = m * k.data + (1.0 - m) * q.data


# -- losses ----------------------------------------------------------------------


def _as_const(v) -> np.ndarray:
    return v.data if isinstance(v, T.Tensor) else np.asarray(v)


def queue_nll(zq, zk, negatives: np.ndarray, tau: float, mined=None) -> T.Tensor:
    """Per-row masked InfoNCE for (B, D) queries; returns (B,) losses.

    Row i's numerator holds its positive pair (zq[i], zk[i]) plus the
    `negatives` rows listed in `mined[i]` (neighbor mining); the
    denominator holds the positive and every row of `negatives`, a
    (Q, D) snapshot of a queue (`MemoryQueue.contents()`).  Intra-stream
    terms pass the stream's own keys and queue, inter-stream terms the
    other stream's.  Gradient flows into `zq` only.
    """
    if negatives.shape[0] == 0:
        raise EmptyQueue("no negatives stored yet")
    zq = T.as_tensor(zq)
    negatives = negatives.astype(zq.dtype, copy=False)
    pos = T.sum_(T.mul(zq, T.Tensor(_as_const(zk).astype(zq.dtype))), axis=1, keepdims=True)
    negs = T.matmul(zq, negatives.T)
    logits = T.div(T.concat([pos, negs], axis=1), tau)
    mask = np.zeros((zq.shape[0], 1 + negatives.shape[0]), dtype=bool)
    mask[:, 0] = True
    if mined is not None:
        rows = np.repeat(np.arange(mined.shape[0]), mined.shape[1])
        mask[rows, mined.reshape(-1) + 1] = True
    return T.masked_softmax_nll_rows(logits, mask)


def nnm_mine(zq, contents: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the k most similar queue entries; ties pick the lower index.

    Returns (indices, similarities), both (B, k), each row ordered by
    descending similarity.  The selection is exact: a partition finds
    each row's k-th largest similarity, and only the entries at or
    above it are sorted (similarity descending, then index ascending),
    which is the order a stable full sort would give.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if contents.shape[0] < k:
        raise QueueTooSmall(f"queue holds {contents.shape[0]} < k={k}")
    zq = _as_const(zq)
    sims = zq @ contents.astype(zq.dtype, copy=False).T
    width = sims.shape[1]
    threshold = np.partition(sims, width - k, axis=1)[:, width - k : width - k + 1]
    rows, cols = np.nonzero(sims >= threshold)
    order = np.lexsort((cols, -sims[rows, cols], rows))
    starts = np.searchsorted(rows, np.arange(sims.shape[0]))
    mined = cols[order[starts[:, None] + np.arange(k)]]
    T.record_kink(mined)
    return mined, np.take_along_axis(sims, mined, axis=1)


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

    def rows(self):
        for i in range(len(self.before_counts)):
            yield (
                float(self.edges[i]),
                float(self.edges[i + 1]),
                int(self.before_counts[i]),
                int(self.after_counts[i]),
            )


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
    result holds |S| intra terms plus |S|(|S|-1) inter terms, reported
    per term in the breakdown.  Mining (`nnm`, the config's top-k)
    applies to intra terms only; the extrapolation (`pft`, weights
    Beta(alpha, alpha) * mu + 1 drawn from `rng`) applies to intra pairs
    and, if configured, to inter pairs as well.
    """
    streams = config.streams
    missing = set(streams) - set(stream_embeddings)
    if missing:
        raise ShapeMismatch(f"missing stream embeddings: {sorted(missing)}")

    terms: list[T.Tensor] = []
    breakdown: dict[str, float] = {}
    applied_flags: list[np.ndarray] = []
    mined_sims: list[np.ndarray] = []

    def extrapolate(zq, zk, path: str):
        gen = rng.split(f"lambda.{path}").generator()
        lam = gen.beta(config.pft_alpha, config.pft_alpha, size=zq.shape[0]) * config.pft_mu + 1.0
        zq, zk, applied = pft_transform(zq, zk, lam)
        applied_flags.append(applied)
        return zq, zk

    effective: dict[str, tuple[T.Tensor, np.ndarray]] = {}
    for u in streams:
        zq, zk = stream_embeddings[u]
        effective[u] = extrapolate(zq, zk, u) if pft else (zq, _as_const(zk))

    # one snapshot per queue serves the mining and every term against it
    negatives = {u: queues[u].contents() for u in streams}
    for u in streams:
        zq_eff, zk_eff = effective[u]
        mined = None
        if nnm:
            mined, sims = nnm_mine(zq_eff, negatives[u], config.nnm_topk)
            mined_sims.append(sims.reshape(-1))
        term = T.mean_(queue_nll(zq_eff, zk_eff, negatives[u], config.tau, mined))
        breakdown[f"intra:{u}"] = term.item()
        terms.append(term)

    for u in streams:
        for v in streams:
            if u == v:
                continue
            zq_u, _ = stream_embeddings[u]
            _, zk_v = stream_embeddings[v]
            if pft and config.pft_apply_to_inter:
                zq_u, zk_v = extrapolate(zq_u, zk_v, f"{u}->{v}")
            term = T.mean_(queue_nll(zq_u, zk_v, negatives[v], config.tau))
            breakdown[f"inter:{u}->{v}"] = term.item()
            terms.append(term)

    total = terms[0]
    for t in terms[1:]:
        total = T.add(total, t)

    rate = None
    if pft:
        flags = np.concatenate(applied_flags)
        rate = float(flags.mean()) if flags.size else 0.0
    mined_mean = float(np.concatenate(mined_sims).mean()) if nnm else None
    return CombineResult(total, breakdown, rate, mined_mean)
