"""Contrastive core against independent 64-bit brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skelcl import tensor as T
from skelcl.config import RunConfig
from skelcl.contrast import (
    EncoderPair,
    MemoryQueue,
    combine_losses,
    momentum_update,
    nnm_mine,
    pft_transform,
    predicted_similarity,
    queue_nll,
    similarity_histogram,
)
from skelcl.config import RunConfig
from skelcl.encoder import init_params
from skelcl.errors import BatchTooLarge, EmptyQueue, QueueTooSmall
from skelcl.rng import RngStream


# -- independent oracles ------------------------------------------------------


def brute_force_queue_nll(zq, zk, contents, neighbors, tau):
    """Direct 64-bit evaluation of the mined-positives InfoNCE."""
    zq = np.asarray(zq, dtype=np.float64)
    zk = np.asarray(zk, dtype=np.float64)
    contents = np.asarray(contents, dtype=np.float64)
    pos = math.exp(float(zq @ zk) / tau)
    negs = np.exp(contents @ zq / tau)
    numer = pos + sum(negs[i] for i in neighbors)
    denom = pos + negs.sum()
    return -math.log(numer / denom)


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def random_unit_pair(rng, dim, similarity):
    """Two unit vectors with the requested dot product."""
    a = unit(rng.normal(size=dim))
    b = rng.normal(size=dim)
    b = unit(b - (b @ a) * a)
    return a, similarity * a + math.sqrt(1.0 - similarity**2) * b


def single_nll(zq, zk, queue, tau, mined=None) -> float:
    """`queue_nll` on a batch of one 64-bit query row."""
    rows = None if mined is None else np.asarray(mined, dtype=np.int64).reshape(1, -1)
    zq = T.Tensor(np.asarray(zq)[None, :], dtype=np.float64)
    return float(queue_nll(zq, np.asarray(zk)[None, :], queue.contents(), tau, rows).data[0])


def mine_one(zq, queue, k) -> list[int]:
    """`nnm_mine` for one query row; the mined queue indices."""
    mined, _ = nnm_mine(np.asarray(zq)[None, :], queue.contents(), k)
    return mined[0].tolist()


def pft_batch(zq, zk, lam):
    """`pft_transform` on stacked 64-bit rows; returns numpy arrays."""
    zq_hat, zk_hat, applied = pft_transform(
        T.Tensor(np.atleast_2d(zq), dtype=np.float64), np.atleast_2d(zk), np.atleast_1d(lam)
    )
    return zq_hat.data, zk_hat, applied


def filled_queue(rng, n, dim, dtype=np.float64):
    q = MemoryQueue(n, dim, dtype=dtype)
    vecs = rng.normal(size=(n, dim))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    q.push(vecs)
    return q


# -- momentum update -----------------------------------------------------------


def _tiny_pair(momentum):
    cfg = RunConfig(enc_blocks=1, enc_channels=[4], enc_hidden=8, embed_dim=4)
    return EncoderPair(init_params(cfg, RngStream(3).split("e")), momentum)


class TestMomentumUpdate:
    def test_zero_momentum_full_copy(self):
        pair = _tiny_pair(0.0)
        for t in pair.query.tensors.values():
            t.data[...] = np.random.default_rng(1).normal(size=t.shape)
        momentum_update(pair)
        assert pair.key.digest() == pair.query.digest()

    def test_single_multiply_add(self):
        pair = _tiny_pair(0.999)
        name = "block0.spatial_weight"
        pair.key.tensors[name].data[...] = 0.0
        pair.query.tensors[name].data[...] = 1.0
        momentum_update(pair)
        np.testing.assert_allclose(pair.key.tensors[name].data, 0.001, atol=1e-7)

    def test_elementwise(self):
        pair = _tiny_pair(0.9)
        name = "projector.b2"
        pair.key.tensors[name].data[:2] = [0.0, 1.0]
        pair.query.tensors[name].data[:2] = [1.0, 1.0]
        momentum_update(pair)
        np.testing.assert_allclose(pair.key.tensors[name].data[:2], [0.1, 1.0], atol=1e-7)

    def test_affine_composition(self):
        # two updates with m against a fixed query equal one update with m^2
        m = 0.5
        a, b = _tiny_pair(m), _tiny_pair(m * m)
        rng = np.random.default_rng(2)
        for name in a.query.tensors:
            v = rng.normal(size=a.query.tensors[name].shape).astype(np.float32)
            a.query.tensors[name].data[...] = v
            b.query.tensors[name].data[...] = v
            k0 = rng.normal(size=v.shape).astype(np.float32)
            a.key.tensors[name].data[...] = k0
            b.key.tensors[name].data[...] = k0
        momentum_update(a)
        momentum_update(a)
        momentum_update(b)
        for name in a.key.tensors:
            np.testing.assert_allclose(
                a.key.tensors[name].data, b.key.tensors[name].data, atol=1e-6
            )

    def test_includes_running_stats(self):
        pair = _tiny_pair(0.5)
        pair.query.tensors["block0.norm_running_mean"].data[...] = 2.0
        momentum_update(pair)
        np.testing.assert_allclose(
            pair.key.tensors["block0.norm_running_mean"].data, 1.0, atol=1e-7
        )


# -- memory queue -----------------------------------------------------------------


class TestMemoryQueue:
    def test_partial_fill_preserves_order(self):
        q = MemoryQueue(4, 2)
        batch = np.array([[1, 0], [0, 1], [-1, 0]], dtype=np.float32)
        q.push(batch)
        assert q.filled == 3
        np.testing.assert_array_equal(q.contents(), batch)

    def test_fifo_eviction(self):
        q = MemoryQueue(4, 2)
        a, b, c, d, e, f = [unit(v).astype(np.float32) for v in
                            ([1, 0], [0, 1], [1, 1], [1, -1], [-1, 0], [0, -1])]
        q.push(np.stack([a, b, c, d]))
        q.push(np.stack([e, f]))
        np.testing.assert_array_equal(q.contents(), np.stack([c, d, e, f]))

    def test_batch_too_large(self):
        q = MemoryQueue(3, 2)
        with pytest.raises(BatchTooLarge):
            q.push(np.eye(4, 2, dtype=np.float32) + np.array([0, 1], dtype=np.float32))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 8), min_size=1, max_size=30), st.integers(0, 10_000))
    def test_fifo_property(self, batch_sizes, seed):
        """Capacity bound holds and contents equal the most recent pushes."""
        capacity = 8
        q = MemoryQueue(capacity, 3)
        rng = np.random.default_rng(seed)
        history = []
        for n in batch_sizes:
            batch = rng.normal(size=(n, 3))
            batch /= np.linalg.norm(batch, axis=1, keepdims=True)
            batch = batch.astype(np.float32)
            q.push(batch)
            history.extend(batch)
            assert q.filled == min(capacity, len(history))
            expected = np.stack(history[-q.filled :])
            np.testing.assert_array_equal(q.contents(), expected)


# -- losses --------------------------------------------------------------------------


class TestIntraLoss:
    def test_closed_form_single_negative(self):
        # tau=1, zq.zk=1, one negative at similarity 0 -> -log(e/(e+1))
        q = MemoryQueue(4, 2, dtype=np.float64)
        q.push(np.array([[0.0, 1.0]]))
        loss = single_nll([1.0, 0.0], [1.0, 0.0], q, 1.0)
        assert abs(loss - 0.3132616875182228) < 1e-9

    def test_symmetric_ln2(self):
        q = MemoryQueue(4, 2, dtype=np.float64)
        q.push(np.array([[1.0, 0.0]]))
        assert abs(single_nll([1.0, 0.0], [1.0, 0.0], q, 1.0) - math.log(2)) < 1e-9

    @pytest.mark.parametrize("tau", [0.07, 0.2, 1.0])
    def test_matches_brute_force(self, tau):
        rng = np.random.default_rng(int(tau * 100))
        for _ in range(100):
            dim = int(rng.integers(4, 16))
            filled = int(rng.integers(1, 64))
            q = filled_queue(rng, filled, dim)
            zq = unit(rng.normal(size=dim))
            zk = unit(rng.normal(size=dim))
            got = single_nll(zq, zk, q, tau)
            want = brute_force_queue_nll(zq, zk, q.contents(), (), tau)
            assert abs(got - want) < 1e-6

    def test_empty_queue(self):
        q = MemoryQueue(4, 2)
        with pytest.raises(EmptyQueue):
            single_nll([1.0, 0.0], [1.0, 0.0], q, 0.07)


class TestInterLoss:
    def test_degenerate_reduction_to_intra(self):
        # with the other stream's keys and queue equal to the own ones,
        # the inter term is bit for bit the intra term
        rng = np.random.default_rng(31)
        zq = rng.normal(size=(3, 8))
        zq /= np.linalg.norm(zq, axis=1, keepdims=True)
        zk = rng.normal(size=(3, 8))
        zk /= np.linalg.norm(zk, axis=1, keepdims=True)
        fill = filled_queue(rng, 16, 8).contents()
        emb, queues = {}, {}
        for s in ("joint", "bone"):
            emb[s] = (T.Tensor(zq, dtype=np.float64), zk.copy())
            queues[s] = MemoryQueue(16, 8, dtype=np.float64)
            queues[s].push(fill)
        res = combine_losses(emb, queues, RunConfig(streams=["joint", "bone"], tau=0.2),
                             False, False, RNG)
        assert res.breakdown["inter:joint->bone"] == res.breakdown["intra:joint"]

    @pytest.mark.parametrize("tau", [0.07, 0.2, 1.0])
    def test_matches_brute_force_two_streams(self, tau):
        rng = np.random.default_rng(int(tau * 1000) + 1)
        cfg = RunConfig(streams=["joint", "bone"], tau=tau)
        for _ in range(50):
            emb, queues = _stream_inputs(rng, ("joint", "bone"), 3, 8, int(rng.integers(1, 64)))
            res = combine_losses(emb, queues, cfg, False, False, RNG)
            zq_u, zk_v = emb["joint"][0].data, emb["bone"][1]
            want = np.mean([
                brute_force_queue_nll(zq_u[i], zk_v[i], queues["bone"].contents(), (), tau)
                for i in range(3)
            ])
            assert abs(res.breakdown["inter:joint->bone"] - want) < 1e-6


class TestNnm:
    def test_mine_highest_similarity(self):
        q = MemoryQueue(4, 2, dtype=np.float64)
        q.push(np.stack([unit([0.9, 0.1]), unit([0.0, 1.0])]))
        assert mine_one([1.0, 0.0], q, 1) == [0]

    def test_k_equals_filled_returns_all(self):
        rng = np.random.default_rng(7)
        q = filled_queue(rng, 5, 3)
        assert sorted(mine_one(unit(rng.normal(size=3)), q, 5)) == [0, 1, 2, 3, 4]

    def test_tie_prefers_lower_index(self):
        q = MemoryQueue(4, 2, dtype=np.float64)
        q.push(np.array([[1.0, 0.0], [1.0, 0.0]]))
        assert mine_one([1.0, 0.0], q, 1) == [0]

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_stable_argsort_with_ties(self, seed):
        # few distinct similarity levels, so most rows tie across the k-th
        # boundary; the oracle is a stable full sort of each row
        rng = np.random.default_rng(seed)
        levels = np.array([-0.5, 0.0, 0.25, 0.5, 1.0])
        contents = levels[rng.integers(0, levels.size, size=(24, 1))] * np.eye(1, 3)
        zq = np.eye(1, 3) * rng.uniform(0.5, 1.0, size=(6, 1))
        sims = zq @ contents.T
        for k in range(1, contents.shape[0] + 1):
            mined, mined_sims = nnm_mine(zq, contents, k)
            oracle = np.argsort(-sims, axis=1, kind="stable")[:, :k]
            np.testing.assert_array_equal(mined, oracle)
            np.testing.assert_array_equal(mined_sims, np.take_along_axis(sims, oracle, axis=1))

    def test_queue_too_small(self):
        q = MemoryQueue(4, 2, dtype=np.float64)
        q.push(np.array([[1.0, 0.0]]))
        with pytest.raises(QueueTooSmall):
            mine_one([1.0, 0.0], q, 2)

    def test_empty_neighbors_bitwise_plain(self):
        rng = np.random.default_rng(13)
        q = filled_queue(rng, 32, 8)
        zq = unit(rng.normal(size=8))
        zk = unit(rng.normal(size=8))
        assert single_nll(zq, zk, q, 0.07, mined=()) == single_nll(zq, zk, q, 0.07)

    def test_closed_form_one_neighbor(self):
        # pos sim 1, mined sim 1, one other negative at 0 -> -log(2e/(2e+1))
        q = MemoryQueue(4, 2, dtype=np.float64)
        q.push(np.array([[1.0, 0.0], [0.0, 1.0]]))
        loss = single_nll([1.0, 0.0], [1.0, 0.0], q, 1.0, mined=(0,))
        assert abs(loss - 0.1688476234983058) < 1e-9

    def test_mined_loss_never_larger(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            q = filled_queue(rng, 16, 6)
            zq = unit(rng.normal(size=6))
            zk = unit(rng.normal(size=6))
            with_nnm = single_nll(zq, zk, q, 0.1, mined=mine_one(zq, q, 1))
            assert with_nnm <= single_nll(zq, zk, q, 0.1)

    @pytest.mark.parametrize("tau", [0.07, 0.2, 1.0])
    def test_matches_brute_force(self, tau):
        rng = np.random.default_rng(int(tau * 10_000) + 3)
        for _ in range(100):
            dim = 8
            filled = int(rng.integers(2, 64))
            q = filled_queue(rng, filled, dim)
            zq = unit(rng.normal(size=dim))
            zk = unit(rng.normal(size=dim))
            k = int(rng.integers(1, min(4, filled) + 1))
            mined = mine_one(zq, q, k)
            got = single_nll(zq, zk, q, tau, mined=mined)
            want = brute_force_queue_nll(zq, zk, q.contents(), mined, tau)
            assert abs(got - want) < 1e-6


# -- extrapolation ---------------------------------------------------------------------


class TestSampleLambda:
    def test_mu_zero_constant_one(self):
        # mu = 0 draws lambda = 1: every pair with s >= 0 is "transformed"
        # into itself, so the loss matches the untransformed one
        rng = np.random.default_rng(27)
        emb, queues = _stream_inputs(rng, ("joint",), 16, 8, 16)
        cfg = RunConfig(streams=["joint"], pft_mu=0.0)
        plain = combine_losses(emb, queues, cfg, False, False, RNG)
        same = combine_losses(emb, queues, cfg, False, True, RngStream(1).split("step"))
        zq, zk = emb["joint"]
        assert same.pft_applied_rate == float(((zq.data * zk).sum(axis=1) >= 0).mean())
        assert abs(same.total.item() - plain.total.item()) < 1e-9

    def test_beta22_mean_and_range(self):
        draws = RngStream(5).split("lam").generator().beta(2.0, 2.0, 100_000) + 1.0
        assert abs(draws.mean() - 1.5) < 0.01
        assert draws.min() >= 1.0 and draws.max() <= 2.0


class TestPftTransform:
    def test_lambda_one_identity(self):
        rng = np.random.default_rng(3)
        zq, zk = random_unit_pair(rng, 8, 0.6)
        zq_hat, zk_hat, applied = pft_batch(zq, zk, 1.0)
        assert applied.all()
        np.testing.assert_allclose(zq_hat[0], zq, atol=1e-12)
        np.testing.assert_allclose(zk_hat[0], zk, atol=1e-12)

    def test_guard_on_orthogonal_pair(self):
        # s = 0, lambda = 1.5 -> predicted similarity -1.5 < 0 -> keep originals
        zq, zk = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        zq_hat, zk_hat, applied = pft_batch(zq, zk, 1.5)
        assert not applied.any()
        np.testing.assert_array_equal(zq_hat[0], zq)
        np.testing.assert_array_equal(zk_hat[0], zk)

    def test_guard_on_negative_similarity(self):
        rng = np.random.default_rng(4)
        zq, zk = random_unit_pair(rng, 8, -0.3)
        _, _, applied = pft_batch(zq, zk, 1.01)
        assert not applied.any()

    def test_closed_form_matches_direct(self):
        # s=0.5, lambda=1.2 -> predicted 0.26 equals the raw extrapolated dot
        rng = np.random.default_rng(5)
        zq, zk = random_unit_pair(rng, 16, 0.5)
        lam = 1.2
        raw_q = lam * zq + (1 - lam) * zk
        raw_k = lam * zk + (1 - lam) * zq
        assert abs(predicted_similarity(0.5, lam) - 0.26) < 1e-12
        assert abs(raw_q @ raw_k - 0.26) < 1e-6

    def test_hardness_property(self):
        """Raw extrapolated similarity never exceeds the original (10^5 trials)."""
        rng = np.random.default_rng(6)
        s = rng.uniform(0.0, 1.0, 100_000)
        lam = rng.beta(2.0, 2.0, 100_000) + 1.0
        assert np.all(predicted_similarity(s, lam) <= s)

    def test_identity_against_direct_dot_random(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            s = rng.uniform(0.0, 0.999)
            lam = rng.beta(2.0, 2.0) + 1.0
            zq, zk = random_unit_pair(rng, 12, s)
            raw_q = lam * zq + (1 - lam) * zk
            raw_k = lam * zk + (1 - lam) * zq
            assert abs(raw_q @ raw_k - predicted_similarity(s, lam)) < 1e-6

    def test_sign_preserved_by_renormalization(self):
        rng = np.random.default_rng(8)
        pairs = []
        for _ in range(200):
            s = rng.uniform(0.0, 0.999)
            lam = rng.uniform(1.0, 2.0)
            pairs.append((*random_unit_pair(rng, 10, s), lam))
        zq, zk, lam = (np.array(column) for column in zip(*pairs))
        zq_hat, zk_hat, applied = pft_batch(zq, zk, lam)
        lam = lam[:, None]
        raw = ((lam * zq + (1 - lam) * zk) * (lam * zk + (1 - lam) * zq)).sum(axis=1)
        renormalized = (zq_hat * zk_hat).sum(axis=1)
        ok = (np.sign(renormalized) == np.sign(raw)) | (np.abs(raw) < 1e-12)
        assert ok[applied].all()

    def test_gradient_flows_through_query_side(self):
        rng = np.random.default_rng(9)
        zq_arr, zk = random_unit_pair(rng, 6, 0.7)
        p = T.parameter(zq_arr[None, :].astype(np.float64))
        weights = rng.normal(size=6)

        def f():
            zq_hat, _, _ = pft_transform(T.l2_normalize(p), zk[None, :], np.array([1.3]))
            return T.sum_(T.mul(zq_hat, weights))

        res = T.grad_check(f, {"p": p})
        assert res.max_rel_error < 1e-6


def _extrapolated_similarities(rng, n, low):
    """Draw n pairs with s in [low, 0.999) and Beta(2,2)+1 weights."""
    pairs = []
    for _ in range(n):
        s = rng.uniform(low, 0.999)
        lam = rng.beta(2.0, 2.0) + 1.0
        pairs.append((s, *random_unit_pair(rng, 16, s), lam))
    before, zq, zk, lam = (np.array(column) for column in zip(*pairs))
    zq_hat, zk_hat, applied = pft_batch(zq, zk, lam)
    return before, np.where(applied, (zq_hat * zk_hat).sum(axis=1), before)


class TestSimilarityHistogram:
    def test_identical_pairs_single_bin(self):
        sims = np.ones(50)
        table = similarity_histogram(sims, sims, bins=20)
        assert table.before_counts[-1] == 50
        assert table.after_counts[-1] == 50
        assert table.before_counts[:-1].sum() == 0

    def test_variance_grows_after_transform(self):
        # positives of a trained encoder concentrate well above 0; the
        # extrapolation spreads them downward, growing the variance
        before, after = _extrapolated_similarities(np.random.default_rng(10), 1000, 0.5)
        table = similarity_histogram(before, after)
        assert table.after_stats["var"] >= table.before_stats["var"]
        assert table.after_stats["min"] >= 0.0

    def test_guard_floor_any_similarity(self):
        # regardless of the input regime, no after-transform mass below 0
        _, after = _extrapolated_similarities(np.random.default_rng(11), 500, 0.0)
        assert after.min() >= 0.0


# -- combined loss ----------------------------------------------------------------------

RNG = RngStream(0).split("combine")


def _stream_inputs(rng, streams, batch, dim, queue_size):
    embeddings, queues = {}, {}
    for s in streams:
        zq = rng.normal(size=(batch, dim))
        zq /= np.linalg.norm(zq, axis=1, keepdims=True)
        zk = rng.normal(size=(batch, dim))
        zk /= np.linalg.norm(zk, axis=1, keepdims=True)
        embeddings[s] = (T.Tensor(zq, dtype=np.float64), zk)
        queues[s] = filled_queue(rng, queue_size, dim)
    return embeddings, queues


class TestCombineLosses:
    def test_single_stream_term_count(self):
        rng = np.random.default_rng(20)
        emb, queues = _stream_inputs(rng, ("joint",), 4, 8, 16)
        res = combine_losses(emb, queues, RunConfig(streams=["joint"]), False, False, RNG)
        assert list(res.breakdown) == ["intra:joint"]

    def test_term_structure_two_and_three_streams(self):
        rng = np.random.default_rng(21)
        for streams, n_intra, n_inter in [(["joint", "bone"], 2, 2),
                                          (["joint", "bone", "motion"], 3, 6)]:
            emb, queues = _stream_inputs(rng, streams, 4, 8, 16)
            res = combine_losses(emb, queues, RunConfig(streams=streams), False, False, RNG)
            intra = [k for k in res.breakdown if k.startswith("intra:")]
            inter = [k for k in res.breakdown if k.startswith("inter:")]
            assert len(intra) == n_intra and len(inter) == n_inter
            assert abs(res.total.item() - sum(res.breakdown.values())) < 1e-9

    def test_symmetric_construction_ln2_per_term(self):
        streams = ["joint", "bone", "motion"]
        e1 = np.zeros(8)
        e1[0] = 1.0
        emb, queues = {}, {}
        for s in streams:
            z = np.tile(e1, (2, 1))
            emb[s] = (T.Tensor(z, dtype=np.float64), z.copy())
            q = MemoryQueue(4, 8, dtype=np.float64)
            q.push(e1[None, :])
            queues[s] = q
        cfg = RunConfig(streams=streams, tau=1.0)
        res = combine_losses(emb, queues, cfg, False, False, RNG)
        assert abs(res.total.item() - 9 * math.log(2)) < 1e-9

    def test_batch_equals_mean_of_singles(self):
        rng = np.random.default_rng(22)
        emb, queues = _stream_inputs(rng, ("joint", "bone"), 6, 8, 24)
        cfg = RunConfig(streams=["joint", "bone"], tau=0.2)
        res = combine_losses(emb, queues, cfg, False, False, RNG)
        for u in ("joint", "bone"):
            zq, zk = emb[u]
            singles = [single_nll(zq.data[i], zk[i], queues[u], 0.2) for i in range(6)]
            assert abs(res.breakdown[f"intra:{u}"] - np.mean(singles)) < 1e-9

    def test_nnm_changes_intra_only(self):
        rng = np.random.default_rng(23)
        emb, queues = _stream_inputs(rng, ("joint", "bone"), 4, 8, 16)
        cfg = RunConfig(streams=["joint", "bone"], nnm_topk=1)
        plain = combine_losses(emb, queues, cfg, False, False, RNG)
        mined = combine_losses(emb, queues, cfg, True, False, RNG)
        for key in plain.breakdown:
            if key.startswith("inter:"):
                assert plain.breakdown[key] == mined.breakdown[key]
            else:
                assert mined.breakdown[key] <= plain.breakdown[key]
        assert mined.nnm_mean_similarity is not None

    def test_pft_reports_applied_rate(self):
        rng = np.random.default_rng(24)
        emb, queues = _stream_inputs(rng, ("joint",), 8, 8, 16)
        cfg = RunConfig(streams=["joint"])
        res = combine_losses(emb, queues, cfg, False, True, RngStream(1).split("step"))
        assert res.pft_applied_rate is not None
        assert 0.0 <= res.pft_applied_rate <= 1.0

    def test_no_gradient_reaches_keys_or_queue(self):
        rng = np.random.default_rng(25)
        p = T.parameter(rng.normal(size=(4, 8)))
        zk = rng.normal(size=(4, 8))
        zk /= np.linalg.norm(zk, axis=1, keepdims=True)
        q = filled_queue(rng, 16, 8, dtype=np.float32)
        cfg = RunConfig(streams=["joint"])
        with T.Tape():
            emb = {"joint": (T.l2_normalize(p), zk)}
            res = combine_losses(emb, {"joint": q}, cfg, True, True, RNG)
            grads = T.backward(res.total)
        assert set(grads.keys()) == {p}

    def test_empty_queue_raises(self):
        rng = np.random.default_rng(26)
        emb, _ = _stream_inputs(rng, ("joint",), 4, 8, 16)
        with pytest.raises(EmptyQueue):
            combine_losses(emb, {"joint": MemoryQueue(8, 8)}, RunConfig(streams=["joint"]),
                           False, False, RNG)
