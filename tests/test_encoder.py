"""Encoder forward contracts, equivariance, init bounds, gradient oracle."""

import numpy as np
import pytest

from skelcl import tensor as T
from skelcl.config import RunConfig
from skelcl.encoder import encode, init_params, project, stgcn_forward
from skelcl.errors import ShapeMismatch
from skelcl.rng import RngStream
from skelcl.skeleton import build_star_tree

TINY = RunConfig(enc_blocks=1, enc_channels=[4], enc_hidden=8, embed_dim=4)
SMALL = RunConfig(enc_blocks=2, enc_channels=[4, 6], enc_hidden=8, embed_dim=4)


def _input(shape, seed=0, dtype=np.float32):
    return np.random.default_rng(seed).normal(size=shape).astype(dtype)


def _adjacency(joints, dtype=np.float32):
    return build_star_tree(joints).normalized_adjacency(dtype)


class TestInit:
    def test_deterministic(self):
        a = init_params(SMALL, RngStream(5).split("enc"))
        b = init_params(SMALL, RngStream(5).split("enc"))
        assert a.digest() == b.digest()

    def test_fan_bound_respected(self):
        params = init_params(SMALL, RngStream(6).split("enc"))
        w = params["block0.spatial_weight"].data
        bound = np.sqrt(6.0 / (w.shape[0] + w.shape[1]))
        assert np.abs(w).max() <= bound

    def test_norm_identity_affine(self):
        params = init_params(SMALL, RngStream(7).split("enc"))
        np.testing.assert_array_equal(params["block0.norm_gamma"].data, 1.0)
        np.testing.assert_array_equal(params["block0.norm_beta"].data, 0.0)
        np.testing.assert_array_equal(params["block0.norm_running_mean"].data, 0.0)
        np.testing.assert_array_equal(params["block0.norm_running_var"].data, 1.0)

    def test_copy_is_independent(self):
        params = init_params(SMALL, RngStream(8).split("enc"))
        clone = params.copy()
        clone["block0.spatial_weight"].data[0, 0] += 1.0
        assert params.digest() != clone.digest()


class TestForward:
    def test_all_zero_weights_give_zero_hidden(self):
        params = init_params(TINY, RngStream(1).split("e"))
        for name, t in params.trainable().items():
            if "norm_beta" not in name and "norm_gamma" not in name:
                t.data[...] = 0.0
        h = stgcn_forward(_input((1, 8, 3, 5)), _adjacency(5), params, mode="eval")
        np.testing.assert_allclose(h.data, 0.0, atol=1e-7)

    def test_eval_deterministic(self):
        params = init_params(SMALL, RngStream(2).split("e"))
        x = _input((1, 8, 3, 5), seed=3)
        a = stgcn_forward(x, _adjacency(5), params, mode="eval")
        b = stgcn_forward(x, _adjacency(5), params, mode="eval")
        np.testing.assert_array_equal(a.data, b.data)

    def test_batch_matches_stacked_eval(self):
        adjacency = _adjacency(5)
        params = init_params(SMALL, RngStream(21).split("e"))
        xs = [_input((8, 3, 5), seed=s) for s in (1, 2, 3)]
        batch = stgcn_forward(np.stack(xs), adjacency, params, mode="eval")
        for i, x in enumerate(xs):
            alone = stgcn_forward(x[None], adjacency, params, mode="eval")  # a batch of one
            np.testing.assert_allclose(batch.data[i], alone.data[0], atol=1e-6)

    def test_joint_relabeling_equivariance(self):
        # permuting joints together with the adjacency leaves h unchanged
        adjacency = _adjacency(9, np.float64)
        params = init_params(SMALL, RngStream(4).split("e")).astype(np.float64)
        x = _input((1, 8, 3, 9), seed=5, dtype=np.float64)
        h = stgcn_forward(x, adjacency, params, mode="eval")
        rng = np.random.default_rng(0)
        for _ in range(5):
            perm = rng.permutation(9)
            x_p = x[..., perm]
            a_p = adjacency[np.ix_(perm, perm)]
            h_p = stgcn_forward(x_p, a_p, params, mode="eval")
            np.testing.assert_allclose(h_p.data, h.data, atol=1e-5)

    def test_single_clip_rejected(self):
        # one input form: a clip must come as a batch of one
        params = init_params(TINY, RngStream(3).split("e"))
        with pytest.raises(ShapeMismatch, match="batch"):
            stgcn_forward(_input((8, 3, 5)), _adjacency(5), params)

    def test_train_mode_updates_running_stats(self):
        params = init_params(SMALL, RngStream(9).split("e"))
        before = params["block0.norm_running_mean"].data.copy()
        stgcn_forward(_input((2, 8, 3, 5), seed=6), _adjacency(5), params, mode="train")
        after = params["block0.norm_running_mean"].data
        assert not np.array_equal(before, after)

    def test_update_stats_false_freezes(self):
        params = init_params(SMALL, RngStream(10).split("e"))
        digest = params.digest()
        stgcn_forward(_input((2, 8, 3, 5), seed=6), _adjacency(5), params,
                      mode="train", update_stats=False)
        assert params.digest() == digest


class TestProject:
    def test_unit_norm(self):
        params = init_params(SMALL, RngStream(11).split("e"))
        h = _input((7, SMALL.enc_channels[-1]), seed=8)
        z = project(h, params)
        np.testing.assert_allclose(np.linalg.norm(z.data, axis=1), 1.0, atol=1e-6)

    def test_self_similarity_one(self):
        params = init_params(SMALL, RngStream(12).split("e"))
        z = project(_input((4, SMALL.enc_channels[-1]), seed=9), params)
        np.testing.assert_allclose((z.data * z.data).sum(axis=1), 1.0, atol=1e-6)


class TestGradients:
    def test_block_grad_check(self):
        params = init_params(TINY, RngStream(14).split("e")).astype(np.float64)
        x = _input((1, 8, 3, 5), seed=11, dtype=np.float64)
        weights = np.random.default_rng(1).normal(size=TINY.enc_channels[-1])

        def f():
            h = stgcn_forward(x, _adjacency(5, np.float64), params, mode="eval")
            return T.sum_(T.mul(h, weights))

        res = T.grad_check(f, params.trainable())
        assert res.max_rel_error < 1e-6

    def test_full_encoder_with_projector(self):
        params = init_params(TINY, RngStream(15).split("e")).astype(np.float64)
        x = _input((1, 8, 3, 5), seed=12, dtype=np.float64)
        target = np.random.default_rng(2).normal(size=TINY.embed_dim)

        def f():
            _, z = encode(x, _adjacency(5, np.float64), params, mode="eval")
            return T.sum_(T.mul(z, target))

        res = T.grad_check(f, params.trainable())
        assert res.max_rel_error < 1e-6

    def test_train_mode_norm_grad_check(self):
        # batch statistics participate in the gradient when not frozen
        params = init_params(TINY, RngStream(16).split("e")).astype(np.float64)
        x = _input((2, 8, 3, 5), seed=13, dtype=np.float64)
        target = np.random.default_rng(3).normal(size=(2, TINY.enc_channels[-1]))

        def f():
            h = stgcn_forward(x, _adjacency(5, np.float64), params, mode="train", update_stats=False)
            return T.sum_(T.mul(h, target))

        res = T.grad_check(f, params.trainable())
        assert res.max_rel_error < 1e-6
