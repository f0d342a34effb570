"""Encoder forward contracts, equivariance, init bounds, gradient oracle."""

import numpy as np
import pytest

from skelcl import tensor as T
from skelcl.config import RunConfig
from skelcl.encoder import BN_MOMENTUM, encode, init_params, project, stgcn_forward
from skelcl.errors import InvalidArgument, ShapeMismatch
from skelcl.rng import RngStream
from skelcl.skeleton import build_star_tree
from test_tensor import composed_block

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

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_tracked_batch_refused(self, mode):
        # the input is data: a NumPy transpose would drop its gradient
        params = init_params(TINY, RngStream(3).split("e"))
        x = T.parameter(_input((2, 8, 3, 5)))
        with pytest.raises(InvalidArgument, match="tracked"):
            stgcn_forward(x, _adjacency(5), params, mode=mode)

    def test_unknown_mode_named(self):
        params = init_params(TINY, RngStream(3).split("e"))
        with pytest.raises(InvalidArgument, match="'test'"):
            stgcn_forward(_input((1, 8, 3, 5)), _adjacency(5), params, mode="test")

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


    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_one_tape_node_per_block(self, mode):
        params = init_params(SMALL, RngStream(17).split("e"))
        x = _input((2, 8, 3, 5), seed=7)
        with T.Tape() as tape:
            if mode == "train":
                stgcn_forward(x, _adjacency(5), params, mode=mode)
            else:  # eval mode never records: a pass that would is refused
                with pytest.raises(InvalidArgument, match="train mode only"):
                    stgcn_forward(x, _adjacency(5), params, mode=mode)
        ops = [node.backward_fn.__qualname__.split(".")[0] for node in tape.nodes]
        # the last block pools, so no separate pooling node follows it
        assert ops == (["stgcn_block"] * SMALL.enc_blocks if mode == "train" else [])

    @pytest.mark.parametrize("n,passes", [(15, 10), (22, 16), (32, 26)])
    def test_chunk_passes_of_a_desk_width_step(self, monkeypatch, n, passes):
        # 32 frames, 9 joints, float32: 14 clips a chunk at 16 channels, 7 at
        # 32.  Each chunk runs the taps once forward and once backward, and
        # no chunk holds a lone clip: 15 clips make chunks of 15 | 7 + 8 |
        # 7 + 8 (at 14 + 1 | 7 + 7 + 1 | 7 + 7 + 1 it would be 16 passes)
        cfg = RunConfig(enc_blocks=3, enc_channels=[16, 32, 32], enc_hidden=64, embed_dim=32)
        params = init_params(cfg, RngStream(23).split("e"))
        calls = []
        taps = T._apply_taps

        def counted(*args, **kwargs):
            calls.append(args[0].shape[0])
            return taps(*args, **kwargs)

        monkeypatch.setattr(T, "_apply_taps", counted)
        with T.Tape():
            h = stgcn_forward(_input((n, 32, 3, 9), seed=8), _adjacency(9), params, mode="train")
            T.backward(T.sum_(h))
        assert len(calls) == passes
        assert 1 not in calls


def composed_forward(x, adjacency, params, mode, update_stats):
    """`stgcn_forward` as the (N, T, C, V) op chain it replaced:
    `composed_block` per block, the running-average updates, then
    `mean_` over frames and joints."""
    cfg = params.config
    h = T.as_tensor(x)
    for i in range(cfg.enc_blocks):
        run_mu = params[f"block{i}.norm_running_mean"]
        run_var = params[f"block{i}.norm_running_var"]
        h, stats = composed_block(h, adjacency, params[f"block{i}.spatial_weight"],
                                  params[f"block{i}.temporal_kernel"],
                                  (params[f"block{i}.norm_gamma"], params[f"block{i}.norm_beta"]),
                                  (run_mu.data, run_var.data) if mode == "eval" else None)
        if stats is not None and update_stats:
            run_mu.data[...] = BN_MOMENTUM * run_mu.data + (1 - BN_MOMENTUM) * stats[0]
            run_var.data[...] = BN_MOMENTUM * run_var.data + (1 - BN_MOMENTUM) * stats[1]
    return T.mean_(h, axis=(1, 3))


# (mode, update_stats, taped); eval mode runs off the tape
PARITY_CASES = {
    "train_taped": ("train", True, True),
    "train_untaped_frozen_stats": ("train", False, False),
    "eval_running_stats": ("eval", False, False),
    "eval_untaped": ("eval", False, False),
}


@pytest.mark.parametrize("case", sorted(PARITY_CASES))
def test_forward_matches_composed_chain(monkeypatch, case):
    # the channels-last encoder against the (N, T, C, V) chain at f64: h,
    # the gradients of every parameter, and the running statistics, over a
    # 3 -> 4 entry block and a 4 -> 4 residual block; the input is data,
    # so it stays untracked (tests/test_tensor.py checks a block's input
    # gradient)
    mode, update_stats, taped = PARITY_CASES[case]
    cfg = RunConfig(enc_blocks=2, enc_channels=[4, 4], enc_hidden=8, embed_dim=4)
    rng = np.random.default_rng(sorted(PARITY_CASES).index(case))
    params = init_params(cfg, RngStream(19).split("e")).astype(np.float64)
    for name, t in params.tensors.items():
        if "running" in name:
            t.data[...] = rng.uniform(0.5, 1.5, size=t.shape)
    n, frames, joints = 5, 6, 7
    x = rng.normal(size=(n, frames, 3, joints))
    adjacency = _adjacency(joints, np.float64)
    w = rng.normal(size=(n, cfg.enc_channels[-1]))
    # two samples a chunk in both blocks: chunks of 2 and a ragged 3
    monkeypatch.setattr(T, "BLOCK_CHUNK_BYTES", 2 * frames * joints * 4 * 8)
    results = []
    for forward in (stgcn_forward, composed_forward):
        p = params.copy()
        grads = {}
        if taped:
            with T.Tape():
                h = forward(x, adjacency, p, mode, update_stats)
                by_tensor = T.backward(T.sum_(T.mul(h, w)))
            grads = {name: by_tensor[t].data for name, t in p.trainable().items()
                     if not name.startswith("projector.")}
        else:
            with T.no_tape():
                h = forward(x, adjacency, p, mode, update_stats)
        running = {name: t.data for name, t in p.tensors.items() if "running" in name}
        results.append((h.data, grads, running))
    (h, grads, running), (ref_h, ref_grads, ref_running) = results
    np.testing.assert_allclose(h, ref_h, rtol=1e-10, atol=1e-12)
    assert set(grads) == set(ref_grads) and (grads or not taped)
    for name in grads:
        np.testing.assert_allclose(grads[name], ref_grads[name], rtol=1e-10, atol=1e-12,
                                   err_msg=name)
    assert set(running) == set(ref_running)
    for name in running:
        np.testing.assert_allclose(running[name], ref_running[name], rtol=1e-10, atol=1e-12,
                                   err_msg=name)
        if not update_stats:
            np.testing.assert_array_equal(running[name], params[name].data)


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
        # train mode, the one mode that records, over an entry and a residual block
        cfg = RunConfig(enc_blocks=2, enc_channels=[4, 4], enc_hidden=8, embed_dim=4)
        params = init_params(cfg, RngStream(14).split("e")).astype(np.float64)
        x = _input((2, 8, 3, 5), seed=11, dtype=np.float64)
        weights = np.random.default_rng(1).normal(size=(2, cfg.enc_channels[-1]))

        def f():
            h = stgcn_forward(x, _adjacency(5, np.float64), params, mode="train",
                              update_stats=False)
            return T.sum_(T.mul(h, weights))

        res = T.grad_check(f, params.trainable())
        assert res.max_rel_error < 1e-6

    def test_full_encoder_with_projector(self):
        params = init_params(TINY, RngStream(15).split("e")).astype(np.float64)
        x = _input((2, 8, 3, 5), seed=12, dtype=np.float64)
        target = np.random.default_rng(2).normal(size=(2, TINY.embed_dim))

        def f():
            _, z = encode(x, _adjacency(5, np.float64), params, mode="train", update_stats=False)
            return T.sum_(T.mul(z, target))

        # a plain central difference is off by 1.0e-6 here at the default eps
        # of 1e-4; the extrapolated difference `grad_check` takes, by 5.8e-11
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
