"""Optimizer step, stage schedule, and pretraining's stage-end hook."""

import gc
import tracemalloc

import numpy as np
import pytest

import skelcl.train
from skelcl import tensor as T
from skelcl.augment import AugmentPipeline
from skelcl.config import RunConfig
from skelcl.errors import NonFiniteGradient, NonFiniteLoss
from skelcl.skeleton import (
    SkeletonSequence,
    build_star_tree,
    derive_bone,
    derive_motion,
    generate_synthetic_dataset,
)
from skelcl.train import init_train_state, pretrain, sgd_step, stage_of


def test_sgd_two_steps_match_closed_form():
    lr, m, wd = 0.1, 0.9, 0.01
    theta0 = np.array([1.0, -2.0, 0.5])
    g1, g2 = np.array([0.3, 0.1, -0.2]), np.array([-0.4, 0.2, 0.6])
    p = T.parameter(theta0.copy())
    buffers = {"p": np.zeros(3)}
    sgd_step({"p": p}, {p: T.Tensor(g1)}, buffers, lr, m, wd)
    sgd_step({"p": p}, {p: T.Tensor(g2)}, buffers, lr, m, wd)

    buf1 = g1 + wd * theta0
    theta1 = theta0 - lr * buf1
    buf2 = m * buf1 + g2 + wd * theta1
    np.testing.assert_allclose(p.data, theta1 - lr * buf2, rtol=1e-12)
    np.testing.assert_allclose(buffers["p"], buf2, rtol=1e-12)


def test_sgd_missing_gradient_counts_as_zero():
    a, b = T.parameter(np.array([1.0, 2.0])), T.parameter(np.array([3.0]))
    buffers = {"a": np.zeros(2), "b": np.zeros(1)}
    sgd_step({"a": a, "b": b}, {a: T.Tensor(np.array([1.0, 1.0]))}, buffers, 0.5, 0.9, 0.1)
    np.testing.assert_allclose(b.data, [3.0 - 0.5 * 0.1 * 3.0])
    np.testing.assert_allclose(buffers["b"], [0.1 * 3.0])


def test_sgd_in_place_step_matches_out_of_place_formula_float32():
    """50 float32 steps, with an lr drop, equal the out-of-place
    g' = g + wd*p; buf = m*buf + g'; p = p - lr*buf evaluated term by term."""
    rng = np.random.default_rng(0)
    p = T.parameter(rng.normal(size=(7, 5)).astype(np.float32))
    ref_p, ref_buf, buffers = p.data.copy(), None, {"p": np.zeros_like(p.data)}
    for step in range(50):
        g = rng.normal(size=p.shape).astype(np.float32)
        lr = 0.1 if step < 25 else 0.01
        sgd_step({"p": p}, {p: T.Tensor(g)}, buffers, lr, 0.9, 1e-4)
        g_wd = g + 1e-4 * ref_p
        ref_buf = g_wd if ref_buf is None else 0.9 * ref_buf + g_wd
        ref_p = ref_p - lr * ref_buf
    assert p.data.dtype == buffers["p"].dtype == np.float32
    assert np.array_equal(p.data, ref_p) and np.array_equal(buffers["p"], ref_buf)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sgd_non_finite_gradient_raises(bad):
    p = T.parameter(np.array([1.0, 2.0]))
    with pytest.raises(NonFiniteGradient, match="p"):
        sgd_step({"p": p}, {p: T.Tensor(np.array([0.0, bad]))}, {}, 0.1, 0.9, 0.0)


@pytest.mark.parametrize(
    "epochs,stages",
    [
        ((0, 1, 1), [1, 2]),  # no basic epochs: mining from the start
        ((1, 0, 0), [0]),  # basic only
        ((2, 0, 1), [0, 0, 2]),
    ],
)
def test_stage_schedule_skips_empty_stages(epochs, stages):
    config = RunConfig(stage_epochs=list(epochs))
    assert sum(config.stage_epochs) == len(stages)
    assert [stage_of(config, e) for e in range(len(stages))] == stages


@pytest.mark.parametrize("epochs,fired", [([1, 0, 1], [(0, 1), (2, 2)]),
                                          ([0, 1, 1], [(1, 1), (2, 2)])])
def test_on_stage_end_fires_once_per_nonempty_stage(epochs, fired):
    data = generate_synthetic_dataset(2, 2, frames=16, seed=1, check_separability=False)
    config = RunConfig(stage_epochs=epochs, queue_size=4, batch_size=4, enc_blocks=1,
                       enc_channels=[4], enc_hidden=8, embed_dim=4)
    calls = []
    pretrain(data, config, on_stage_end=lambda state, stage: calls.append((stage, state.epoch)))
    assert calls == fired


def test_one_step_augments_each_branch_once_and_derives_streams_from_it(monkeypatch):
    data = generate_synthetic_dataset(2, 2, frames=16, seed=1, check_separability=False)
    config = RunConfig(stage_epochs=[1, 0, 0], queue_size=4, batch_size=4, enc_blocks=1,
                       enc_channels=[4], enc_hidden=8, embed_dim=4, key_family="extreme")
    calls, views = [], []
    apply_array = AugmentPipeline.apply_array
    augment_batch = skelcl.train._augment_batch

    def counted(self, batch, rng):
        calls.append(self.family)
        return apply_array(self, batch, rng)

    def recorded(*args):
        views.append(augment_batch(*args))
        return views[-1]

    monkeypatch.setattr(AugmentPipeline, "apply_array", counted)
    monkeypatch.setattr(skelcl.train, "_augment_batch", recorded)
    _, records = pretrain(data, config)
    assert len(records) == 1 + 1  # header, then the one step
    assert calls == ["normal", "extreme"]
    graph = data[0].graph
    for view in views:
        assert set(view) == {"joint", "bone", "motion"}
        np.testing.assert_array_equal(view["bone"], derive_bone(view["joint"], graph))
        np.testing.assert_array_equal(view["motion"], derive_motion(view["joint"]))


@pytest.mark.parametrize("param,op", [("block0.spatial_weight", "stgcn_block"),
                                      ("projector.w2", "matmul")])
def test_non_finite_parameter_names_op_step_and_stream(param, op):
    data = generate_synthetic_dataset(2, 2, frames=16, seed=1, check_separability=False)
    config = RunConfig(stage_epochs=[0, 1, 1], queue_size=4, batch_size=4, enc_blocks=1,
                       enc_channels=[4], enc_hidden=8, embed_dim=4)
    state = init_train_state(config)
    state.pairs["bone"].query[param].data[0, 0] = np.nan
    with pytest.raises(NonFiniteLoss, match="bone encoder pass") as err:
        pretrain(data, config, state=state)
    e = err.value
    assert (e.op, e.epoch, e.step, e.stage, e.stream) == (op, 0, 0, "basic+nnm", "bone")


def test_non_finite_loss_has_no_stream(monkeypatch):
    data = generate_synthetic_dataset(2, 2, frames=16, seed=1, check_separability=False)
    config = RunConfig(stage_epochs=[1, 0, 0], queue_size=4, batch_size=4, enc_blocks=1,
                       enc_channels=[4], enc_hidden=8, embed_dim=4)

    def overflowing(*args):
        return T.exp(T.Tensor(np.array([1e4], dtype=np.float32)))

    monkeypatch.setattr(skelcl.train, "combine_losses", overflowing)
    with pytest.raises(NonFiniteLoss) as err:
        pretrain(data, config)
    e = err.value
    assert (e.op, e.epoch, e.step, e.stage, e.stream) == ("exp", 0, 0, "basic", None)


def test_pretrain_leaves_no_tape_node_for_the_collector():
    # each backward releases its step's graph, so with the cyclic
    # collector off no TapeNode outlives the run
    sequences = generate_synthetic_dataset(2, 4, frames=16, joints=9, seed=1,
                                           check_separability=False)
    config = RunConfig(stage_epochs=[1, 1, 1], queue_size=4, batch_size=4, enc_blocks=1,
                       enc_channels=[4], enc_hidden=8, embed_dim=4)
    gc.collect()
    gc.disable()
    try:
        pretrain(sequences, config)
        assert not any(isinstance(o, T.TapeNode) for o in gc.get_objects())
    finally:
        gc.enable()


def test_pretrain_stacks_each_batch_not_the_split():
    # the split (1.9 MB) dwarfs one step's working set, so a stacked copy
    # of it would set the peak; pretrain stacks only each step's batch
    rng = np.random.default_rng(4)
    graph = build_star_tree(5)
    data = [SkeletonSequence(rng.normal(size=(64, 3, 5)), graph, 0) for _ in range(500)]
    split_bytes = sum(s.data.nbytes for s in data)
    config = RunConfig(streams=["joint"], stage_epochs=[1, 0, 0], queue_size=8, batch_size=4,
                       enc_blocks=1, enc_channels=[4], enc_hidden=8, embed_dim=4)
    tracemalloc.start()
    try:
        _, records = pretrain(data, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(records) == 1 + 125
    assert peak < 0.5 * split_bytes, peak / split_bytes
