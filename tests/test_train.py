"""Optimizer step, stage schedule, and pretraining's stage-end hook."""

import gc

import numpy as np
import pytest

import skelcl.train
from skelcl import tensor as T
from skelcl.augment import AugmentPipeline
from skelcl.config import RunConfig
from skelcl.errors import NonFiniteGradient
from skelcl.skeleton import derive_bone, derive_motion, generate_synthetic_dataset
from skelcl.train import OptimizerState, pretrain, sgd_step, stage_of


def test_sgd_two_steps_match_closed_form():
    lr, m, wd = 0.1, 0.9, 0.01
    theta0 = np.array([1.0, -2.0, 0.5])
    g1, g2 = np.array([0.3, 0.1, -0.2]), np.array([-0.4, 0.2, 0.6])
    p = T.parameter(theta0.copy())
    state = OptimizerState(lr=lr, momentum=m, weight_decay=wd)
    sgd_step({"p": p}, {p: T.Tensor(g1)}, state)
    sgd_step({"p": p}, {p: T.Tensor(g2)}, state)

    buf1 = g1 + wd * theta0
    theta1 = theta0 - lr * buf1
    buf2 = m * buf1 + g2 + wd * theta1
    np.testing.assert_allclose(p.data, theta1 - lr * buf2, rtol=1e-12)
    np.testing.assert_allclose(state.buffers["p"], buf2, rtol=1e-12)


def test_sgd_missing_gradient_counts_as_zero():
    a, b = T.parameter(np.array([1.0, 2.0])), T.parameter(np.array([3.0]))
    state = OptimizerState(lr=0.5, momentum=0.9, weight_decay=0.1)
    sgd_step({"a": a, "b": b}, {a: T.Tensor(np.array([1.0, 1.0]))}, state)
    np.testing.assert_allclose(b.data, [3.0 - 0.5 * 0.1 * 3.0])
    np.testing.assert_allclose(state.buffers["b"], [0.1 * 3.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sgd_non_finite_gradient_raises(bad):
    p = T.parameter(np.array([1.0, 2.0]))
    with pytest.raises(NonFiniteGradient, match="p"):
        sgd_step({"p": p}, {p: T.Tensor(np.array([0.0, bad]))},
                 OptimizerState(lr=0.1, momentum=0.9, weight_decay=0.0))


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
