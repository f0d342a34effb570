"""Optimizer step, stage schedule, and pretraining's stage-end hook."""

import numpy as np
import pytest

from skelcl import tensor as T
from skelcl.config import RunConfig
from skelcl.errors import NonFiniteGradient
from skelcl.skeleton import generate_synthetic_dataset
from skelcl.train import OptimizerState, StageSchedule, pretrain, sgd_step, stage_schedule


def test_sgd_two_steps_match_closed_form():
    lr, m, wd = 0.1, 0.9, 0.01
    theta0 = np.array([1.0, -2.0, 0.5])
    g1, g2 = np.array([0.3, 0.1, -0.2]), np.array([-0.4, 0.2, 0.6])
    p = T.parameter(theta0.copy())
    state = OptimizerState(lr=lr, momentum=m, weight_decay=wd)
    sgd_step({"p": p}, {"p": g1}, state)
    sgd_step({"p": p}, {"p": g2}, state)

    buf1 = g1 + wd * theta0
    theta1 = theta0 - lr * buf1
    buf2 = m * buf1 + g2 + wd * theta1
    np.testing.assert_allclose(p.data, theta1 - lr * buf2, rtol=1e-12)
    np.testing.assert_allclose(state.buffers["p"], buf2, rtol=1e-12)


def test_sgd_missing_gradient_counts_as_zero():
    a, b = T.parameter(np.array([1.0, 2.0])), T.parameter(np.array([3.0]))
    state = OptimizerState(lr=0.5, momentum=0.9, weight_decay=0.1)
    sgd_step({"a": a, "b": b}, {"a": np.array([1.0, 1.0])}, state)
    np.testing.assert_allclose(b.data, [3.0 - 0.5 * 0.1 * 3.0])
    np.testing.assert_allclose(state.buffers["b"], [0.1 * 3.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sgd_non_finite_gradient_raises(bad):
    p = T.parameter(np.array([1.0, 2.0]))
    with pytest.raises(NonFiniteGradient, match="p"):
        sgd_step({"p": p}, {"p": np.array([0.0, bad])}, OptimizerState(lr=0.1))


@pytest.mark.parametrize(
    "epochs,stages",
    [
        ((0, 1, 1), [1, 2]),  # no basic epochs: mining from the start
        ((1, 0, 0), [0]),  # basic only
        ((2, 0, 1), [0, 0, 2]),
    ],
)
def test_stage_schedule_skips_empty_stages(epochs, stages):
    schedule = StageSchedule(epochs, lr_drop_epoch=0)
    assert schedule == stage_schedule(RunConfig(stage_epochs=list(epochs), lr_drop_epoch=0))
    assert schedule.total_epochs == len(stages)
    assert [schedule.stage_of(e) for e in range(len(stages))] == stages
    assert [schedule.flags(e) for e in range(len(stages))] == [(s >= 1, s >= 2) for s in stages]


@pytest.mark.parametrize("epochs,fired", [([1, 0, 1], [(0, 1), (2, 2)]),
                                          ([0, 1, 1], [(1, 1), (2, 2)])])
def test_on_stage_end_fires_once_per_nonempty_stage(epochs, fired):
    data = generate_synthetic_dataset(2, 2, frames=16, seed=1, check_separability=False)
    config = RunConfig(stage_epochs=epochs, queue_size=4, batch_size=4, enc_blocks=1,
                       enc_channels=[4], enc_hidden=8, embed_dim=4)
    calls = []
    pretrain(data, config, on_stage_end=lambda state, stage: calls.append((stage, state.epoch)))
    assert calls == fired
