"""One gradient check of a whole pretraining step, in float64.

A step composes three streams' encoders (three blocks each, batch
statistics in train mode) and projectors with every intra and inter
term of `combine_losses`: `queue_nll`'s block split, neighbour mining
from stage 2 and the extrapolation (PFT) in stage 3.  The per-node cases
of `skelcl gradcheck` check each node alone; here the reverse-mode
directional derivative <grad L, d> of the step's loss is compared, in
each stage, with a Richardson difference along random directions d over
every query parameter.  A direction whose perturbation changes a
recorded decision (a relu sign, a mined index, a PFT mask:
`T.record_kink`) is skipped, since the loss is only piecewise smooth
across it.
"""

import numpy as np
import pytest

from skelcl import contrast
from skelcl import tensor as T
from skelcl.config import RunConfig
from skelcl.encoder import project, stgcn_forward
from skelcl.rng import RngStream
from skelcl.skeleton import generate_synthetic_dataset, shared_graph
from skelcl.train import branch_views, init_train_state

CONFIG = RunConfig(enc_blocks=3, enc_channels=[4, 4, 8], enc_hidden=8, embed_dim=4,
                   batch_size=8, queue_size=16, nnm_topk=2, pft_apply_to_inter=True)
EPS = 1e-5
DIRECTIONS = 3
TOLERANCE = 1e-6
ORIGINAL_PFT = contrast.pft_transform


class FrozenKeyMix:
    """`contrast.pft_transform` with its key side held at the values of a
    recorded evaluation: the key mix reads the query as a constant, so
    the analytic gradient is that of a loss whose key mix does not move."""

    def __init__(self):
        self.recorded = None
        self.calls = []

    def __call__(self, zq, zk, lam):
        zq_eff, zk_eff, applied = ORIGINAL_PFT(zq, zk, lam)
        self.calls.append(zk_eff)
        if self.recorded is not None:
            zk_eff = self.recorded[len(self.calls) - 1]
        return zq_eff, zk_eff, applied


@pytest.fixture(scope="module")
def step():
    """(loss(stage), query parameters): a float64 state and one batch of
    eight clips of a 3 x 4 clip set, with its keys encoded once (the key
    encoders take no gradient)."""
    clips = generate_synthetic_dataset(num_classes=3, per_class=4, frames=16, seed=5)
    graph = shared_graph(clips)
    adjacency = graph.normalized_adjacency(np.float64)
    state = init_train_state(CONFIG)
    for pair in state.pairs.values():
        pair.query, pair.key = pair.query.astype(np.float64), pair.key.astype(np.float64)
    for queue in state.queues.values():
        queue.slots = queue.slots.astype(np.float64)
    order = np.random.default_rng(5).permutation(len(clips))[: CONFIG.batch_size]
    joints = np.stack([clips[i].data for i in order])
    views = branch_views(joints, CONFIG, lambda b: RngStream(5).split(b), graph, CONFIG.streams)
    views = {b: {u: x.astype(np.float64) for u, x in view.items()} for b, view in views.items()}
    keys = {}
    with T.no_tape():
        for u, pair in state.pairs.items():
            h = stgcn_forward(views["k"][u], adjacency, pair.key, mode="train", update_stats=False)
            keys[u] = project(h, pair.key).data

    def loss(stage):
        embeddings = {}
        for u, pair in state.pairs.items():
            h = stgcn_forward(views["q"][u], adjacency, pair.query, mode="train",
                              update_stats=False)
            embeddings[u] = (project(h, pair.query), keys[u])
        result = contrast.combine_losses(embeddings, state.queues, CONFIG, stage >= 1, stage >= 2,
                                         RngStream(5).split("pft"))
        return result.total

    params = {f"{u}.{name}": t for u, pair in state.pairs.items()
              for name, t in pair.query.trainable().items()}
    return loss, params


def directional_errors(f, params, seed):
    """Relative errors |a - n| / (|a| + |n|) of the analytic <grad f, d>
    against the Richardson difference, for `DIRECTIONS` unit directions d
    drawn from `seed`; None for a direction that crosses a kink."""
    with T.Tape():
        grads = T.backward(f())
    rng = np.random.default_rng(seed)
    saved = {name: p.data.copy() for name, p in params.items()}
    with T.no_tape(), T._bound("kink_trace", []) as base:
        f()
    errors = []
    for _ in range(DIRECTIONS):
        d = {name: rng.normal(size=p.shape) for name, p in params.items()}
        norm = np.sqrt(sum((v * v).sum() for v in d.values()))
        analytic = sum((grads[p].data * d[name]).sum() for name, p in params.items()) / norm
        values, crossed = [], False
        for h in (EPS, -EPS, 2 * EPS, -2 * EPS):
            for name, p in params.items():
                p.data[...] = saved[name] + (h / norm) * d[name]
            with T.no_tape(), T._bound("kink_trace", []) as trace:
                values.append(f().item())
            crossed |= len(trace) != len(base) or not all(
                np.array_equal(a, b) for a, b in zip(trace, base))
        for name, p in params.items():
            p.data[...] = saved[name]
        if crossed:
            errors.append(None)
            continue
        narrow = (values[0] - values[1]) / (2 * EPS)
        wide = (values[2] - values[3]) / (4 * EPS)
        numeric = (4 * narrow - wide) / 3
        errors.append(abs(analytic - numeric) / (abs(analytic) + abs(numeric)))
    return errors


@pytest.mark.parametrize("stage", [0, 1, 2], ids=["basic", "nnm", "nnm_pft"])
def test_step_gradient_matches_directional_differences(step, stage, monkeypatch):
    loss, params = step
    frozen = FrozenKeyMix()
    monkeypatch.setattr(contrast, "pft_transform", frozen)

    def f():
        frozen.calls = []
        return loss(stage)

    f()
    frozen.recorded = frozen.calls
    errors = directional_errors(f, params, seed=stage)
    checked = [e for e in errors if e is not None]
    assert len(checked) >= DIRECTIONS - 1, errors
    assert max(checked) < TOLERANCE, errors
    if stage == 2:
        assert len(frozen.recorded) == len(CONFIG.streams) ** 2  # every term extrapolates


def test_step_gradient_leaves_out_the_key_mix(step):
    # PFT's key side reads the query as a constant (a stop-gradient), so
    # with the key mix free to move the differences see a term that the
    # analytic gradient leaves out by design
    loss, params = step
    errors = directional_errors(lambda: loss(2), params, seed=2)
    checked = [e for e in errors if e is not None]
    assert len(checked) >= DIRECTIONS - 1, errors
    assert min(checked) > 100 * TOLERANCE, errors
