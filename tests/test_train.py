"""Optimizer step, stage schedule, and pretraining's stage-end hook."""

import gc
import tracemalloc
import warnings

import numpy as np
import pytest

import skelcl.train
from skelcl import tensor as T
from skelcl.augment import AugmentPipeline
from skelcl.config import RunConfig
from skelcl.errors import ConfigValueError, NonFiniteLoss, NonFiniteValue
from skelcl.skeleton import (
    SkeletonSequence,
    build_star_tree,
    derive_bone,
    derive_motion,
    generate_synthetic_dataset,
)
from skelcl.rng import RngStream
from skelcl.train import check_pretrain, init_train_state, pretrain, sgd_step, stage_of


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
    # the update writes the bad gradient into the parameter, and the check
    # of the written array names it
    p = T.parameter(np.array([1.0, 2.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFiniteValue, match="sgd_step left p non-finite") as err:
            sgd_step({"p": p}, {p: T.Tensor(np.array([0.0, bad]))}, {"p": np.zeros(2)}, 0.1,
                     0.9, 0.0)
    assert err.value.op == "sgd_step"


def test_sgd_overflowing_update_raises():
    # a finite gradient whose step overflows float32
    p = T.parameter(np.array([1.0, 2.0], dtype=np.float32))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFiniteValue, match="sgd_step left p non-finite"):
            sgd_step({"p": p}, {p: T.Tensor(np.array([0.0, 1e3], dtype=np.float32))},
                     {"p": np.zeros(2, dtype=np.float32)}, 1e37, 0.9, 0.0)


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

    def recorded(*args, **kwargs):
        views.append(augment_batch(*args, **kwargs))
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


def test_pretrain_leaves_every_clip_untouched():
    # each branch augments its view in place over a stack of the batch
    data = generate_synthetic_dataset(2, 3, frames=16, seed=1, check_separability=False)
    before = [s.data.tobytes() for s in data]
    config = RunConfig(stage_epochs=[1, 1, 1], queue_size=4, batch_size=4, enc_blocks=1,
                       enc_channels=[4], enc_hidden=8, embed_dim=4, query_family="extreme",
                       key_family="extreme", extreme_prob=1.0)
    pretrain(data, config)
    assert [s.data.tobytes() for s in data] == before


@pytest.mark.parametrize("param,op", [("block0.spatial_weight", "stgcn_block"),
                                      ("projector.w2", "projector")])
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


def test_desk_step_records_one_node_per_block_and_projector_pass(monkeypatch):
    # the desk architecture (the default config): per stream three blocks
    # and one projector node (the transpose of a raw batch records none),
    # then one queue_nll node; the last stage adds one PFT node per
    # stream's intra term
    data = generate_synthetic_dataset(2, 4, frames=16, seed=1, check_separability=False)
    config = RunConfig(stage_epochs=[1, 1, 1], queue_size=8, batch_size=8)
    nodes = []
    backward = T.backward

    def counted(loss):
        nodes.append(len(loss.node.tape.nodes))  # as the benchmark's tracer counts them
        return backward(loss)

    monkeypatch.setattr(T, "backward", counted)
    pretrain(data, config)
    assert nodes == [13, 13, 16]


def test_split_one_over_a_batch_multiple_makes_no_one_clip_step(monkeypatch):
    # 9 clips at batch 4: the lone ninth clip joins the second batch, and
    # the queue must hold that batch's 5 keys
    data = generate_synthetic_dataset(3, 3, frames=16, seed=1, check_separability=False)
    tiny = dict(stage_epochs=[1, 0, 0], batch_size=4, enc_blocks=1, enc_channels=[4],
                enc_hidden=8, embed_dim=4)
    with pytest.raises(ConfigValueError, match="4 < 5 keys per step"):
        check_pretrain(data, RunConfig(queue_size=4, **tiny))
    sizes = []
    branch_views = skelcl.train.branch_views

    def recorded(joints, *args):
        sizes.append(len(joints))
        return branch_views(joints, *args)

    monkeypatch.setattr(skelcl.train, "branch_views", recorded)
    _, records = pretrain(data, RunConfig(queue_size=5, **tiny))
    assert sizes == [4, 5] and len(records) == 1 + 2


def test_fit_head_makes_no_one_clip_step(monkeypatch):
    # 33 rows at 32 a batch are one batch of 33 in every epoch
    rng = np.random.default_rng(5)
    h, y, sizes = rng.normal(size=(33, 4)).astype(np.float32), np.arange(33) % 3, []
    kernel = T.linear_head

    def recorded(rows, theta, labels):
        sizes.append(len(rows))
        return kernel(rows, theta, labels)

    monkeypatch.setattr(T, "linear_head", recorded)
    skelcl.train._fit_head(h, 4, y, 3, {}, 0.1, 0.0, RngStream(1).split("head"), epochs=2)
    assert skelcl.train.PROTOCOL_BATCH == 32 and sizes == [33, 33]


def reference_frozen_head(h, y, num_classes, lr, weight_decay, rng, epochs):
    """The frozen head stepped as a separate weight and bias: a gather of
    each step's rows, the head kernel's NumPy calls in their order, and
    one momentum update per array."""
    w = np.zeros((h.shape[1], num_classes), dtype=np.float32)
    b = np.zeros(num_classes, dtype=np.float32)
    buffers = [np.zeros_like(w), np.zeros_like(b)]
    for epoch in range(epochs):
        order = rng.split(f"e{epoch}").generator().permutation(len(y))
        for piece in T.pieces(len(y), 32):
            idx = order[piece]
            rows, labels = h[idx], y[idx]
            batch = len(rows)
            exps = rows @ w + b
            exps -= exps.max(axis=-1, keepdims=True)
            index = (np.arange(batch), labels)
            log_numer = exps[index][:, None]
            np.exp(exps, out=exps)
            denom = exps.sum(axis=-1, keepdims=True)
            loss = np.add.reduce((np.log(denom) - log_numer)[..., 0], axis=0) / batch
            g = (np.ones_like(loss) / batch)[..., None]
            np.multiply(exps, g / denom, out=exps)
            exps[index] -= g[..., 0]
            grads = (rows.T @ exps, exps.sum(axis=0))
            for theta, grad, buf in zip((w, b), grads, buffers):
                step = weight_decay * theta
                step += grad
                buf *= 0.9
                buf += step
                theta -= lr * buf
    return w, b


@pytest.mark.parametrize("n", [33, 61, 150])
@pytest.mark.parametrize("dim", [4, 32])
def test_frozen_head_bit_equals_separate_weight_and_bias(n, dim):
    # one packed head, one gather per epoch and one update per step leave
    # the weight and bias byte for byte as per-step gathers and two updates
    rng = np.random.default_rng(n * dim)
    h = rng.normal(size=(n, dim)).astype(np.float32)
    y = rng.integers(0, 5, size=n)
    stream = RngStream(3).split("head")
    w, b = skelcl.train._fit_head(h, dim, y, 5, {}, 0.3, 1e-3, stream, epochs=3)
    ref_w, ref_b = reference_frozen_head(h, y, 5, 0.3, 1e-3, stream, epochs=3)
    assert (w.shape, b.shape) == (ref_w.shape, ref_b.shape)
    assert (w.dtype, b.dtype) == (ref_w.dtype, ref_b.dtype)
    assert w.tobytes() == ref_w.tobytes() and b.tobytes() == ref_b.tobytes()


OVERFLOW_CONFIG = dict(queue_size=8, batch_size=8, enc_blocks=1, enc_channels=[4],
                       enc_hidden=8, embed_dim=4, lr=1e37)


def test_overflowing_update_names_op_step_and_stream():
    # a finite loss whose update at lr 1e37 leaves the first stream's
    # projector non-finite fails at that update, not at a later step
    data = generate_synthetic_dataset(2, 4, frames=16, seed=1, check_separability=False)
    config = RunConfig(stage_epochs=[1, 0, 0], **OVERFLOW_CONFIG)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFiniteLoss, match="joint update") as err:
            pretrain(data, config)
    e = err.value
    assert (e.op, e.epoch, e.step, e.stage, e.stream) == ("sgd_step", 0, 0, "basic", "joint")
    assert "joint.projector.w2" in str(e) and "lr=1e+37" in str(e)


def test_zero_norm_embedding_names_op_step_and_stream():
    # this config's motion projector maps a clip of step 0 to a zero row,
    # which `l2_normalize` refuses; pretrain reports it like a NaN
    data = generate_synthetic_dataset(5, 12, frames=16, seed=3)
    config = RunConfig(seed=6, stage_epochs=[0, 1, 2], queue_size=32, batch_size=16,
                       enc_blocks=1, enc_channels=[4], enc_hidden=8, embed_dim=8,
                       key_family="extreme", pft_apply_to_inter=True, nnm_topk=2)
    with pytest.raises(NonFiniteLoss, match="motion encoder pass: row norm") as err:
        pretrain(data, config)
    e = err.value
    assert (e.op, e.epoch, e.step, e.stage, e.stream) == (
        "l2_normalize", 0, 0, "basic+nnm", "motion")


@pytest.mark.parametrize("scale", [1e19, 1e30])
def test_overflowing_batch_variance_names_the_block(scale):
    # the joint block's batch variance overflows at step 0; it is named,
    # not found later as a zero row downstream
    data = [SkeletonSequence(s.data * scale, s.graph, s.label)
            for s in generate_synthetic_dataset(3, 6, frames=16, joints=9, seed=1)[:12]]
    config = RunConfig(enc_blocks=1, enc_channels=[4], enc_hidden=8, embed_dim=4, batch_size=6,
                       queue_size=12, stage_epochs=[1, 0, 0], streams=["joint"])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFiniteLoss, match="joint encoder pass") as err:
            pretrain(data, config)
    e = err.value
    assert (e.op, e.epoch, e.step, e.stage, e.stream) == ("stgcn_block", 0, 0, "basic", "joint")


def test_overflowing_update_writes_no_stage_end_checkpoint():
    data = generate_synthetic_dataset(2, 4, frames=16, seed=1, check_separability=False)
    config = RunConfig(stage_epochs=[1, 1, 0], **OVERFLOW_CONFIG)
    calls = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFiniteLoss) as err:
            pretrain(data, config, on_stage_end=lambda state, stage: calls.append(stage))
    assert calls == []
    assert (err.value.epoch, err.value.stage) == (0, "basic")


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


QUEUE_SHAPED = dict(enc_blocks=1, enc_channels=[8], embed_dim=128, queue_size=4096)


def test_queue_fill_equals_one_draw_of_the_whole_ring():
    # 600 rows: two full blocks and a ragged one, drawn in turn from one generator
    config = RunConfig(**dict(QUEUE_SHAPED, queue_size=600))
    state = init_train_state(config)
    for u, q in state.queues.items():
        fill = RngStream(config.seed).split(f"queue_init.{u}").generator().normal(size=(600, 128))
        fill /= np.linalg.norm(fill, axis=1, keepdims=True)
        assert q.slots.tobytes() == fill.astype(np.float32).tobytes()
        assert (q.head, q.filled) == (0, 600)


def test_queue_fill_holds_no_whole_ring_draw():
    # three 4096 x 128 rings: a float64 draw of one ring, its norm
    # temporary and a float32 copy of it (4.2, 4.2 and 2.1 MB) once set
    # the peak; now the peak passes what the state holds by under half a ring
    config = RunConfig(**QUEUE_SHAPED)
    tracemalloc.start()
    try:
        state = init_train_state(config)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    ring_bytes = state.queues["joint"].slots.nbytes
    assert peak - held < 0.5 * ring_bytes, (peak - held) / ring_bytes
