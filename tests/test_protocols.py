"""Evaluation protocols: linear probe, kNN probe, finetune, subsets, fusion."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

import skelcl.train
from skelcl import tensor as T
from skelcl.config import RunConfig
from skelcl.encoder import EncoderParams, encode, init_params, project, stgcn_forward
from skelcl.errors import (
    ConfigTypeError,
    ConfigValueError,
    EmptyValSplit,
    EncoderModified,
    InvalidLabel,
    LengthMismatch,
    NonFiniteValue,
    ShapeMismatch,
    UnlabeledClip,
)
from skelcl.rng import RngStream
from skelcl.skeleton import (
    SkeletonGraph,
    SkeletonSequence,
    clip_batch,
    derive_streams,
    generate_synthetic_dataset,
    stratified_pick,
    write_dataset,
)
from skelcl.train import (
    PROTOCOL_BATCH,
    eval_features,
    finetune,
    fuse_predictions,
    knn_probe,
    linear_probe,
    pretrain,
)

TINY = RunConfig(enc_blocks=1, enc_channels=[4], enc_hidden=8, embed_dim=4)


@pytest.fixture(scope="module")
def splits():
    data = generate_synthetic_dataset(3, 6, frames=16, seed=2, check_separability=False)
    return data[0::2], data[1::2]


@pytest.fixture
def params():
    return init_params(TINY, RngStream(5).split("enc"))


def test_linear_probe_deterministic_and_encoder_untouched(splits, params):
    train, val = splits
    digest = params.digest()
    a = linear_probe(params, train, val, stream="joint", epochs=3, lr=0.3, seed=1)
    b = linear_probe(params, train, val, stream="joint", epochs=3, lr=0.3, seed=1)
    assert a.accuracy == b.accuracy
    np.testing.assert_array_equal(a.weights, b.weights)
    np.testing.assert_array_equal(a.val_scores, b.val_scores)
    assert a.encoder_digest_before == a.encoder_digest_after == digest
    assert params.digest() == digest


def test_linear_probe_raises_when_encoder_changes(splits, params, monkeypatch):
    # a digest that differs between the before and after readings stands
    # in for a probe that wrote to the encoder
    readings = iter(["before", "after"])
    monkeypatch.setattr(EncoderParams, "digest", lambda self: next(readings))
    train, val = splits
    with pytest.raises(EncoderModified):
        linear_probe(params, train, val, stream="joint", epochs=1, lr=0.3, seed=1)


def test_knn_probe_equals_brute_force_vote(splits, params):
    train, val = splits
    k = 3

    def embed(seqs):
        x = np.stack([s.data for s in seqs])
        with T.no_tape():
            _, z = encode(x, seqs[0].graph.normalized_adjacency(np.float32), params)
        return z.data.astype(np.float64)

    z_train, z_val = embed(train), embed(val)
    correct = 0
    for zv, seq in zip(z_val, val):
        ranked = sorted(range(len(train)), key=lambda j: (-float(z_train[j] @ zv), j))
        votes = {}
        for j in ranked[:k]:
            votes[train[j].label] = votes.get(train[j].label, 0) + 1
        best = max(votes.values())
        correct += min(c for c, n in votes.items() if n == best) == seq.label
    assert knn_probe(params, train, val, stream="joint", k=k) == correct / len(val)


def test_finetune_fraction_keeps_every_class(splits, params):
    train, val = splits
    result = finetune(params, train, val, stream="joint", fraction=0.1, epochs=1, lr=0.1,
                      weight_decay=1e-4, seed=3)
    labels = np.array([s.label for s in train])
    subset = stratified_pick(labels, 0.1, RngStream(3).split("finetune").split("subset").generator(),
                             floor=1)
    assert {train[i].label for i in subset} == {s.label for s in train}
    assert result.subset_size == len(subset) == 3
    assert result.encoder_digest_before == params.digest()


def test_finetune_subset_counts_order_and_range(splits, params):
    # finetuning's subset is `stratified_pick` with a one-per-class floor,
    # and a fraction outside (0, 1] is refused by name
    train, val = splits
    labels = np.array([s.label for s in train])

    def pick(fraction):
        return stratified_pick(labels, fraction, RngStream(0).split("s").generator(), floor=1)

    picked = pick(0.5)
    assert picked == sorted(set(picked))
    for cls in np.unique(labels):
        n = int((labels == cls).sum())
        assert int((labels[picked] == cls).sum()) == max(1, round(n * 0.5))
    assert picked == pick(0.5)
    assert pick(1.0) == list(range(len(train)))
    assert len(pick(0.01)) == len(np.unique(labels))
    for bad in (0.0, 1.5, np.nan):
        with pytest.raises(ConfigValueError) as err:
            finetune(params, train, val, stream="joint", fraction=bad, epochs=1, lr=0.1,
                     weight_decay=0.0, seed=0)
        assert err.value.key == "fraction"


def test_fuse_predictions_weighted_argmax():
    scores = {"joint": np.array([[0.6, 0.4], [0.2, 0.8]]), "bone": np.array([[0.1, 0.9], [0.7, 0.3]])}
    fused, labels = fuse_predictions(scores, {"joint": 1.0, "bone": 3.0})
    np.testing.assert_allclose(fused, [[0.9, 3.1], [2.3, 1.7]])
    np.testing.assert_array_equal(labels, [1, 0])
    _, labels = fuse_predictions(scores, {"joint": 10.0, "bone": 1.0})
    np.testing.assert_array_equal(labels, [0, 1])
    with pytest.raises(LengthMismatch):
        fuse_predictions({"joint": np.zeros((2, 2)), "bone": np.zeros((3, 2))},
                         {"joint": 1.0, "bone": 1.0})


@pytest.mark.parametrize("weights", [{"joint": 1.0}, {"joint": 1.0, "bone": 0.0}],
                         ids=["missing", "zero"])
def test_fuse_predictions_needs_a_positive_weight_per_stream(weights):
    scores = {"joint": np.eye(2), "bone": np.eye(2)}
    with pytest.raises(ConfigValueError, match="'bone'") as err:
        fuse_predictions(scores, weights)
    assert err.value.key == "fusion_weights"


PROTOCOL_CALLS = {
    "linear_probe": lambda params, train, val: linear_probe(
        params, train, val, stream="joint", epochs=1, lr=0.3, seed=0),
    "knn_probe": lambda params, train, val: knn_probe(params, train, val, stream="joint", k=1),
    "finetune": lambda params, train, val: finetune(
        params, train, val, stream="joint", fraction=1.0, epochs=1, lr=0.1, weight_decay=1e-4,
        seed=0),
}


@pytest.mark.parametrize("call", sorted(PROTOCOL_CALLS))
def test_empty_val_split_rejected(splits, params, call):
    with pytest.raises(EmptyValSplit):
        PROTOCOL_CALLS[call](params, splits[0], [])


@pytest.mark.parametrize("split", ["train", "val"])
@pytest.mark.parametrize("call", sorted(PROTOCOL_CALLS))
def test_unlabeled_clip_named(splits, params, call, split):
    data = dict(zip(("train", "val"), splits))
    clip = data[split][2]
    data[split] = [*data[split][:2], SkeletonSequence(clip.data, clip.graph), *data[split][3:]]
    with pytest.raises(UnlabeledClip, match=f"{split} clip 2 has no label"):
        PROTOCOL_CALLS[call](params, data["train"], data["val"])


@pytest.mark.parametrize("label", [-1, 1.5, True])
@pytest.mark.parametrize("split", ["train", "val"])
@pytest.mark.parametrize("call", sorted(PROTOCOL_CALLS))
def test_invalid_label_named(splits, params, call, split, label):
    # a label that is not a nonnegative integer must not pass as a class index
    data = dict(zip(("train", "val"), splits))
    clip = data[split][2]
    data[split] = [*data[split][:2], SkeletonSequence(clip.data, clip.graph, label),
                   *data[split][3:]]
    with pytest.raises(InvalidLabel, match=f"{split} clip 2 has label {label!r}"):
        PROTOCOL_CALLS[call](params, data["train"], data["val"])


@pytest.mark.parametrize("call", ["linear_probe", "finetune"])
def test_head_step_records_one_node_after_the_encoder(splits, monkeypatch, call):
    # three blocks: a finetune step records them, then the head's one node;
    # the linear probe's head steps off the tape, so it records nothing at all
    config = RunConfig(enc_blocks=3, enc_channels=[4, 4, 8], enc_hidden=8, embed_dim=4)
    params = init_params(config, RngStream(5).split("enc"))
    counts = []
    backward = T.backward

    def counting(loss):
        counts.append(len(loss.node.tape.nodes))
        return backward(loss)

    monkeypatch.setattr(T, "backward", counting)
    with T.Tape() as outer:  # an op that recorded outside the protocol's own tapes lands here
        PROTOCOL_CALLS[call](params, *splits)
    assert outer.nodes == []
    if call == "linear_probe":
        assert counts == []
    else:
        assert counts and set(counts) == {config.enc_blocks + 1}


@pytest.mark.parametrize("lr", [1e38, np.inf])
def test_linear_probe_overflow_raises_named_value(splits, params, lr):
    # at 1e38 the head's weights overflow; the update that wrote them names
    # itself and the array, and no NumPy warning about the overflow escapes
    # first.  An infinite rate is refused by its key before any step.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        if np.isinf(lr):
            with pytest.raises(ConfigValueError) as err:
                linear_probe(params, *splits, stream="joint", epochs=200, lr=lr, seed=0)
            assert err.value.key == "linear_lr"
            return
        with pytest.raises(NonFiniteValue, match="head") as err:
            linear_probe(params, *splits, stream="joint", epochs=200, lr=lr, seed=0)
    assert err.value.op == "sgd_step"


@pytest.mark.parametrize("epochs", [113, 114, 115])
def test_head_left_non_finite_by_the_last_step_raises(splits, params, epochs, monkeypatch):
    # at lr 1e38 the head stays finite through 113 epochs; the 114th epoch's
    # last update overflows it, and raises there whether or not a step follows
    updates, update = [], skelcl.train._sgd_update

    def counting(name, *args):
        updates.append(name)
        return update(name, *args)

    monkeypatch.setattr(skelcl.train, "_sgd_update", counting)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        if epochs == 113:
            result = linear_probe(params, *splits, stream="joint", epochs=epochs, lr=1e38, seed=1)
            assert np.isfinite(result.weights).all() and np.isfinite(result.bias).all()
            return
        with pytest.raises(NonFiniteValue, match="left head") as err:
            linear_probe(params, *splits, stream="joint", epochs=epochs, lr=1e38, seed=1)
    assert err.value.op == "sgd_step"
    # one packed head per step: the update that raised is the 114th epoch's last step
    steps_per_epoch = math.ceil(len(splits[0]) / PROTOCOL_BATCH)
    assert set(updates) == {"head"}
    assert len(updates) == 114 * steps_per_epoch
    assert f"left {updates[-1]} non-finite" in err.value.args[0]


def test_finetune_blocks_left_non_finite_by_the_last_step_raise(splits, params):
    # the second epoch's last update overflows the encoder's blocks, and
    # the update names the block array it left non-finite
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFiniteValue, match="left block0") as err:
            finetune(params, *splits, stream="joint", fraction=1.0, epochs=2, lr=1e38,
                     weight_decay=0.0, seed=1)
    assert err.value.op == "sgd_step"


def scaled_clips(scale):
    """Six clips per class of three, their coordinates multiplied by `scale`."""
    data = generate_synthetic_dataset(3, 6, frames=16, joints=9, seed=1)
    return [SkeletonSequence(s.data * scale, s.graph, s.label) for s in data]


def test_finetune_overflowing_batch_variance_raises(params):
    # at x1e19 the block's float32 batch variance overflows; normalizing
    # with it would zero the block and return a finite relu(beta)
    clips = scaled_clips(1e19)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFiniteValue, match="batch statistics") as err:
            finetune(params, clips[:12], clips[12:], stream="joint", fraction=1.0, epochs=2,
                     lr=0.1, weight_decay=0.0, seed=1)
    assert err.value.op == "stgcn_block"


def test_linear_probe_overflowing_val_logits_raise(params):
    # at x1e25 the head stays finite but h_val @ w + b overflows
    clips = scaled_clips(1e25)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFiniteValue, match="validation logits") as err:
            linear_probe(params, clips[:12], clips[12:], stream="joint", epochs=1, lr=0.1,
                         seed=1)
    assert err.value.op == "linear_probe"


@pytest.mark.parametrize("scale", [1e25, 1e30, 1e36])
def test_knn_probe_overflowing_embedding_norm_raises(params, scale):
    # eval mode normalizes with the running statistics, so h and z stay
    # near the input's scale and z's squared norm overflows
    clips = scaled_clips(scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFiniteValue, match="row norm is not finite") as err:
            knn_probe(params, clips[:12], clips[12:], stream="joint", k=3)
    assert err.value.op == "l2_normalize"


@pytest.mark.parametrize("call", ["linear_probe", "finetune"])
def test_non_finite_head_gradient_named(splits, params, monkeypatch, call):
    kernel = T.linear_head

    def poisoned(rows, theta, labels):
        loss, grads = kernel(rows, theta, labels)

        def nan_weight(g, needs):
            g_rows, g_theta = grads(g, needs)
            g_theta[0, 0] = np.nan  # one weight entry of the packed gradient
            return g_rows, g_theta

        return loss, nan_weight

    monkeypatch.setattr(T, "linear_head", poisoned)
    with pytest.raises(NonFiniteValue, match="sgd_step left head non-finite") as err:
        PROTOCOL_CALLS[call](params, *splits)
    assert err.value.op == "sgd_step"


@pytest.mark.parametrize("call,error,key", [
    (lambda params, train, val: knn_probe(params, train, val, stream="joint", k=0),
     ConfigValueError, "knn_k"),
    (lambda params, train, val: knn_probe(params, train, val, stream="joint", k=-1),
     ConfigValueError, "knn_k"),
    (lambda params, train, val: linear_probe(params, train, val, stream="joint", epochs=-1,
                                             lr=0.3, seed=0), ConfigValueError, "linear_epochs"),
    (lambda params, train, val: finetune(params, train, val, stream="joint", fraction=1.0,
                                         epochs=-1, lr=0.1, weight_decay=1e-4, seed=0),
     ConfigValueError, "finetune_epochs"),
    (lambda params, train, val: linear_probe(params, train, val, stream="joint", epochs=1,
                                             lr=0.0, seed=0), ConfigValueError, "linear_lr"),
    (lambda params, train, val: linear_probe(params, train, val, stream="joint", epochs=1,
                                             lr=-1.0, seed=0), ConfigValueError, "linear_lr"),
    (lambda params, train, val: finetune(params, train, val, stream="joint", fraction=1.0,
                                         epochs=1, lr=0.0, weight_decay=1e-4, seed=0),
     ConfigValueError, "finetune_lr"),
    (lambda params, train, val: finetune(params, train, val, stream="joint", fraction=1.0,
                                         epochs=1, lr=0.1, weight_decay=-1.0, seed=0),
     ConfigValueError, "weight_decay"),
    (lambda params, train, val: linear_probe(params, train, val, stream="joint", epochs=0,
                                             lr=np.inf, seed=0), ConfigValueError, "linear_lr"),
    (lambda params, train, val: finetune(params, train, val, stream="joint", fraction=1.0,
                                         epochs=1, lr=0.1, weight_decay=np.inf, seed=0),
     ConfigValueError, "weight_decay"),
    (lambda params, train, val: linear_probe(params, train, val, stream="joint", epochs=2.5,
                                             lr=0.3, seed=0), ConfigTypeError, "linear_epochs"),
    (lambda params, train, val: knn_probe(params, train, val, stream="joint", k=True),
     ConfigTypeError, "knn_k"),
    (lambda params, train, val: linear_probe(params, train, val, stream="joint", epochs=1,
                                             lr=0.3, seed=1.5), ConfigTypeError, "seed"),
    (lambda params, train, val: finetune(params, train, val, stream="joint", fraction=1.0,
                                         epochs=1, lr=0.1, weight_decay=1e-4, seed=1.5),
     ConfigTypeError, "seed"),
    (lambda params, train, val: finetune(params, train, val, stream="joint", fraction=1.0,
                                         epochs=1, lr="0.1", weight_decay=1e-4, seed=0),
     ConfigTypeError, "finetune_lr"),
    (lambda params, train, val: finetune(params, train, val, stream="joint", fraction="0.5",
                                         epochs=1, lr=0.1, weight_decay=1e-4, seed=0),
     ConfigTypeError, "fraction"),
    (lambda params, train, val: finetune(params, train, val, stream="joint", fraction=True,
                                         epochs=1, lr=0.1, weight_decay=1e-4, seed=0),
     ConfigTypeError, "fraction"),
], ids=["knn_k_0", "knn_k_negative", "linear_epochs_negative", "finetune_epochs_negative",
        "linear_lr_0", "linear_lr_negative", "finetune_lr_0", "weight_decay_negative",
        "linear_lr_inf", "weight_decay_inf", "linear_epochs_float", "knn_k_bool",
        "linear_seed_float", "finetune_seed_float", "finetune_lr_str", "finetune_fraction_str",
        "finetune_fraction_bool"])
def test_out_of_range_protocol_setting_named(splits, params, monkeypatch, call, error, key):
    # k=0 would vote with no neighbour, k=-1 with all but one, a negative
    # epoch count would train nothing, and a zero or negative rate or a
    # negative weight decay would train silently the wrong way.  Each
    # protocol builds its settings into one `RunConfig` first, so a value
    # out of range or of the wrong type is refused by its key before the
    # encoder runs.
    passes = []
    forward = skelcl.train.stgcn_forward
    monkeypatch.setattr(skelcl.train, "stgcn_forward",
                        lambda *args, **kw: passes.append(1) or forward(*args, **kw))
    with pytest.raises(error, match=f"^{key}: ") as err:
        call(params, *splits)
    if error is ConfigValueError:
        assert err.value.key == key
    assert passes == []


def test_numpy_settings_give_the_results_of_equal_python_values(splits, params):
    lr = np.float32(0.3)  # not 0.3: the equal Python value is float(lr)
    numpy_linear = linear_probe(params, *splits, stream="joint", epochs=np.int64(3), lr=lr,
                                seed=np.uint16(4))
    python_linear = linear_probe(params, *splits, stream="joint", epochs=3, lr=float(lr), seed=4)
    for field in ("weights", "bias", "val_scores"):
        assert getattr(numpy_linear, field).tobytes() == getattr(python_linear, field).tobytes()
    assert numpy_linear.accuracy == python_linear.accuracy
    assert (knn_probe(params, *splits, stream="joint", k=np.int32(3))
            == knn_probe(params, *splits, stream="joint", k=3))
    tuned = [finetune(params, *splits, stream="joint", fraction=0.5, epochs=epochs, lr=rate,
                      weight_decay=decay, seed=seed)
             for epochs, rate, decay, seed in ((np.int8(2), np.float32(0.1), np.float64(1e-4),
                                                np.int64(6)),
                                               (2, float(np.float32(0.1)), 1e-4, 6))]
    assert tuned[0].params.digest() == tuned[1].params.digest()
    assert (tuned[0].accuracy, tuned[0].subset_size) == (tuned[1].accuracy, tuned[1].subset_size)


def test_numpy_fraction_gives_the_subset_of_the_equal_python_value(splits, params):
    # float(np.float32(0.3)) is not 0.3, so each side gets the same value
    tuned = [finetune(params, *splits, stream="joint", fraction=fraction, epochs=1, lr=0.1,
                      weight_decay=1e-4, seed=2)
             for fraction in (np.float32(0.3), float(np.float32(0.3)))]
    assert tuned[0].subset_size == tuned[1].subset_size
    assert tuned[0].params.digest() == tuned[1].params.digest()


MIXED_GRAPH_CALLS = {
    "pretrain": lambda seqs, val, params, out: pretrain(seqs, RunConfig(stage_epochs=[1, 0, 0])),
    **{name: (lambda seqs, val, params, out, call=call: call(params, seqs, val))
       for name, call in PROTOCOL_CALLS.items()},
    "write_dataset": lambda seqs, val, params, out: write_dataset(out, seqs, ["train"] * len(seqs)),
}


@pytest.mark.parametrize("call", sorted(MIXED_GRAPH_CALLS))
def test_clips_on_mixed_graphs_rejected(splits, params, tmp_path, call):
    train, val = splits
    chain = SkeletonGraph(num_joints=9, edges=tuple((j, j + 1) for j in range(8)))
    last = train[-1]
    other_graph = train[:-1] + [SkeletonSequence(last.data, chain, last.label)]
    other_length = train[:-1] + [SkeletonSequence(last.data[:-1], last.graph, last.label)]
    graph, joints = clip_batch(train)
    assert graph == train[0].graph
    np.testing.assert_array_equal(joints, [s.data for s in train])
    for mixed in (other_graph, other_length):
        with pytest.raises(ShapeMismatch, match="one skeleton graph"):
            MIXED_GRAPH_CALLS[call](mixed, val, params, tmp_path)
    assert list(tmp_path.iterdir()) == []


PROTOCOL_NAMES = {"linear_probe": "linear probe", "knn_probe": "knn probe",
                  "finetune": "finetuning"}


@pytest.mark.parametrize("skeleton", ["chain_9", "star_13"])
@pytest.mark.parametrize("call", sorted(PROTOCOL_CALLS))
def test_val_split_on_another_skeleton_rejected(splits, params, call, skeleton):
    # each split stacks on its own, so a val split on another graph would
    # be encoded with its own adjacency and scored by the train split's head
    train, val = splits
    if skeleton == "chain_9":
        chain = SkeletonGraph(num_joints=9, edges=tuple((j, j + 1) for j in range(8)))
        other = [SkeletonSequence(s.data, chain, s.label) for s in val]
    else:
        other = generate_synthetic_dataset(3, 2, frames=16, joints=13, seed=2,
                                           check_separability=False)
    with pytest.raises(ShapeMismatch, match=f"{PROTOCOL_NAMES[call]}: the val clips' skeleton"):
        PROTOCOL_CALLS[call](params, train, other)


@pytest.mark.parametrize("call", sorted(PROTOCOL_CALLS))
def test_splits_may_differ_in_frame_count(splits, params, call):
    train, val = splits
    shorter = [SkeletonSequence(s.data[:12], s.graph, s.label) for s in val]
    result = PROTOCOL_CALLS[call](params, train, shorter)
    assert 0 <= getattr(result, "accuracy", result) <= 1


# -- the protocols before they shared one path, kept as references ------------------------

REFERENCE_BATCH = 32


@pytest.fixture(scope="module")
def large_splits():
    # 75 clips a split: three SGD batches per epoch, and two of the
    # references' 64-clip feature passes where the package makes one
    data = generate_synthetic_dataset(3, 50, frames=16, seed=4, check_separability=False)
    return data[0::2], data[1::2]


def reference_features(params, sequences, stream, projected):
    adjacency = sequences[0].graph.normalized_adjacency(np.float32)
    arrays = np.stack([derive_streams(s, (stream,))[stream] for s in sequences])
    outs = []
    with T.no_tape():
        for i in range(0, len(arrays), 64):
            h = stgcn_forward(arrays[i : i + 64], adjacency, params, mode="eval")
            outs.append((project(h, params) if projected else h).data)
    return np.concatenate(outs)


def reference_labels(sequences):
    return np.array([s.label for s in sequences], dtype=np.int64)


def reference_sgd(params, grads, buffers, lr, momentum, weight_decay):
    for name, p in params.items():
        g = grads[name] if name in grads else np.zeros_like(p.data)
        g = g + weight_decay * p.data
        buf = buffers.get(name)
        buf = g if buf is None else momentum * buf + g
        buffers[name] = buf
        p.data[...] = p.data - lr * buf


def reference_head_grads(h, w, b, y):
    """The (w, b) gradients of the mean softmax cross-entropy of the
    logits h @ w + b against labels y, in NumPy: d = (softmax - one-hot)
    / B, with the 1 / B applied to each row's softmax denominator first."""
    logits = h @ w + b
    exps = np.exp(logits - logits.max(axis=1, keepdims=True))
    g = np.float32(1) / len(y)
    d = exps * (g / exps.sum(axis=1, keepdims=True))
    d[np.arange(len(y)), y] -= g
    return h.T @ d, d.sum(axis=0)


def reference_linear_probe(params, train, val, stream, epochs, lr, seed):
    h_train = reference_features(params, train, stream, projected=False)
    h_val = reference_features(params, val, stream, projected=False)
    y_train, y_val = reference_labels(train), reference_labels(val)
    num_classes = int(max(y_train.max(), y_val.max())) + 1
    w = T.parameter(np.zeros((h_train.shape[1], num_classes), dtype=np.float32))
    b = T.parameter(np.zeros(num_classes, dtype=np.float32))
    buffers = {}
    rng = RngStream(seed).split("linear_probe")
    n = len(h_train)
    for epoch in range(epochs):
        order = rng.split(f"e{epoch}").generator().permutation(n)
        for bi in range(math.ceil(n / REFERENCE_BATCH)):
            idx = order[bi * REFERENCE_BATCH : (bi + 1) * REFERENCE_BATCH]
            g_w, g_b = reference_head_grads(h_train[idx], w.data, b.data, y_train[idx])
            reference_sgd({"w": w, "b": b}, {"w": g_w, "b": g_b}, buffers, lr, 0.9, 0.0)
    val_logits = h_val @ w.data + b.data
    shifted = np.exp(val_logits - val_logits.max(axis=1, keepdims=True))
    accuracy = float((np.argmax(val_logits, axis=1) == y_val).mean())
    return accuracy, w.data, b.data, shifted / shifted.sum(axis=1, keepdims=True)


def reference_knn(params, train, val, stream, k):
    z_train = reference_features(params, train, stream, projected=True)
    z_val = reference_features(params, val, stream, projected=True)
    y_train, y_val = reference_labels(train), reference_labels(val)
    sims = z_val @ z_train.T
    correct = 0
    for i in range(len(z_val)):
        nearest = np.argsort(-sims[i], kind="stable")[:k]
        votes = np.bincount(y_train[nearest], minlength=int(y_train.max()) + 1)
        correct += int(np.argmax(votes)) == y_val[i]
    return correct / len(z_val)


def reference_finetune(params, train, val, stream, fraction, epochs, lr, weight_decay, seed,
                       step_projector=False):
    """Accuracy, tuned encoder, head weights and bias, and subset size;
    `step_projector` also steps the projector, which no gradient reaches."""
    rng = RngStream(seed).split("finetune")
    picked = stratified_pick(reference_labels(train), fraction, rng.split("subset").generator(),
                             floor=1)
    subset = [train[i] for i in picked]
    tuned = params.copy()
    adjacency = train[0].graph.normalized_adjacency(np.float32)
    arrays = np.stack([derive_streams(s, (stream,))[stream] for s in subset])
    y, y_val = reference_labels(subset), reference_labels(val)
    num_classes = int(max(y.max(), y_val.max())) + 1
    dim = tuned.config.enc_channels[-1]
    head = T.parameter(np.zeros((dim + 1, num_classes), dtype=np.float32))  # [w; b]
    stepped = {name: t for name, t in tuned.trainable().items()
               if step_projector or not name.startswith("projector.")}
    trainable = {**stepped, "head": head}
    buffers = {}
    n = len(arrays)
    for epoch in range(epochs):
        order = rng.split(f"e{epoch}").generator().permutation(n)
        for bi in range(math.ceil(n / REFERENCE_BATCH)):
            idx = order[bi * REFERENCE_BATCH : (bi + 1) * REFERENCE_BATCH]
            with T.Tape():
                h = stgcn_forward(arrays[idx], adjacency, tuned, mode="train")
                grads = T.backward(T.linear_softmax_nll(h, head, y[idx]))
            named = {name: grads[t].data for name, t in trainable.items() if t in grads}
            reference_sgd(trainable, named, buffers, lr, 0.9, weight_decay)
    head_w, head_b = head.data[:dim], head.data[dim]
    h_val = reference_features(tuned, val, stream, projected=False)
    predicted = np.argmax(h_val @ head_w + head_b, axis=1)
    return float((predicted == y_val).mean()), tuned, head_w, head_b, len(subset)


@pytest.mark.parametrize("stream", ["joint", "bone", "motion"])
def test_linear_probe_bit_equals_reference(large_splits, params, stream):
    train, val = large_splits
    result = linear_probe(params, train, val, stream=stream, epochs=3, lr=0.3, seed=2)
    accuracy, w, b, scores = reference_linear_probe(params, train, val, stream, 3, 0.3, 2)
    assert result.accuracy == accuracy
    np.testing.assert_array_equal(result.weights, w)
    np.testing.assert_array_equal(result.bias, b)
    np.testing.assert_array_equal(result.val_scores, scores)


@pytest.mark.parametrize("stream", ["joint", "bone"])
def test_knn_probe_bit_equals_reference(large_splits, params, stream):
    train, val = large_splits
    # a relabeled copy of each clip ties its similarities: the lower index must win
    train = train + [SkeletonSequence(s.data, s.graph, (s.label + 1) % 3) for s in train]
    for k in (1, 2, 5, len(train)):
        assert knn_probe(params, train, val, stream=stream, k=k) == reference_knn(
            params, train, val, stream, k)


@pytest.mark.parametrize("fraction", [1.0, 0.3])
def test_finetune_bit_equals_reference(large_splits, params, fraction):
    train, val = large_splits
    result = finetune(params, train, val, stream="bone", fraction=fraction, epochs=2, lr=0.1,
                      weight_decay=1e-4, seed=5)
    accuracy, tuned, _, _, subset_size = reference_finetune(params, train, val, "bone", fraction,
                                                            2, 0.1, 1e-4, 5)
    assert (result.accuracy, result.params.digest(), result.subset_size) == (
        accuracy, tuned.digest(), subset_size)


def test_finetune_keeps_the_projector(large_splits, params):
    # h does not pass through the projector, so no gradient reaches it and
    # weight decay alone must not shrink it; stepping it as well (what
    # finetuning once did) leaves the blocks, the head and the accuracy
    # bit for bit as they are
    train, val = large_splits
    result = finetune(params, train, val, stream="joint", fraction=1.0, epochs=3, lr=0.1,
                      weight_decay=1e-4, seed=6)
    kept = reference_finetune(params, train, val, "joint", 1.0, 3, 0.1, 1e-4, 6)
    decayed = reference_finetune(params, train, val, "joint", 1.0, 3, 0.1, 1e-4, 6,
                                 step_projector=True)
    assert result.accuracy == kept[0] == decayed[0]
    for name, t in params.tensors.items():
        tuned, stepped = result.params[name].data, decayed[1][name].data
        if name.startswith("projector."):
            assert tuned.tobytes() == t.data.tobytes(), name
            if name.endswith(("w1", "w2")):  # decay keeps the zero-initialized biases zero
                assert stepped.tobytes() != tuned.tobytes(), name
        else:
            assert tuned.tobytes() == stepped.tobytes(), name
    for got, want in zip(kept[2:4], decayed[2:4]):  # the head's weights and bias
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("channels,hidden,dim", [([4], 8, 4), ([16, 32, 32], 64, 32)])
def test_features_do_not_depend_on_the_pass_size(large_splits, monkeypatch, channels, hidden,
                                                 dim):
    # h and z of the whole split in one call, in the references' 64-clip
    # passes and in passes of two or three clips, each at the default
    # chunk size and in one-clip chunks; at the desk widths a one-clip
    # pass would round z differently
    config = RunConfig(enc_blocks=len(channels), enc_channels=channels, enc_hidden=hidden,
                       embed_dim=dim)
    params = init_params(config, RngStream(5).split("enc"))
    train, _ = large_splits
    graph, x = clip_batch(train)  # the joint stream is the stack itself
    adjacency = graph.normalized_adjacency(np.float32)
    for projected in (False, True):
        runs = []
        for budget in (T.BLOCK_CHUNK_BYTES, 1):
            with monkeypatch.context() as patch:
                patch.setattr(T, "BLOCK_CHUNK_BYTES", budget)
                runs += [eval_features(x, adjacency, params, projected),
                         reference_features(params, train, "joint", projected),
                         np.concatenate([eval_features(x[piece], adjacency, params, projected)
                                         for piece in T.pieces(len(x), 2)])]
        assert len({run.tobytes() for run in runs}) == 1


def test_eval_features_build_no_full_batch_activation():
    # 300 desk-width clips (32 frames, 9 joints, channels 16, 32, 32,
    # float32): the peak holds the kernel's chunk scratch, its per-block
    # tiles and the (N, C_last) output, where one block's full-batch
    # activation alone would be 300 * 32 * 9 * 32 * 4 bytes = 11 MB
    config = RunConfig(enc_blocks=3, enc_channels=[16, 32, 32], enc_hidden=64, embed_dim=32)
    params = init_params(config, RngStream(5).split("enc"))
    n, frames, joints, item = 300, 32, 9, 4
    x = np.random.default_rng(0).normal(size=(n, frames, 3, joints)).astype(np.float32)
    adjacency = np.eye(joints, dtype=np.float32)
    clip = frames * joints * max(config.enc_channels)  # entries at the widest block
    rows = T.BLOCK_CHUNK_BYTES // (clip * item) + 1  # a chunk holds at most one clip more
    # two chunk activations, the channel mix and the temporary of an
    # off-centre tap's product (`tensor._apply_taps`)
    scratch = 4 * rows * clip * item
    # each block's tap and shift tiles: (K + 1) (T, V * C) tiles
    tiles = sum((config.enc_temporal_kernel + 1) * frames * joints * c * item
                for c in config.enc_channels)
    output = n * config.enc_channels[-1] * item
    tracemalloc.start()
    try:
        h = eval_features(x, adjacency, params, projected=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert h.shape == (n, config.enc_channels[-1])
    assert peak <= scratch + tiles + output + 64 * 1024, (peak, scratch + tiles + output)
