"""Evaluation protocols: linear probe, kNN probe, finetune, subsets, fusion."""

import numpy as np
import pytest

from skelcl import tensor as T
from skelcl.config import RunConfig
from skelcl.encoder import EncoderParams, encode, init_params
from skelcl.errors import EmptyValSplit, EncoderModified, LengthMismatch, ShapeMismatch
from skelcl.rng import RngStream
from skelcl.skeleton import (
    SkeletonGraph,
    SkeletonSequence,
    generate_synthetic_dataset,
    shared_graph,
    write_dataset,
)
from skelcl.train import (
    finetune,
    fuse_predictions,
    knn_probe,
    linear_probe,
    pretrain,
    stratified_fraction,
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
    a = linear_probe(params, train, val, epochs=3, seed=1)
    b = linear_probe(params, train, val, epochs=3, seed=1)
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
        linear_probe(params, train, val, epochs=1, seed=1)


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
    assert knn_probe(params, train, val, k=k) == correct / len(val)


def test_finetune_fraction_keeps_every_class(splits, params):
    train, val = splits
    result = finetune(params, train, val, fraction=0.1, epochs=1, seed=3)
    subset = stratified_fraction(train, 0.1, RngStream(3).split("finetune").split("subset"))
    assert {train[i].label for i in subset} == {s.label for s in train}
    assert result.subset_size == len(subset) == 3
    assert result.encoder_digest_before == params.digest()


def test_stratified_fraction_counts_and_order(splits):
    train, _ = splits
    labels = np.array([s.label for s in train])
    picked = stratified_fraction(train, 0.5, RngStream(0).split("s"))
    assert picked == sorted(set(picked))
    for cls in np.unique(labels):
        n = int((labels == cls).sum())
        assert int((labels[picked] == cls).sum()) == max(1, round(n * 0.5))
    assert picked == stratified_fraction(train, 0.5, RngStream(0).split("s"))
    assert stratified_fraction(train, 1.0, RngStream(0).split("s")) == list(range(len(train)))
    for bad in (0.0, 1.5):
        with pytest.raises(ValueError):
            stratified_fraction(train, bad, RngStream(0))


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


@pytest.mark.parametrize("call", [
    lambda params, train: linear_probe(params, train, [], epochs=1),
    lambda params, train: knn_probe(params, train, [], k=1),
    lambda params, train: finetune(params, train, [], epochs=1),
], ids=["linear_probe", "knn_probe", "finetune"])
def test_empty_val_split_rejected(splits, params, call):
    with pytest.raises(EmptyValSplit):
        call(params, splits[0])


MIXED_GRAPH_CALLS = {
    "pretrain": lambda seqs, val, params, out: pretrain(seqs, RunConfig(stage_epochs=[1, 0, 0])),
    "linear_probe": lambda seqs, val, params, out: linear_probe(params, seqs, val, epochs=1),
    "knn_probe": lambda seqs, val, params, out: knn_probe(params, seqs, val),
    "finetune": lambda seqs, val, params, out: finetune(params, seqs, val, epochs=1),
    "write_dataset": lambda seqs, val, params, out: write_dataset(out, seqs, ["train"] * len(seqs)),
}


@pytest.mark.parametrize("call", sorted(MIXED_GRAPH_CALLS))
def test_clips_on_mixed_graphs_rejected(splits, params, tmp_path, call):
    train, val = splits
    chain = SkeletonGraph(num_joints=9, edges=tuple((j, j + 1) for j in range(8)))
    last = train[-1]
    other_graph = train[:-1] + [SkeletonSequence(last.data, chain, last.label)]
    other_length = train[:-1] + [SkeletonSequence(last.data[:-1], last.graph, last.label)]
    assert shared_graph(train) == train[0].graph
    for mixed in (other_graph, other_length):
        with pytest.raises(ShapeMismatch, match="one skeleton graph"):
            MIXED_GRAPH_CALLS[call](mixed, val, params, tmp_path)
    assert list(tmp_path.iterdir()) == []
