"""Stream derivation, synthetic generator, and sequence file format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skelcl.errors import (
    BadMagic,
    ShapeMismatch,
    SkelclError,
    TooShort,
    TruncatedFile,
    UnknownStream,
)
from skelcl.rng import RngStream
from skelcl.skeleton import (
    SkeletonGraph,
    SkeletonSequence,
    build_star_tree,
    derive_bone,
    derive_motion,
    derive_streams,
    generate_synthetic_dataset,
    load_dataset,
    oracle_classifier_accuracy,
    read_sequence,
    stratified_split,
    write_dataset,
    write_sequence,
)

TWO_JOINT = SkeletonGraph(num_joints=2, edges=((0, 1),))
CHAIN3 = SkeletonGraph(num_joints=3, edges=((0, 1), (1, 2)))


def _seq(data, graph, label=None):
    return SkeletonSequence(data=np.asarray(data, dtype=np.float32), graph=graph, label=label)


class TestBone:
    def test_two_joint_definition(self):
        data = np.zeros((2, 3, 2), dtype=np.float32)
        data[:, :, 1] = [1.0, 2.0, 3.0]
        bone = derive_bone(_seq(data, TWO_JOINT))
        np.testing.assert_array_equal(bone[:, :, 1], data[:, :, 1])
        np.testing.assert_array_equal(bone[:, :, 0], 0.0)

    def test_translation_invariant(self):
        # quantized lattice values keep x + c exact, so invariance is bitwise
        rng = np.random.default_rng(0)
        data = (rng.integers(-4096, 4096, size=(4, 3, 3)) / 1024.0).astype(np.float32)
        shift = (rng.integers(-4096, 4096, size=(1, 3, 1)) / 1024.0).astype(np.float32)
        a = derive_bone(_seq(data, CHAIN3))
        b = derive_bone(_seq(data + shift, CHAIN3))
        np.testing.assert_array_equal(a, b)

    def test_chain_pairwise_differences(self):
        # joints at 0, 1, 3 along one axis -> bones (0, 1, 2)
        data = np.zeros((2, 3, 3), dtype=np.float32)
        data[:, 0, :] = [0.0, 1.0, 3.0]
        bone = derive_bone(_seq(data, CHAIN3))
        np.testing.assert_array_equal(bone[0, 0, :], [0.0, 1.0, 2.0])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_translation_invariance_property(self, seed):
        rng = np.random.default_rng(seed)
        graph = build_star_tree(9)
        data = (rng.integers(-4096, 4096, size=(6, 3, 9)) / 1024.0).astype(np.float32)
        shift = (rng.integers(-4096, 4096, size=(1, 3, 1)) / 1024.0).astype(np.float32)
        np.testing.assert_array_equal(
            derive_bone(_seq(data, graph)), derive_bone(_seq(data + shift, graph))
        )


class TestMotion:
    def test_constant_sequence_zero(self):
        data = np.ones((5, 3, 2), dtype=np.float32)
        np.testing.assert_array_equal(derive_motion(_seq(data, TWO_JOINT)), 0.0)

    def test_uniform_velocity(self):
        t = np.arange(6, dtype=np.float32)
        data = np.zeros((6, 3, 2), dtype=np.float32)
        data[:, 0, 1] = 0.5 * t
        motion = derive_motion(_seq(data, TWO_JOINT))
        np.testing.assert_allclose(motion[:-1, 0, 1], 0.5)
        np.testing.assert_array_equal(motion[-1], 0.0)

    def test_adjacent_differences(self):
        # scalar joint values (0, 1, 4) -> motion (1, 3, 0)
        data = np.zeros((3, 3, 2), dtype=np.float32)
        data[:, 0, 1] = [0.0, 1.0, 4.0]
        motion = derive_motion(_seq(data, TWO_JOINT))
        np.testing.assert_array_equal(motion[:, 0, 1], [1.0, 3.0, 0.0])

    def test_linearity(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(5, 3, 3)).astype(np.float32)
        y = rng.normal(size=(5, 3, 3)).astype(np.float32)
        a, b = 0.7, -1.3
        combined = derive_motion(_seq(a * x + b * y, CHAIN3))
        parts = a * derive_motion(_seq(x, CHAIN3)) + b * derive_motion(_seq(y, CHAIN3))
        np.testing.assert_allclose(combined, parts, atol=1e-6)

    def test_too_short(self):
        with pytest.raises(TooShort):
            SkeletonSequence(np.zeros((1, 3, 2), dtype=np.float32), TWO_JOINT)


class TestStreams:
    def test_identity_stream(self):
        data = np.random.default_rng(1).normal(size=(4, 3, 3)).astype(np.float32)
        ss = derive_streams(_seq(data, CHAIN3), ["joint"])
        np.testing.assert_array_equal(ss["joint"], data)

    def test_all_streams_share_shape(self):
        data = np.random.default_rng(2).normal(size=(4, 3, 3)).astype(np.float32)
        ss = derive_streams(_seq(data, CHAIN3), ["joint", "bone", "motion"])
        assert {ss[k].shape for k in ss.keys()} == {(4, 3, 3)}

    def test_unknown_stream(self):
        data = np.zeros((4, 3, 3), dtype=np.float32)
        with pytest.raises(UnknownStream):
            derive_streams(_seq(data, CHAIN3), ["joint", "velocity"])


class TestGraph:
    def test_rejects_non_tree(self):
        with pytest.raises(ShapeMismatch):
            SkeletonGraph(num_joints=3, edges=((0, 1), (0, 1)))

    def test_rejects_disconnected(self):
        with pytest.raises(ShapeMismatch):
            SkeletonGraph(num_joints=4, edges=((0, 1), (2, 3), (3, 2)))

    def test_normalized_adjacency_symmetric(self):
        a = build_star_tree(9).normalized_adjacency(np.float64)
        np.testing.assert_allclose(a, a.T)
        # spectral radius of the symmetric-normalized adjacency is 1
        assert abs(np.linalg.eigvalsh(a).max() - 1.0) < 1e-10


class TestSyntheticDataset:
    def test_deterministic(self):
        a = generate_synthetic_dataset(2, 1, frames=16, seed=3, noise_sigma=0.0,
                                       check_separability=False)
        b = generate_synthetic_dataset(2, 1, frames=16, seed=3, noise_sigma=0.0,
                                       check_separability=False)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.data, y.data)

    def test_counts_and_balance(self):
        data = generate_synthetic_dataset(5, 40, frames=32, joints=9, seed=7)
        assert len(data) == 200
        labels = np.array([s.label for s in data])
        assert all((labels == k).sum() == 40 for k in range(5))

    def test_oracle_accuracy(self):
        data = generate_synthetic_dataset(5, 40, frames=32, joints=9, seed=7)
        assert oracle_classifier_accuracy(data) >= 0.95

    def test_pure_function_of_seed(self):
        a = generate_synthetic_dataset(3, 4, frames=16, seed=11)
        b = generate_synthetic_dataset(3, 4, frames=16, seed=11)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.data, y.data)
            assert x.label == y.label


class TestSequenceFiles:
    def test_round_trip(self, tmp_path):
        seqs = generate_synthetic_dataset(2, 2, frames=16, seed=1, check_separability=False)
        path = tmp_path / "a.skl"
        write_sequence(path, seqs[0])
        back = read_sequence(path)
        np.testing.assert_array_equal(back.data, seqs[0].data)
        assert back.label == seqs[0].label
        assert back.graph.edges == seqs[0].graph.edges

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.skl"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(BadMagic):
            read_sequence(path)

    def test_truncated(self, tmp_path):
        seqs = generate_synthetic_dataset(2, 1, frames=16, seed=2, check_separability=False)
        path = tmp_path / "t.skl"
        write_sequence(path, seqs[0])
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 10])
        with pytest.raises(TruncatedFile):
            read_sequence(path)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(st.data())
    def test_mutated_file_raises_only_named_errors(self, tmp_path_factory, data):
        clip = np.linspace(-1.0, 1.0, 4 * 3 * 5, dtype=np.float32).reshape(4, 3, 5)
        path = tmp_path_factory.getbasetemp() / "fuzz.skl"
        write_sequence(path, _seq(clip, build_star_tree(5), label=2))
        raw = bytearray(path.read_bytes())
        header = 4 + 16 + 8 * 4 + 5  # magic, T/C/V/E, four edges, label
        position = st.integers(0, header - 1) | st.integers(0, len(raw) - 1)
        for pos, byte in data.draw(st.lists(st.tuples(position, st.integers(0, 255)),
                                            min_size=1, max_size=3)):
            raw[pos] = byte
        path.write_bytes(bytes(raw))
        try:
            read_sequence(path)
        except SkelclError:
            pass

    def test_dataset_round_trip(self, tmp_path):
        seqs = generate_synthetic_dataset(3, 4, frames=16, seed=5, check_separability=False)
        splits = stratified_split(seqs, 0.25, RngStream(5).split("split"))
        write_dataset(tmp_path / "ds", seqs, splits)
        loaded = load_dataset(tmp_path / "ds")
        assert len(loaded["train"]) + len(loaded["val"]) == len(seqs)
        assert len(loaded["val"]) == 3  # one per class at 25% of 4
