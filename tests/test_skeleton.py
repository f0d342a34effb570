"""Stream derivation, synthetic generator, and the dataset file."""

import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skelcl.errors import (
    BadMagic,
    ConfigValueError,
    CorruptFile,
    ShapeMismatch,
    SkelclError,
    TooShort,
    TruncatedFile,
    UnknownStream,
)
from skelcl.rng import RngStream
from skelcl.skeleton import (
    DATASET_FILE,
    DATASET_MAGIC,
    STREAM_IDS,
    SkeletonGraph,
    SkeletonSequence,
    build_star_tree,
    derive_bone,
    derive_motion,
    derive_streams,
    generate_synthetic_dataset,
    load_dataset,
    oracle_classifier_accuracy,
    stratified_pick,
    stratified_split,
    stream_arrays,
    write_dataset,
    write_file,
)

TWO_JOINT = SkeletonGraph(num_joints=2, edges=((0, 1),))
CHAIN3 = SkeletonGraph(num_joints=3, edges=((0, 1), (1, 2)))


def _seq(data, graph, label=None):
    return SkeletonSequence(data=np.asarray(data, dtype=np.float32), graph=graph, label=label)


class TestBone:
    def test_two_joint_definition(self):
        data = np.zeros((2, 3, 2), dtype=np.float32)
        data[:, :, 1] = [1.0, 2.0, 3.0]
        bone = derive_bone(data, TWO_JOINT)
        np.testing.assert_array_equal(bone[:, :, 1], data[:, :, 1])
        np.testing.assert_array_equal(bone[:, :, 0], 0.0)

    def test_translation_invariant(self):
        # quantized lattice values keep x + c exact, so invariance is bitwise
        rng = np.random.default_rng(0)
        data = (rng.integers(-4096, 4096, size=(4, 3, 3)) / 1024.0).astype(np.float32)
        shift = (rng.integers(-4096, 4096, size=(1, 3, 1)) / 1024.0).astype(np.float32)
        a = derive_bone(data, CHAIN3)
        b = derive_bone(data + shift, CHAIN3)
        np.testing.assert_array_equal(a, b)

    def test_chain_pairwise_differences(self):
        # joints at 0, 1, 3 along one axis -> bones (0, 1, 2)
        data = np.zeros((2, 3, 3), dtype=np.float32)
        data[:, 0, :] = [0.0, 1.0, 3.0]
        bone = derive_bone(data, CHAIN3)
        np.testing.assert_array_equal(bone[0, 0, :], [0.0, 1.0, 2.0])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_translation_invariance_property(self, seed):
        rng = np.random.default_rng(seed)
        graph = build_star_tree(9)
        data = (rng.integers(-4096, 4096, size=(6, 3, 9)) / 1024.0).astype(np.float32)
        shift = (rng.integers(-4096, 4096, size=(1, 3, 1)) / 1024.0).astype(np.float32)
        np.testing.assert_array_equal(
            derive_bone(data, graph), derive_bone(data + shift, graph)
        )


class TestMotion:
    def test_constant_sequence_zero(self):
        data = np.ones((5, 3, 2), dtype=np.float32)
        np.testing.assert_array_equal(derive_motion(data), 0.0)

    def test_uniform_velocity(self):
        t = np.arange(6, dtype=np.float32)
        data = np.zeros((6, 3, 2), dtype=np.float32)
        data[:, 0, 1] = 0.5 * t
        motion = derive_motion(data)
        np.testing.assert_allclose(motion[:-1, 0, 1], 0.5)
        np.testing.assert_array_equal(motion[-1], 0.0)

    def test_adjacent_differences(self):
        # scalar joint values (0, 1, 4) -> motion (1, 3, 0)
        data = np.zeros((3, 3, 2), dtype=np.float32)
        data[:, 0, 1] = [0.0, 1.0, 4.0]
        motion = derive_motion(data)
        np.testing.assert_array_equal(motion[:, 0, 1], [1.0, 3.0, 0.0])

    def test_linearity(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(5, 3, 3)).astype(np.float32)
        y = rng.normal(size=(5, 3, 3)).astype(np.float32)
        a, b = 0.7, -1.3
        combined = derive_motion(a * x + b * y)
        parts = a * derive_motion(x) + b * derive_motion(y)
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

    def test_stacked_batch_equals_per_clip(self):
        graph = build_star_tree(9)
        clips = np.random.default_rng(3).normal(size=(5, 6, 3, 9)).astype(np.float32)
        batch = stream_arrays(clips, graph, STREAM_IDS)
        for i, clip in enumerate(clips):
            single = derive_streams(_seq(clip, graph), STREAM_IDS)
            for sid in STREAM_IDS:
                np.testing.assert_array_equal(batch[sid][i], single[sid])

    def test_joint_view_is_the_given_array_and_never_a_clip(self):
        # stream_arrays hands back its input as the joint view; derive_streams
        # passes it a copy, so writing to the view leaves the clip as it was
        graph = build_star_tree(9)
        clips = np.random.default_rng(3).normal(size=(2, 6, 3, 9)).astype(np.float32)
        assert stream_arrays(clips, graph, ("joint",))["joint"] is clips
        seq = _seq(clips[0], graph)
        before = seq.data.copy()
        joint = derive_streams(seq, ("joint", "bone"))["joint"]
        assert joint is not seq.data
        joint += 1.0
        np.testing.assert_array_equal(seq.data, before)

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

    # NaN fails both `< 0` and `> 0`, so it would pass as noise-free
    @pytest.mark.parametrize("sigma", [-0.1, float("nan"), float("inf")])
    def test_noise_sigma_must_be_finite_and_nonnegative(self, sigma):
        with pytest.raises(ConfigValueError, match="noise_sigma") as err:
            generate_synthetic_dataset(3, 4, frames=16, seed=5, noise_sigma=sigma)
        assert err.value.key == "noise_sigma"


def _write_raw_dataset(directory, doc, tensors):
    """A dataset file written through the codec, so its hash matches."""
    write_file(directory / DATASET_FILE, DATASET_MAGIC, json.dumps(doc).encode(), tensors)


GOOD_HEADER = {"edges": [[0, 1], [1, 2]], "labels": [0, None], "splits": ["train", "val"]}
GOOD_CLIPS = {"clips": np.zeros((2, 4, 3, 3), np.float32)}
MALFORMED = {
    "non_object_header": ([GOOD_HEADER], GOOD_CLIPS),
    "no_edges": ({"labels": [0, None], "splits": ["train", "val"]}, GOOD_CLIPS),
    "edges_not_list": (dict(GOOD_HEADER, edges="0-1 1-2"), GOOD_CLIPS),
    "no_labels": ({"edges": [[0, 1], [1, 2]], "splits": ["train", "val"]}, GOOD_CLIPS),
    "labels_not_list": (dict(GOOD_HEADER, labels=0), GOOD_CLIPS),
    "no_splits": ({"edges": [[0, 1], [1, 2]], "labels": [0, None]}, GOOD_CLIPS),
    "splits_not_list": (dict(GOOD_HEADER, splits="train"), GOOD_CLIPS),
    "labels_short": (dict(GOOD_HEADER, labels=[0]), GOOD_CLIPS),
    "splits_long": (dict(GOOD_HEADER, splits=["train", "val", "val"]), GOOD_CLIPS),
    "label_negative": (dict(GOOD_HEADER, labels=[-1, None]), GOOD_CLIPS),
    "label_bool": (dict(GOOD_HEADER, labels=[True, None]), GOOD_CLIPS),
    "label_string": (dict(GOOD_HEADER, labels=["0", None]), GOOD_CLIPS),
    "split_not_string": (dict(GOOD_HEADER, splits=[0, "val"]), GOOD_CLIPS),
    "edge_not_pair": (dict(GOOD_HEADER, edges=[[0, 1], [1]]), GOOD_CLIPS),
    "edges_not_tree": (dict(GOOD_HEADER, edges=[[0, 1], [0, 1]]), GOOD_CLIPS),
    "no_clips": (GOOD_HEADER, {"frames": GOOD_CLIPS["clips"]}),
    "clips_rank_3": (GOOD_HEADER, {"clips": GOOD_CLIPS["clips"][0]}),
}


class TestSequenceFiles:
    """The dataset file: every clip, label and split in one codec file."""

    def test_round_trip(self, tmp_path):
        clips = np.linspace(-1.0, 1.0, 3 * 4 * 3 * 5, dtype=np.float32).reshape(3, 4, 3, 5)
        graph = build_star_tree(5)
        seqs = [_seq(c, graph, label) for c, label in zip(clips, [2, None, 0])]
        write_dataset(tmp_path, seqs, ["val", "test", "val"])
        assert [p.name for p in tmp_path.iterdir()] == [DATASET_FILE]
        loaded = load_dataset(tmp_path)
        assert sorted(loaded) == ["test", "train", "val"] and loaded["train"] == []
        back = loaded["val"] + loaded["test"]
        np.testing.assert_array_equal(np.stack([s.data for s in back]), clips[[0, 2, 1]])
        assert [s.label for s in back] == [2, 0, None]
        assert all(s.graph == graph for s in back)

    def test_bad_magic(self, tmp_path):
        (tmp_path / DATASET_FILE).write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(BadMagic, match="not a dataset file"):
            load_dataset(tmp_path)

    def test_truncated(self, tmp_path):
        seqs = generate_synthetic_dataset(2, 1, frames=16, seed=2, check_separability=False)
        write_dataset(tmp_path, seqs, ["train", "val"])
        path = tmp_path / DATASET_FILE
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 10])
        with pytest.raises(TruncatedFile):
            load_dataset(tmp_path)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(st.data())
    def test_mutated_file_raises_only_named_errors(self, tmp_path_factory, data):
        clips = np.linspace(-1.0, 1.0, 2 * 4 * 3 * 5, dtype=np.float32).reshape(2, 4, 3, 5)
        seqs = [_seq(c, build_star_tree(5), label) for c, label in zip(clips, [2, None])]
        directory = tmp_path_factory.getbasetemp() / "fuzz"
        write_dataset(directory, seqs, ["train", "val"])
        path = directory / DATASET_FILE
        raw = bytearray(path.read_bytes())
        (json_len,) = struct.unpack_from("<I", raw, 16)
        table = 20 + json_len  # tensor count, name, rank, dims
        position = st.integers(table, table + 4 + 4 + 5 + 4 + 16 - 1) | st.integers(0, len(raw) - 1)
        for pos, byte in data.draw(st.lists(st.tuples(position, st.integers(0, 255)),
                                            min_size=1, max_size=3)):
            raw[pos] = byte
        path.write_bytes(bytes(raw))
        try:
            load_dataset(directory)
        except SkelclError:
            pass

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_header_raises_corrupt_file(self, tmp_path, case):
        _write_raw_dataset(tmp_path, *MALFORMED[case])
        with pytest.raises(CorruptFile):
            load_dataset(tmp_path)

    def test_well_formed_header_loads(self, tmp_path):
        _write_raw_dataset(tmp_path, GOOD_HEADER, GOOD_CLIPS)
        loaded = load_dataset(tmp_path)
        assert [s.label for s in loaded["train"] + loaded["val"]] == [0, None]

    def test_failed_overwrite_keeps_old_dataset(self, tmp_path, disk_fills_after):
        old = generate_synthetic_dataset(2, 1, frames=16, seed=1, check_separability=False)
        new = generate_synthetic_dataset(2, 2, frames=16, seed=2, check_separability=False)
        write_dataset(tmp_path / "old", old, ["train", "val"])
        write_dataset(tmp_path / "new", new, ["train"] * 4)
        # the disk fills half way through writing the new dataset, whatever
        # the number of writes that takes
        disk_fills_after(sum(p.stat().st_size for p in (tmp_path / "new").iterdir()) // 2)
        with pytest.raises(OSError, match="disk full"):
            write_dataset(tmp_path / "old", new, ["train"] * 4)
        assert [p.name for p in (tmp_path / "old").iterdir()] == [DATASET_FILE]  # no temp file
        loaded = load_dataset(tmp_path / "old")
        np.testing.assert_array_equal([s.data for s in loaded["train"] + loaded["val"]],
                                      [s.data for s in old])

    def test_load_holds_the_clips_once(self, tmp_path):
        # each payload is read straight into its array: neither the file's
        # bytes nor a second copy of the clips is ever held (that peaked at 2 N)
        clips = np.random.default_rng(3).normal(size=(120, 64, 3, 25)).astype(np.float32)
        graph = build_star_tree(25)
        write_dataset(tmp_path, [_seq(c, graph, 0) for c in clips], ["train"] * len(clips))
        tracemalloc.start()
        try:
            loaded = load_dataset(tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal([s.data for s in loaded["train"]], clips)
        assert peak < 1.2 * clips.nbytes, peak / clips.nbytes

    # 0.01 and 0.99 round every class of 4 clips to an empty val or train split
    @pytest.mark.parametrize("fraction", [0.0, 1.0, 1.5, -1.0, 0.01, 0.99])
    def test_split_fraction_outside_open_unit_interval_rejected(self, fraction):
        seqs = generate_synthetic_dataset(3, 4, frames=16, seed=5, check_separability=False)
        with pytest.raises(ConfigValueError, match="val_fraction"):
            stratified_split(seqs, fraction, RngStream(5).split("split"))

    def test_stratified_pick_honours_floor(self):
        labels = np.array([0] * 10 + [1] * 2 + [2])
        picks = {floor: stratified_pick(labels, 0.2, np.random.default_rng(4), floor)
                 for floor in (0, 1, 3)}
        # round(size * 0.2) per class, raised to the floor, capped at the class size
        expected = {0: [2, 0, 0], 1: [2, 1, 1], 3: [3, 2, 1]}
        for floor, picked in picks.items():
            assert picked == sorted(picked)
            assert np.bincount(labels[picked], minlength=3).tolist() == expected[floor]
        # the floor takes more of the same draws, not other draws
        assert set(picks[0]) <= set(picks[1]) <= set(picks[3])

    def test_dataset_round_trip(self, tmp_path):
        seqs = generate_synthetic_dataset(3, 4, frames=16, seed=5, check_separability=False)
        splits = stratified_split(seqs, 0.25, RngStream(5).split("split"))
        write_dataset(tmp_path / "ds", seqs, splits)
        loaded = load_dataset(tmp_path / "ds")
        assert len(loaded["train"]) + len(loaded["val"]) == len(seqs)
        assert len(loaded["val"]) == 3  # one per class at 25% of 4
