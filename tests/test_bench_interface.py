"""The package interface the benchmark in `skelbench/` relies on."""

import importlib.util
from pathlib import Path

import numpy as np

from skelcl.config import RunConfig
from skelcl.rng import RngStream
from skelcl.skeleton import (
    derive_streams,
    generate_synthetic_dataset,
    load_dataset,
    stratified_split,
    write_dataset,
)

SKELBENCH = Path(__file__).resolve().parent.parent / "skelbench"


def test_tracer_targets_exist_and_nothing_is_left_patched():
    # importing the tracer looks up every name it patches, without
    # installing any wrapper, so a renamed or deleted target fails here
    spec = importlib.util.spec_from_file_location("skelbench_tracing", SKELBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.leftover_wrappers() == []


def test_dataset_round_trip_as_the_benchmark_prepares_it(tmp_path):
    sequences = generate_synthetic_dataset(3, 4, frames=16, joints=9, seed=1, noise_sigma=0.02)
    splits = stratified_split(sequences, 0.25, RngStream(1).split("split"))
    write_dataset(tmp_path / "data", sequences, splits)
    data = load_dataset(tmp_path / "data")
    for name in ("train", "val"):
        expected = [s for s, split in zip(sequences, splits) if split == name]
        np.testing.assert_array_equal([s.data for s in data[name]], [s.data for s in expected])
        assert [s.label for s in data[name]] == [s.label for s in expected]


def test_derive_streams_on_single_clips_as_the_benchmark_calls_it():
    # set-up derives every configured stream per clip; the kNN check
    # stacks the joint stream of each clip
    sequences = generate_synthetic_dataset(2, 2, frames=16, joints=9, seed=1,
                                           check_separability=False)
    streams = RunConfig().streams
    for seq in sequences:
        views = derive_streams(seq, streams)
        assert set(views) == set(streams)
        assert all(v.shape == seq.data.shape for v in views.values())
    joints = np.stack([derive_streams(s, ("joint",))["joint"] for s in sequences])
    np.testing.assert_array_equal(joints, [s.data for s in sequences])
