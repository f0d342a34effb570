"""Checkpoint format: round trips, tamper detection, state reconstruction."""

import dataclasses
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skelcl.checkpoint import (
    Checkpoint,
    load_checkpoint,
    query_params,
    save_checkpoint,
    state_from_checkpoint,
    state_to_checkpoint,
)
from skelcl.config import RunConfig, json_hash
from skelcl.errors import (
    BadMagic,
    CorruptFile,
    HashMismatch,
    SkelclError,
    StreamMissing,
    TruncatedFile,
    VersionMismatch,
)
from skelcl.skeleton import generate_synthetic_dataset, write_dataset, write_file
from skelcl.train import pretrain

SMALL = RunConfig(
    seed=3, stage_epochs=[1, 1, 1], queue_size=32, batch_size=8,
    enc_channels=[4, 8, 8], enc_hidden=16, embed_dim=8, lr_drop_epoch=2,
)


@pytest.fixture(scope="module")
def trained_state():
    data = generate_synthetic_dataset(3, 6, frames=16, seed=2, check_separability=False)
    state, _ = pretrain(data, SMALL)
    return state


def test_save_load_save_byte_identical(tmp_path, trained_state):
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(p1, state_to_checkpoint(trained_state))
    save_checkpoint(p2, load_checkpoint(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_state_reconstruction_is_exact(tmp_path, trained_state):
    path = tmp_path / "c.bin"
    save_checkpoint(path, state_to_checkpoint(trained_state))
    rebuilt = state_from_checkpoint(load_checkpoint(path))
    assert rebuilt.epoch == trained_state.epoch
    assert rebuilt.step == trained_state.step
    for u in SMALL.streams:
        assert rebuilt.pairs[u].query.digest() == trained_state.pairs[u].query.digest()
        assert rebuilt.pairs[u].key.digest() == trained_state.pairs[u].key.digest()
        np.testing.assert_array_equal(
            rebuilt.queues[u].contents(), trained_state.queues[u].contents()
        )
        for name, buf in trained_state.optimizers[u].buffers.items():
            np.testing.assert_array_equal(rebuilt.optimizers[u].buffers[name], buf)


def test_hash_tamper_detected(tmp_path, trained_state):
    path = tmp_path / "d.bin"
    save_checkpoint(path, state_to_checkpoint(trained_state))
    raw = bytearray(path.read_bytes())
    raw[8] ^= 0xFF  # inside the stored config hash
    path.write_bytes(bytes(raw))
    with pytest.raises(HashMismatch):
        load_checkpoint(path)


def test_version_mismatch(tmp_path, trained_state):
    path = tmp_path / "e.bin"
    save_checkpoint(path, state_to_checkpoint(trained_state))
    raw = bytearray(path.read_bytes())
    raw[4] = 0xFE  # version field
    path.write_bytes(bytes(raw))
    with pytest.raises(VersionMismatch):
        load_checkpoint(path)


def test_truncation_detected(tmp_path, trained_state):
    path = tmp_path / "f.bin"
    save_checkpoint(path, state_to_checkpoint(trained_state))
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(TruncatedFile):
        load_checkpoint(path)


def test_bad_magic(tmp_path):
    path = tmp_path / "g.bin"
    path.write_bytes(b"WHAT" + b"\x00" * 32)
    with pytest.raises(BadMagic):
        load_checkpoint(path)


def test_missing_stream_raises(tmp_path, trained_state):
    path = tmp_path / "h.bin"
    save_checkpoint(path, state_to_checkpoint(trained_state))
    ckpt = load_checkpoint(path)
    with pytest.raises(StreamMissing):
        query_params(ckpt, "velocity")


def test_resume_reproduces_uninterrupted_run(tmp_path):
    """Stop at a stage boundary, reload, and replay identical metrics."""
    data = generate_synthetic_dataset(3, 6, frames=16, seed=4, check_separability=False)
    full_state, full_records = pretrain(data, SMALL)

    saved = {}

    def grab(state, stage):
        if stage == 0:
            save_checkpoint(tmp_path / "resume.bin", state_to_checkpoint(state))

    _, _ = pretrain(data, SMALL, on_stage_end=grab)
    resumed_state = state_from_checkpoint(load_checkpoint(tmp_path / "resume.bin"))
    resumed_state2, tail_records = pretrain(data, SMALL, state=resumed_state)

    boundary_step = resumed_state2.step - (len(tail_records) - 1)
    expected_tail = [r for r in full_records[1:] if r["step"] >= boundary_step]
    assert tail_records[1:] == expected_tail
    for u in SMALL.streams:
        assert resumed_state2.pairs[u].query.digest() == full_state.pairs[u].query.digest()


def _tensor_table_offset(raw: bytes) -> int:
    """Offset of the tensor count, just past the embedded config JSON."""
    (json_len,) = struct.unpack_from("<I", raw, 16)
    return 20 + json_len


@pytest.mark.parametrize("where", ["config_json", "tensor_name"])
def test_non_utf8_byte_raises_named_error(tmp_path, trained_state, where):
    path = tmp_path / "u.bin"
    save_checkpoint(path, state_to_checkpoint(trained_state))
    raw = bytearray(path.read_bytes())
    # first config byte, or the first byte of the first tensor name
    raw[20 if where == "config_json" else _tensor_table_offset(raw) + 8] = 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(HashMismatch if where == "config_json" else CorruptFile):
        load_checkpoint(path)


def test_non_json_config_under_matching_hash_raises_corrupt_file(tmp_path):
    garbage = b"\xff not json"
    path = tmp_path / "j.bin"
    path.write_bytes(b"CKPT" + struct.pack("<IQI", 1, json_hash(garbage), len(garbage)) + garbage)
    with pytest.raises(CorruptFile):
        load_checkpoint(path)


def test_huge_dims_do_not_wrap(tmp_path):
    # 2**31 * 2**31 * 4 wraps to 0 in int64; the payload check must see it
    path = tmp_path / "w.bin"
    save_checkpoint(path, Checkpoint(RunConfig(), {"x": np.zeros((1, 1, 1), np.float32)}))
    raw = bytearray(path.read_bytes())
    raw[-16:-4] = struct.pack("<3I", 2**31, 2**31, 4)
    path.write_bytes(bytes(raw))
    with pytest.raises(TruncatedFile):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "name,value",
    [
        ("enc.joint.query.projector.w1", None),
        ("enc.joint.key.block0.spatial_weight", np.zeros(1, np.float32)),  # would broadcast
        ("opt.joint.projector.b2", np.zeros((2, 2), np.float32)),
    ],
)
def test_damaged_tensor_raises_corrupt_file(trained_state, name, value):
    ckpt = state_to_checkpoint(trained_state)
    assert name in ckpt.tensors
    if value is None:
        del ckpt.tensors[name]
    else:
        ckpt.tensors[name] = value
    with pytest.raises(CorruptFile, match=name):
        state_from_checkpoint(ckpt)
    if ".query." in name:
        with pytest.raises(CorruptFile, match=name):
            query_params(ckpt, "joint")


@pytest.mark.parametrize(
    "name,value",
    [
        ("queue.joint.head", SMALL.queue_size),  # one past the last slot
        ("queue.joint.filled", -1),
        ("meta.epoch", None),  # missing
        ("meta.step", 0.5),
        ("meta.step", True),
    ],
)
def test_damaged_counter_raises_corrupt_file(trained_state, name, value):
    ckpt = state_to_checkpoint(trained_state)
    assert name in ckpt.counters and name not in ckpt.tensors
    if value is None:
        del ckpt.counters[name]
    else:
        ckpt.counters[name] = value
    with pytest.raises(CorruptFile, match=name):
        state_from_checkpoint(ckpt)


def test_counters_round_trip_beyond_float32(tmp_path, trained_state):
    # 2**24 + 1 is the first integer a float32 cursor would round
    state = dataclasses.replace(trained_state, step=2**24 + 1)
    path = tmp_path / "big.bin"
    save_checkpoint(path, state_to_checkpoint(state))
    assert state_from_checkpoint(load_checkpoint(path)).step == 2**24 + 1


def test_config_only_document_raises_corrupt_file(tmp_path):
    # the document must hold the config and the counters
    path = tmp_path / "old.bin"
    write_file(path, b"CKPT", RunConfig().canonical_json().encode(), {})
    with pytest.raises(CorruptFile):
        load_checkpoint(path)


FUZZ_CONFIG = RunConfig(
    seed=5, streams=["joint", "bone"], stage_epochs=[1, 0, 0], queue_size=4, batch_size=4,
    enc_blocks=1, enc_channels=[2], enc_hidden=4, embed_dim=2,
)


@pytest.fixture(scope="module")
def fuzz_checkpoint(tmp_path_factory):
    # one SGD step, so optimizer buffers are stored too; tiny tensors keep
    # the names and dims a large share of the bytes
    data = generate_synthetic_dataset(2, 2, frames=16, seed=1, check_separability=False)
    state, _ = pretrain(data, FUZZ_CONFIG)
    path = tmp_path_factory.mktemp("fuzz") / "ckpt.bin"
    save_checkpoint(path, state_to_checkpoint(state))
    return path, path.read_bytes()


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_mutated_checkpoint_raises_only_named_errors(fuzz_checkpoint, data):
    path, raw = fuzz_checkpoint
    mutated = bytearray(raw)
    position = st.integers(_tensor_table_offset(raw), len(raw) - 1) | st.integers(0, len(raw) - 1)
    for pos, byte in data.draw(st.lists(st.tuples(position, st.integers(0, 255)),
                                        min_size=1, max_size=3)):
        mutated[pos] = byte
    path.with_name("mutated.bin").write_bytes(bytes(mutated))
    try:
        ckpt = load_checkpoint(path.with_name("mutated.bin"))
        state_from_checkpoint(ckpt)
        query_params(ckpt, "bone")
    except SkelclError:
        pass


WRITERS = {
    "checkpoint": lambda dest, seqs: save_checkpoint(
        dest / "ckpt.bin", Checkpoint(RunConfig(seed=len(seqs)), {"x": np.ones(len(seqs))})
    ),
    "dataset": lambda dest, seqs: write_dataset(dest, seqs, ["train"] * len(seqs)),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_keeps_old_file_and_leaves_no_temp(tmp_path, monkeypatch, writer):
    seqs = generate_synthetic_dataset(2, 2, frames=16, seed=3, check_separability=False)
    WRITERS[writer](tmp_path, seqs[:2])
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def write_half_then_fail(self, data):
        with open(self, "wb") as fh:
            fh.write(data[: len(data) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_bytes", write_half_then_fail)
    with pytest.raises(OSError, match="disk full"):
        WRITERS[writer](tmp_path, seqs)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
