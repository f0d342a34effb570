"""Checkpoint format: round trips, tamper detection, state reconstruction."""

import dataclasses
import json
import math
import struct

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
    ConfigValueError,
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


def test_checkpoint_shares_the_live_state_arrays(trained_state):
    # no copy is made: a caller saves or copies it before training resumes
    ckpt = state_to_checkpoint(trained_state)
    pair, queue = trained_state.pairs["joint"], trained_state.queues["joint"]
    for name, arr in (("enc.joint.query.block0.spatial_weight",
                       pair.query["block0.spatial_weight"].data),
                      ("enc.joint.key.block0.norm_running_var",
                       pair.key["block0.norm_running_var"].data),
                      ("queue.joint.slots", queue.slots),
                      ("opt.joint.projector.w1", trained_state.buffers["joint.projector.w1"])):
        assert np.shares_memory(ckpt.tensors[name], arr), name


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
    for key, buf in trained_state.buffers.items():
        np.testing.assert_array_equal(rebuilt.buffers[key], buf)


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


def test_every_written_tensor_is_read_back_by_name(trained_state):
    # a restore needs each tensor a checkpoint holds, and names the one it lacks
    ckpt = state_to_checkpoint(trained_state)
    for name in ckpt.tensors:
        partial = Checkpoint(ckpt.config, {k: v for k, v in ckpt.tensors.items() if k != name},
                             ckpt.counters)
        if name.startswith("queue."):  # a stream's queue marks the stream as present
            with pytest.raises(StreamMissing, match=repr(name.split(".")[1])):
                state_from_checkpoint(partial)
        else:
            with pytest.raises(CorruptFile, match=f"lacks tensor {name!r}"):
                state_from_checkpoint(partial)


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
    # the loss reads each ring in slot order, so resume must restore a wrapped one exactly
    assert all(q.head != 0 for q in resumed_state.queues.values())
    resumed_state2, tail_records = pretrain(data, SMALL, state=resumed_state)

    boundary_step = resumed_state2.step - (len(tail_records) - 1)
    expected_tail = [r for r in full_records[1:] if r["step"] >= boundary_step]
    assert tail_records[1:] == expected_tail
    for u in SMALL.streams:
        assert resumed_state2.pairs[u].query.digest() == full_state.pairs[u].query.digest()
        assert resumed_state2.queues[u].slots.tobytes() == full_state.queues[u].slots.tobytes()


def test_stage_end_steps_carry_the_collapse_signal(tmp_path):
    # two epochs in stage 1, so an epoch can end without ending its stage;
    # a resumed run writes the same JSON lines, fields included
    config = dataclasses.replace(SMALL, stage_epochs=[2, 1, 1], lr_drop_epoch=3)
    data = generate_synthetic_dataset(3, 6, frames=16, seed=4, check_separability=False)
    _, full = pretrain(data, config)
    fields = [f"z_{kind}:{u}" for u in config.streams for kind in ("cos", "std")]
    steps = full[1:]
    for i, record in enumerate(steps):
        stage_end = i == len(steps) - 1 or steps[i + 1]["stage"] != record["stage"]
        assert stage_end == any(f in record for f in fields), record["step"]
        if stage_end:
            assert all(math.isfinite(record[f]) for f in fields)
            assert all(-1 <= record[f"z_cos:{u}"] <= 1 and record[f"z_std:{u}"] >= 0
                       for u in config.streams)
    assert sum(fields[0] in r for r in steps) == 3 and len({r["epoch"] for r in steps}) == 4

    def grab(state, stage):
        if stage == 0:
            save_checkpoint(tmp_path / "stage0.bin", state_to_checkpoint(state))

    pretrain(data, config, on_stage_end=grab)
    resumed = state_from_checkpoint(load_checkpoint(tmp_path / "stage0.bin"))
    _, tail = pretrain(data, config, state=resumed)
    lines = [json.dumps(r) for r in full[1:]]
    assert [json.dumps(r) for r in tail[1:]] == lines[len(lines) - len(tail) + 1:]
    assert any(fields[0] in r for r in tail[1:])


def test_one_clip_run_has_no_pair_to_signal():
    # a one-clip batch has no pairwise cosine, so its stage-end record has
    # no collapse fields (and raises no division warning)
    data = generate_synthetic_dataset(3, 6, frames=16, seed=4, check_separability=False)[:1]
    _, records = pretrain(data, dataclasses.replace(SMALL, stage_epochs=[1, 0, 0]))
    assert len(records) == 2 and not any(k.startswith("z_") for k in records[1])


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
        ("opt.joint.projector.b2", None),  # momentum would restart silently
        ("enc.joint.query.projector.b2", np.full(SMALL.embed_dim, np.nan, np.float32)),
        ("queue.joint.slots", np.full((SMALL.queue_size, SMALL.embed_dim), np.nan, np.float32)),
        ("queue.joint.slots", np.full((SMALL.queue_size, SMALL.embed_dim), 7.0, np.float32)),
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


def test_normalization_off_checkpoint_fails_on_its_config(tmp_path, trained_state):
    # a checkpoint of an encoder without batch norm (a setting since
    # removed) holds no norm_* tensors; its config is what rejects it
    ckpt = state_to_checkpoint(trained_state)
    config = dict(SMALL.to_dict(), enc_normalization="off")
    doc = {"config": config, "counters": ckpt.counters}
    path = tmp_path / "off.bin"
    write_file(path, b"CKPT", json.dumps(doc, sort_keys=True).encode(),
               {k: v for k, v in ckpt.tensors.items() if ".norm_" not in k})
    with pytest.raises(ConfigValueError) as err:
        load_checkpoint(path)
    assert err.value.key == "enc_normalization"


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
def test_failed_write_keeps_old_file_and_leaves_no_temp(tmp_path, disk_fills_after, writer):
    seqs = generate_synthetic_dataset(2, 2, frames=16, seed=3, check_separability=False)
    WRITERS[writer](tmp_path, seqs[:2])
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    # the disk fills half way through a file at least as long as the old one
    disk_fills_after(sum(len(raw) for raw in before.values()) // 2)
    with pytest.raises(OSError, match="disk full"):
        WRITERS[writer](tmp_path, seqs)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
