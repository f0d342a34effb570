"""The package interface the benchmark in `skelbench/` relies on."""

import ast
import dataclasses
import importlib.util
import inspect
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

import skelcl.tensor
import skelcl.train
from skelcl.checkpoint import load_checkpoint, query_params, save_checkpoint, state_to_checkpoint
from skelcl.cli import main
from skelcl.config import RunConfig
from skelcl.encoder import encode, init_params
from skelcl.rng import RngStream
from skelcl.skeleton import (
    derive_streams,
    generate_synthetic_dataset,
    load_dataset,
    stratified_split,
    write_dataset,
)
from skelcl.train import TrainState, finetune, knn_probe, linear_probe, pretrain

SKELBENCH = Path(__file__).resolve().parent.parent / "skelbench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("skelbench_tracing", SKELBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_targets_exist_and_nothing_is_left_patched():
    # importing the tracer looks up every name it patches, without
    # installing any wrapper, so a renamed or deleted target fails here
    assert _load_tracing().leftover_wrappers() == []


# Names the package itself never calls, kept only because the tracer
# snapshots them at import: the list a tracer that resolves its targets
# when a run is traced lets the package delete.  Every generic op the
# tracer patches is here, since each package tape holds fused nodes only.
TRACER_ONLY = {
    "tensor": {"add", "concat", "conv1d_temporal", "div", "exp", "l2_normalize", "log",
               "masked_softmax_nll_rows", "matmul", "mean_", "mul", "relu", "reshape",
               "sqrt", "sub", "sum_", "transpose", "where"},
    "train": {"derive_streams"},
}


def _live_tensor_names() -> set[str]:
    """The top-level names of tensor.py that live code names, transitively:
    the roots are the `T.<name>` references of the other package modules
    and tensor.py's statements outside its definitions, and a definition a
    live name reaches makes every tensor.py name in it live too."""
    src = SKELBENCH.parent / "src" / "skelcl"
    tree = ast.parse((src / "tensor.py").read_text())
    defs = {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    frontier = [stmt for stmt in tree.body if stmt not in defs.values()]
    for path in src.glob("*.py"):
        if path.name != "tensor.py":
            frontier += [ast.Name(node.attr) for node in ast.walk(ast.parse(path.read_text()))
                         if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                         and node.value.id == "T"]
    live = set()
    while frontier:
        for node in ast.walk(frontier.pop()):
            if isinstance(node, ast.Name) and node.id in defs and node.id not in live:
                live.add(node.id)
                frontier.append(defs[node.id])
    return live


def test_every_tensor_op_is_called_or_only_traced():
    # a public tensor function is live when live code names it
    # (`_live_tensor_names`); the `derive_streams` re-export in train.py is
    # live when the package calls it
    used = {("tensor", name) for name in _live_tensor_names()}
    for path in (SKELBENCH.parent / "src" / "skelcl").glob("*.py"):
        if any(isinstance(node, ast.Name) and node.id == "derive_streams"
               for node in ast.walk(ast.parse(path.read_text()))):
            used.add(("train", "derive_streams"))
    public = {("tensor", name) for name, value in vars(skelcl.tensor).items()
              if inspect.isfunction(value) and value.__module__ == "skelcl.tensor"
              and not name.startswith("_")}
    unused = public | {("train", "derive_streams")}
    unused -= used
    tracing = _load_tracing()
    traced = {(owner.__name__.rpartition(".")[2], attr) for owner, attr in tracing.ORIGINALS}
    assert unused <= traced, f"dead names no tracer patches: {sorted(unused - traced)}"
    assert unused == {(module, name) for module, names in TRACER_ONLY.items() for name in names}
    assert TRACER_ONLY["tensor"] == set(tracing.TENSOR_OPS)


def test_no_package_path_calls_a_traced_tensor_op(tmp_path, monkeypatch):
    # every generic op the tracer patches raises, and the package still
    # pretrains through all three stages, runs every protocol, fuses,
    # draws both PFT tables and checks every gradient case
    for op in _load_tracing().TENSOR_OPS:

        def refuse(*args, op=op, **kwargs):
            raise AssertionError(f"the package called the generic op T.{op}")

        monkeypatch.setattr(skelcl.tensor, op, refuse)
    data, run = str(tmp_path / "data"), tmp_path / "run"
    assert main(["gen-data", "--classes", "3", "--per-class", "6", "--frames", "16",
                 "--seed", "3", "--out", data]) == 0
    argv = ["pretrain", "--data", data, "--out", str(run)]
    for setting in ["stage_epochs=[1,1,1]", "queue_size=8", "batch_size=8", "enc_blocks=2",
                    "enc_channels=[4,4]", "enc_hidden=8", "embed_dim=4", "knn_k=1",
                    "pft_apply_to_inter=true"]:
        argv += ["--set", setting]
    assert main(argv) == 0
    probe = ["--checkpoint", str(run / "checkpoint.bin"), "--data", data]
    scores = [str(tmp_path / f"{stream}.json") for stream in ("joint", "bone")]
    for stream, path in zip(("joint", "bone"), scores):
        assert main(["linprobe", *probe, "--stream", stream, "--epochs", "1",
                     "--scores-out", path]) == 0
    assert main(["knn", *probe]) == 0
    for fraction in ("1", "0.5"):
        assert main(["finetune", *probe, "--epochs", "1", "--fraction", fraction]) == 0
    assert main(["fuse", "--scores", *scores]) == 0
    assert main(["pft-hist", "--random-pairs", "50"]) == 0
    assert main(["pft-hist", *probe]) == 0
    for precision in ("f64", "f32"):
        assert main(["gradcheck", "--precision", precision]) == 0


def test_benchmark_selftest_passes():
    # the benchmark's own tests patch skelcl, so they run in their own process
    proc = subprocess.run([sys.executable, str(SKELBENCH / "selftest.py")], cwd=SKELBENCH.parent,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


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


def test_pretrain_state_and_protocols_as_the_benchmark_reads_them(tmp_path, monkeypatch):
    sequences = generate_synthetic_dataset(2, 4, frames=16, joints=9, seed=1,
                                           check_separability=False)
    config = RunConfig(stage_epochs=[1, 0, 0], queue_size=4, batch_size=4, enc_blocks=1,
                       enc_channels=[4], enc_hidden=8, embed_dim=4)
    state, _ = pretrain(sequences, config)
    # the step clock subclasses TrainState and copies its dataclass fields
    assert "step" in {f.name for f in dataclasses.fields(TrainState)}
    assert isinstance(state, TrainState) and state.step == 2
    for u in config.streams:
        assert state.pairs[u].query.tensors and state.pairs[u].key.tensors
        rows = state.queues[u].contents()
        np.testing.assert_allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-3)
    written = state_to_checkpoint(state).tensors
    save_checkpoint(tmp_path / "checkpoint.bin", state_to_checkpoint(state))
    ckpt = load_checkpoint(tmp_path / "checkpoint.bin")
    assert set(ckpt.tensors) == set(written)
    for name, value in written.items():
        np.testing.assert_array_equal(ckpt.tensors[name], np.asarray(value, dtype=np.float32))

    params = query_params(ckpt, "joint")
    adjacency = sequences[0].graph.normalized_adjacency(np.float32)
    h, z = encode(np.stack([s.data for s in sequences]), adjacency, params, mode="eval")
    assert h.shape[0] == z.shape[0] == len(sequences)
    train, val = sequences[0::2], sequences[1::2]
    # the fields the protocol checks and fingerprints read
    lin = linear_probe(params, train, val, stream="joint", epochs=1, lr=0.3, seed=7)
    assert lin.encoder_digest_before == lin.encoder_digest_after == params.digest()
    assert lin.weights.shape == (h.shape[1], lin.bias.shape[0]) and 0 <= lin.accuracy <= 1
    assert 0 <= knn_probe(params, train, val, stream="joint", k=1) <= 1
    # the benchmark's BackwardClock times finetune steps by their tensor.backward calls
    backward, calls = skelcl.tensor.backward, []
    monkeypatch.setattr(skelcl.tensor, "backward", lambda loss: calls.append(1) or backward(loss))
    tuned = finetune(params, train, val, stream="joint", fraction=0.5, epochs=3, lr=0.1,
                     weight_decay=1e-4, seed=7)
    assert tuned.subset_size == 2 and 0 <= tuned.accuracy <= 1
    assert len(calls) == 3 * math.ceil(tuned.subset_size / 32)
    assert tuned.params.digest() != params.digest() and tuned.params.tensors


def test_knn_probe_eval_passes_as_the_tracer_counts_them(monkeypatch):
    # the tracer times each eval pass as the `stgcn_forward` and `project`
    # that skelcl.train calls, so the pass count is what its spans count
    sequences = generate_synthetic_dataset(3, 11, frames=16, joints=9, seed=1,
                                           check_separability=False)
    sizes = {"stgcn_forward": [], "project": []}

    def counted(name):
        original, calls = getattr(skelcl.train, name), sizes[name]

        def wrapper(x, *args, **kwargs):
            calls.append(x.shape[0])
            return original(x, *args, **kwargs)

        return wrapper

    for name in sizes:
        monkeypatch.setattr(skelcl.train, name, counted(name))

    def passes(channels, train, val):
        config = RunConfig(enc_blocks=len(channels), enc_channels=channels, enc_hidden=8,
                           embed_dim=4)
        knn_probe(init_params(config, RngStream(1)), train, val, stream="joint", k=3)
        assert sizes["project"] == sizes["stgcn_forward"]
        taken = list(sizes["stgcn_forward"])
        for calls in sizes.values():
            calls.clear()
        return taken

    train, val = sequences[:22], sequences[22:31]
    # a one-block encoder's only block pools: one pass per split at any budget
    assert passes([4], train, val) == [22, 9]
    monkeypatch.setattr(skelcl.train, "FEATURE_BYTES", 1)
    assert passes([4], train, val) == [22, 9]
    # three blocks hold T·V·itemsize·(4 + 8) bytes a clip in the two that do not pool
    per_clip = 16 * 9 * 4 * (4 + 8)
    monkeypatch.setattr(skelcl.train, "FEATURE_BYTES", 5 * per_clip + per_clip // 2)
    taken = passes([4, 8, 8], train, val)
    assert len(taken) == math.ceil(22 / 5) + math.ceil(9 / 5)
    assert taken == [5, 5, 5, 5, 2, 5, 4]
    # a lone last clip joins the pass before it, so no pass of a split holds one clip
    assert passes([4, 8, 8], sequences[:21], val) == [5, 5, 5, 6, 5, 4]
    monkeypatch.setattr(skelcl.train, "FEATURE_BYTES", 1)
    assert passes([4, 8, 8], train, val) == [2] * 11 + [2, 2, 2, 3]
