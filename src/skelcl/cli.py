"""Command-line entry point.

Subcommands: pretrain, linprobe, knn, finetune, fuse, gen-data,
gradcheck, pft-hist.  Metrics stream to stdout (or --metrics PATH) as
JSON lines; evaluation results print as a single JSON document.

A flag is a config override named by its argparse `dest`: every setting
comes from one `RunConfig`, which `_config` builds from a base document
and then every option given whose `dest` is a config key.  The base is
the checkpoint's config for the probes and `pft-hist --checkpoint`, the
`--config` file then the `--set KEY=VALUE` pairs for `pretrain`, and the
defaults otherwise.  Such a flag has no default of its own.

Exit codes: 0 success; 1 a failed check or any other named
`SkelclError`, such as a missing, unreadable or corrupt checkpoint, data,
scores or config file, or an output path that cannot be written; 2 a
usage or config error: an unknown key, a wrong type, a config file that
is not JSON, or a value out of range.  A
`ConfigValueError` prints under the flag whose `dest` is its key when
that option holds a value, and under its key otherwise.

BLAS threads: the package sets `OPENBLAS_NUM_THREADS`, `OMP_NUM_THREADS`
and `MKL_NUM_THREADS` to 1 where they are unset, on import and so
before NumPy loads BLAS (see `skelcl`); a value set in the environment
wins.  The limit: a caller that imported NumPy before `skelcl` keeps
NumPy's setting.  The `pretrain` header record names the three values
the run saw, under "blas_threads".

`pretrain` writes a header record, then one record per step.  The last
step record of each stage also carries, per stream, `z_cos:{stream}`,
the mean pairwise cosine of the step's query z, and `z_std:{stream}`,
the mean over dimensions of z's per-dimension std times √D: about 1
when the embeddings are spread, 0 when they have collapsed.  A fresh
run writes its `--metrics` file anew, replacing any file at that path,
so the file holds one run; `--resume` appends the resumed run's header
and steps to it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from contextlib import nullcontext

import numpy as np

from . import BLAS_THREAD_VARS
from . import tensor as T
from .checkpoint import (
    load_checkpoint,
    query_params,
    save_checkpoint,
    state_from_checkpoint,
    state_to_checkpoint,
)
from .config import RunConfig, config_from_dict, read_config
from .contrast import (
    MemoryQueue,
    combine_losses,
    pft_lambdas,
    pft_transform,
    queue_nll,
    similarity_histogram,
)
from .encoder import encode, init_params, stgcn_forward
from .errors import (
    ConfigTypeError,
    ConfigValueError,
    CorruptFile,
    EmptyValSplit,
    SkelclError,
    UnknownKey,
)
from .rng import RngStream
from .skeleton import (
    atomic_writer,
    clip_batch,
    generate_synthetic_dataset,
    load_dataset,
    make_dir,
    output_errors,
    read_input,
    stratified_split,
    write_dataset,
)
from .train import (
    branch_views,
    check_pretrain,
    eval_features,
    finetune,
    fuse_predictions,
    knn_probe,
    linear_probe,
    pretrain,
)


def _parse_overrides(pairs: list[str]) -> dict:
    out = {}
    for item in pairs:
        if "=" not in item:
            raise ConfigTypeError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError:
            out[key] = raw
    return out


_CONFIG_KEYS = frozenset(f.name for f in dataclasses.fields(RunConfig))


def _given(args) -> dict:
    """The options holding a value whose `dest` is a config key."""
    return {key: value for key, value in vars(args).items()
            if key in _CONFIG_KEYS and value is not None}


def _config(args, *docs: dict) -> RunConfig:
    """The config of `docs` in order, then of every config option given."""
    return config_from_dict(*docs, _given(args))


def _emit(doc: dict, out=None) -> None:
    """Write `doc` as one JSON line to `out`, an open text file (stdout by default)."""
    print(json.dumps(doc), file=out)


# -- subcommands -------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    sequences = generate_synthetic_dataset(
        args.num_classes, args.per_class, frames=args.frames, joints=args.joints,
        seed=args.data_seed, noise_sigma=args.noise_sigma)
    splits = stratified_split(sequences, args.val_fraction,
                              RngStream(args.data_seed).split("split"))
    write_dataset(args.out, sequences, splits)
    _emit({"command": "gen-data", "sequences": len(sequences), "train": splits.count("train"),
           "val": splits.count("val"), "out": str(args.out), "seed": args.data_seed})
    return 0


def cmd_pretrain(args) -> int:
    if args.resume:
        if args.set or args.config or _given(args):
            raise ConfigValueError("resume", "the run's config comes from the checkpoint; "
                                   "drop every other config option")
        ckpt = load_checkpoint(args.resume)
        config = ckpt.config
        state = state_from_checkpoint(ckpt)
    else:
        config = _config(args, read_config(args.config) if args.config else {},
                         _parse_overrides(args.set or []))
        state = None
    data = load_dataset(args.data)
    out_dir = make_dir(args.out)
    # --metrics opens after the run's checks and before its first step, so
    # a refused run leaves no file and a bad path costs no training
    check_pretrain(data["train"], config)
    with output_errors(args.metrics):
        metrics = (open(args.metrics, "a" if args.resume else "w") if args.metrics
                   else nullcontext(sys.stdout))

    def on_stage_end(current_state, stage_index):
        save_checkpoint(out_dir / f"ckpt_stage{stage_index}.bin", state_to_checkpoint(current_state))

    with metrics as out:
        state, records = pretrain(data["train"], config, state=state, on_stage_end=on_stage_end)
        records[0]["blas_threads"] = {name: os.environ.get(name) for name in BLAS_THREAD_VARS}
        save_checkpoint(out_dir / "checkpoint.bin", state_to_checkpoint(state))
        for record in records:
            _emit(record, out)
    return 0


def _probe_inputs(args):
    """The checkpoint, its config with the flags applied, the dataset and the
    stream's query encoder a probe reads."""
    ckpt = load_checkpoint(args.checkpoint)
    config = _config(args, ckpt.config.to_dict())
    return ckpt, config, load_dataset(args.data), query_params(ckpt, args.stream)


def _emit_probe(args, ckpt, data, protocol: str, **fields) -> None:
    """One protocol result, tagged with its stream, eval size and checkpoint config."""
    _emit({"protocol": protocol, "stream": args.stream, **fields, "n_eval": len(data["val"]),
           "seed": ckpt.config.seed, "config_hash": ckpt.config.hash()})


def cmd_linprobe(args) -> int:
    ckpt, config, data, params = _probe_inputs(args)
    result = linear_probe(params, data["train"], data["val"], stream=args.stream,
                          epochs=config.linear_epochs, lr=config.linear_lr, seed=config.seed)
    if args.scores_out:
        with atomic_writer(args.scores_out) as fh:
            fh.write(json.dumps({"stream": args.stream, "scores": result.val_scores.tolist(),
                                 "labels": result.val_labels.tolist()}).encode())
    _emit_probe(args, ckpt, data, "linear", accuracy=result.accuracy)
    return 0


def cmd_knn(args) -> int:
    ckpt, config, data, params = _probe_inputs(args)
    accuracy = knn_probe(params, data["train"], data["val"], stream=args.stream, k=config.knn_k)
    _emit_probe(args, ckpt, data, "knn", k=config.knn_k, accuracy=accuracy)
    return 0


def cmd_finetune(args) -> int:
    ckpt, config, data, params = _probe_inputs(args)
    result = finetune(
        params, data["train"], data["val"], stream=args.stream,
        fraction=args.fraction, epochs=config.finetune_epochs, lr=config.finetune_lr,
        weight_decay=config.weight_decay, seed=config.seed,
    )
    protocol = "finetune" if args.fraction == 1.0 else "semi-supervised"
    _emit_probe(args, ckpt, data, protocol, fraction=args.fraction,
                labeled=result.subset_size, accuracy=result.accuracy)
    return 0


def _read_scores(path) -> tuple[str, np.ndarray, np.ndarray | None]:
    """(stream, scores, labels or None) of a `linprobe --scores-out` file;
    `CorruptFile` names the path and the bad or missing key."""
    try:
        doc = json.loads(read_input(path))
    except ValueError:
        raise CorruptFile(f"{path}: not a JSON document") from None
    if not isinstance(doc, dict):
        raise CorruptFile(f"{path}: expected a JSON object with keys 'stream' and 'scores'")
    if not isinstance(doc.get("stream"), str):
        raise CorruptFile(f"{path}: key 'stream' is missing or not a string")
    try:
        scores = np.asarray(doc.get("scores"), dtype=np.float64)
    except (TypeError, ValueError):  # ragged or non-numeric
        scores = np.empty(0)
    if scores.ndim != 2:
        raise CorruptFile(f"{path}: key 'scores' is missing or not a 2-D numeric array")
    if not np.isfinite(scores).all():  # `json` reads NaN and Infinity as numbers
        raise CorruptFile(f"{path}: key 'scores' holds a value that is not finite")
    labels = doc.get("labels")
    if labels is not None:
        try:
            labels = np.asarray(labels)
        except ValueError:  # ragged
            labels = np.empty(0)
        if labels.shape != scores.shape[:1] or labels.dtype.kind not in "iu":
            raise CorruptFile(
                f"{path}: key 'labels' must hold one integer class per row of 'scores'"
            )
    return doc["stream"], scores, labels


def cmd_fuse(args) -> int:
    scores, source, labels = {}, {}, None  # labels: (path, labels) of the first file with them
    for path in args.scores:
        stream, stream_scores, truth = _read_scores(path)
        if stream in scores:
            raise ConfigValueError("scores", f"{source[stream]} and {path} both hold "
                                   f"stream {stream!r}")
        scores[stream], source[stream] = stream_scores, path
        if labels is None and truth is not None:
            labels = (path, truth)
        elif truth is not None and not np.array_equal(truth, labels[1]):
            raise ConfigValueError("scores", f"{labels[0]} and {path} hold different labels")
    given = {}  # the STREAM=W items, applied as one dict
    for item in args.fusion_weights or ():
        stream, _, raw = item.partition("=")
        if stream in given:
            raise ConfigValueError("fusion_weights", f"stream {stream!r} is weighted twice, "
                                   f"again by {item!r}")
        try:
            given[stream] = float(raw)
        except ValueError:
            raise ConfigValueError(
                "fusion_weights", f"expects STREAM=W with a number W, got {item!r}"
            ) from None
    args.fusion_weights = given or None
    weights = _config(args).fusion_weights
    _, predictions = fuse_predictions(scores, weights)
    doc = {
        "protocol": "fusion",
        "streams": sorted(scores),
        "weights": {s: weights[s] for s in sorted(scores)},
        "n_eval": int(predictions.size),
        "predictions": predictions.tolist(),
    }
    if labels is not None:
        doc["accuracy"] = float((predictions == labels[1]).mean())
    _emit(doc)
    return 0


def _gradcheck_cases(dtype, grid) -> dict:
    """Each gradient-check component as an (f, params) pair, at small
    scale: every block type (in train mode), the projector, each loss
    term and the linear head.  Each case reads through the node that
    follows it in the package, so a case's tape holds the package's own
    nodes only.  The blocks and the projector end in
    `T.linear_softmax_nll` with a fixed packed head, as finetuning's tape
    does.  The loss terms take their unit queries from `T.projector` over
    free hidden rows, with the projector's weights held fixed, as
    pretraining's tape does: projector, then `pft_transform`, then
    `queue_nll`.  Every value is drawn, rounded to `grid`'s precision and
    held in `dtype`, so a float64 build on a float32 grid is the float32
    build's twin, at exactly the same values."""
    from .skeleton import build_star_tree

    def held(a):
        return np.asarray(a, dtype=grid).astype(dtype)

    def encoder(cfg, rng_stream):
        return init_params(cfg, rng_stream).astype(grid).astype(dtype)

    graph = build_star_tree(5)
    adjacency = held(graph.normalized_adjacency(grid))
    rng = np.random.default_rng(0)
    cases = {}

    cfg_first = RunConfig(enc_blocks=1, enc_channels=[4], enc_hidden=8, embed_dim=4)
    cfg_residual = RunConfig(enc_blocks=2, enc_channels=[4, 4], enc_hidden=8, embed_dim=4)
    # a batch of two clips, in train mode (the one mode that records):
    # the batch statistics carry gradient
    x = held(rng.normal(size=(2, 8, 3, 5)))
    clip_labels = np.array([2, 0])  # over three classes

    for label, cfg in (("block_entry", cfg_first), ("block_residual", cfg_residual)):
        params = encoder(cfg, RngStream(1).split(label))
        head = held(rng.normal(size=(cfg.enc_channels[-1] + 1, 3)))

        def f(params=params, head=head):
            h = stgcn_forward(x, adjacency, params, mode="train", update_stats=False)
            return T.linear_softmax_nll(h, head, clip_labels)

        cases[label] = (f, params.trainable())

    proj_params = encoder(cfg_first, RngStream(2).split("proj"))
    proj_head = held(rng.normal(size=(cfg_first.embed_dim + 1, 3)))

    def f_proj():
        _, z = encode(x, adjacency, proj_params, mode="train", update_stats=False)
        return T.linear_softmax_nll(z, proj_head, clip_labels)

    cases["projector"] = (f_proj, proj_params.trainable())

    # loss terms on slim embeddings: the unit rows of a fixed projector,
    # weights and biases drawn, over free hidden rows, one row each.  Eight
    # inputs and sixteen hidden units (about eight active past the relu)
    # let each row's Jacobian dz/dh span all dim - 1 tangent directions of
    # the unit sphere at z, so the check covers every direction of the
    # loss's gradient in z, as a free unit row does
    width, units, dim = 8, 16, 6
    weights = [held(rng.normal(size=shape))
               for shape in ((width, units), (units,), (units, dim), (dim,))]
    fill = rng.normal(size=(8, dim))
    fill /= np.linalg.norm(fill, axis=1, keepdims=True)
    negatives = held(fill)
    hq_param = T.parameter(held(rng.normal(size=(1, width))))
    zk = rng.normal(size=(1, dim))
    zk /= np.linalg.norm(zk)

    # plain, then with the most similar queue entry mined into the numerator
    for label, mine in (("loss_intra", None), ("loss_nnm", np.ones(1, dtype=bool))):

        def f_loss(mine=mine):
            return queue_nll([T.projector(hq_param, *weights)], zk, [negatives], 0.2, 1, mine)[0]

        cases[label] = (f_loss, {"hq": hq_param})

    # the extrapolated key side is constant by contract (no gradients ever
    # reach the key branch), so the check perturbs the query path against
    # a key extrapolation frozen at the unperturbed point, taken in
    # float64 from the held values, so both twins freeze the same key
    z0 = T.projector(*(a.astype(np.float64) for a in (hq_param.data, *weights))).data[0]
    zk_pos = 0.7 * z0 + np.sqrt(1 - 0.49) * _orthogonal_unit(z0, rng)
    lam = 1.3
    zk_hat_frozen = lam * zk_pos + (1 - lam) * z0
    zk_hat_frozen /= np.linalg.norm(zk_hat_frozen)

    def f_pft():
        zq = T.projector(hq_param, *weights)
        z_hat, _, _ = pft_transform(zq, zk_pos[None], np.array([lam]))
        return queue_nll([z_hat], zk_hat_frozen[None], [negatives], 0.2, 1)[0]

    cases["loss_pft_query_path"] = (f_pft, {"hq": hq_param})

    # combined multi-stream objective (intra + inter, mined numerators)
    b = 2
    hidden = {u: T.parameter(held(rng.normal(size=(b, width)))) for u in ("joint", "bone")}
    keys = {}
    queues = {}
    for u in hidden:
        zk_u = rng.normal(size=(b, dim))
        keys[u] = zk_u / np.linalg.norm(zk_u, axis=1, keepdims=True)
        q = MemoryQueue(8, dim, dtype=dtype)
        q.push(negatives)
        queues[u] = q
    run_config = RunConfig(streams=["joint", "bone"], tau=0.2)

    def f_combined():
        emb = {u: (T.projector(h, *weights), keys[u]) for u, h in hidden.items()}
        res = combine_losses(emb, queues, run_config, True, False, RngStream(3).split("gc"))
        return res.total

    cases["loss_combined"] = (f_combined, hidden)

    # the linear head of the probe and finetuning: a ragged batch of three
    # rows over four classes, one of which no row is labeled with, and the
    # packed (dim+1, 4) head [weight; bias]
    head = {
        "rows": T.parameter(held(rng.normal(size=(3, dim)))),
        "head": T.parameter(held(rng.normal(size=(dim + 1, 4)))),
    }
    labels = np.array([2, 0, 2])
    cases["head"] = (lambda: T.linear_softmax_nll(*head.values(), labels), head)
    return cases


def _gradcheck_components(dtype, eps=1e-4, reference=None) -> dict:
    """`T.grad_check` of every component built in `dtype`.  With a
    `reference` dtype, the finite differences are taken on the
    component's twin built in that dtype from the same values."""
    twins = _gradcheck_cases(reference, dtype) if reference is not None else {}
    return {name: T.grad_check(f, params, eps=eps, reference=twins.get(name))
            for name, (f, params) in _gradcheck_cases(dtype, dtype).items()}


def _orthogonal_unit(v: np.ndarray, rng) -> np.ndarray:
    w = rng.normal(size=v.shape)
    w -= (w @ v) * v
    return w / np.linalg.norm(w)


def cmd_gradcheck(args) -> int:
    if args.precision == "f64":
        results, tolerance = _gradcheck_components(np.float64), 1e-6
    else:
        # float32 rounding swamps a float32 finite difference at any step
        # small enough for its truncation error to vanish, so the float32
        # analytic gradient is checked against float64 differences
        results = _gradcheck_components(np.float32, reference=np.float64)
        tolerance = 1e-3
    worst = 0.0
    for name, res in sorted(results.items()):
        print(f"{name:16s} max_rel_error={res.max_rel_error:.3e} "
              f"checked={res.coords_checked} skipped={len(res.skipped)}")
        worst = max(worst, res.max_rel_error)
    ok = worst < tolerance
    _emit({"command": "gradcheck", "precision": args.precision,
           "max_rel_error": worst, "tolerance": tolerance, "pass": ok})
    return 0 if ok else 1


def cmd_pft_hist(args) -> int:
    for key in ("random_pairs", "bins"):
        if vars(args)[key] < 1:
            raise ConfigValueError(key, f"must be positive, got {vars(args)[key]}")
    if args.checkpoint and args.data is None:
        raise ConfigValueError("--data", "pft-hist --checkpoint embeds the val split of --data")
    ckpt = load_checkpoint(args.checkpoint) if args.checkpoint else None
    config = _config(args, ckpt.config.to_dict() if ckpt else {})
    rng = RngStream(args.hist_seed).split("pft-hist")
    if ckpt:
        val = load_dataset(args.data)["val"]
        if not val:
            raise EmptyValSplit("pft-hist --checkpoint needs validation samples")
        graph, joints = clip_batch(val)
        adjacency = graph.normalized_adjacency(np.float32)
        views = branch_views(joints, config, rng.split, graph, (args.stream,))
        # key branch embeddings come from the checkpointed key encoder
        zq, zk = (eval_features(views[b][args.stream], adjacency,
                                query_params(ckpt, args.stream, branch), projected=True)
                  for b, branch in (("q", "query"), ("k", "key")))
        lam = pft_lambdas(rng.split("lam").generator(), config, len(val))
        before = (zq * zk).sum(axis=1)
    else:
        gen = rng.generator()
        pairs = []
        for _ in range(args.random_pairs):
            s = gen.uniform(0.0, 1.0)
            a = gen.normal(size=16)
            a /= np.linalg.norm(a)
            b = s * a + np.sqrt(max(0.0, 1 - s * s)) * _orthogonal_unit(a, gen)
            pairs.append((s, a, b, pft_lambdas(gen, config)))
        before, zq, zk, lam = (np.array(column) for column in zip(*pairs))

    zq_hat, zk_hat, applied = pft_transform(T.Tensor(zq), zk, lam)
    after = np.where(applied, (zq_hat.data * zk_hat).sum(axis=1), before)
    table = similarity_histogram(before, after, bins=args.bins)
    print(f"{'bin':>16s} {'before':>8s} {'after':>8s}")
    for lo, hi, nb, na in zip(table.edges, table.edges[1:], table.before_counts, table.after_counts):
        print(f"[{lo:+.2f}, {hi:+.2f}) {nb:8d} {na:8d}")
    doc = {
        "command": "pft-hist",
        "pairs": len(before),
        "alpha": config.pft_alpha,
        "mu": config.pft_mu,
        "before": table.before_stats,
        "after": table.after_stats,
    }
    _emit(doc)
    return 0 if table.after_stats["min"] >= 0.0 else 1


# -- argument parsing -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skelcl",
        description="Cross-stream contrastive learning on skeleton sequences",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    probe = argparse.ArgumentParser(add_help=False)  # what each probe reads
    probe.add_argument("--checkpoint", required=True)
    probe.add_argument("--data", required=True)
    probe.add_argument("--stream", default="joint")

    p = sub.add_parser("gen-data", help="generate the synthetic dataset")
    p.add_argument("--classes", dest="num_classes", type=int, default=5)
    p.add_argument("--per-class", type=int, default=40)
    p.add_argument("--frames", type=int, default=32)
    p.add_argument("--joints", type=int, default=9)
    p.add_argument("--seed", dest="data_seed", type=int, default=7)  # the data's, not the config's
    p.add_argument("--noise-sigma", type=float, default=0.02)
    p.add_argument("--val-fraction", type=float, default=0.25)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("pretrain", help="run the three-stage pretraining")
    p.add_argument("--config", default=None)
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--metrics", default=None)
    p.add_argument("--resume", default=None)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("linprobe", parents=[probe], help="frozen-encoder linear evaluation")
    p.add_argument("--epochs", dest="linear_epochs", type=int)
    p.add_argument("--lr", dest="linear_lr", type=float)
    p.add_argument("--scores-out", default=None)
    p.set_defaults(func=cmd_linprobe)

    p = sub.add_parser("knn", parents=[probe], help="training-free nearest-neighbor probe")
    p.add_argument("--k", dest="knn_k", type=int)
    p.set_defaults(func=cmd_knn)

    p = sub.add_parser("finetune", parents=[probe], help="finetuned / semi-supervised evaluation")
    p.add_argument("--fraction", type=float, default=1.0)
    p.add_argument("--epochs", dest="finetune_epochs", type=int)
    p.add_argument("--lr", dest="finetune_lr", type=float)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("fuse", help="weighted fusion of per-stream scores")
    p.add_argument("--scores", nargs="+", required=True)
    p.add_argument("--weight", dest="fusion_weights", action="append", metavar="STREAM=W")
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("gradcheck", help="finite-difference oracle over all components")
    p.add_argument("--precision", choices=("f32", "f64"), default="f64")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("pft-hist", help="before/after positive-similarity table")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--data", default=None)
    p.add_argument("--stream", default="joint")
    p.add_argument("--random-pairs", type=int, default=1000)
    p.add_argument("--alpha", dest="pft_alpha", type=float)
    p.add_argument("--mu", dest="pft_mu", type=float)
    p.add_argument("--bins", type=int, default=20)
    p.add_argument("--seed", dest="hist_seed", type=int, default=7)  # the draws', not the config's
    p.set_defaults(func=cmd_pft_hist)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigValueError as err:
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        flag = next((a.option_strings[0] for a in commands.choices[args.command]._actions
                     if a.dest == err.key and vars(args).get(a.dest) is not None), err.key)
        print(f"error: {flag}: {err.reason}", file=sys.stderr)
        return 2
    except (UnknownKey, ConfigTypeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except SkelclError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
