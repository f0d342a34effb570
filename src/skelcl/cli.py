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
scores or config file; 2 a usage or config error: an unknown key, a
wrong type, a config file that is not JSON, or a value out of range.  A
`ConfigValueError` prints under the flag whose `dest` is its key when
that option holds a value, and under its key otherwise.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

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
    clip_batch,
    generate_synthetic_dataset,
    load_dataset,
    read_input,
    stratified_split,
    write_dataset,
)
from .train import (
    branch_views,
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


def _emit(doc: dict, path: str | None = None) -> None:
    text = json.dumps(doc)
    if path:
        with open(path, "a") as fh:
            fh.write(text + "\n")
    else:
        print(text)


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
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    def on_stage_end(current_state, stage_index):
        save_checkpoint(out_dir / f"ckpt_stage{stage_index}.bin", state_to_checkpoint(current_state))

    state, records = pretrain(data["train"], config, state=state, on_stage_end=on_stage_end)
    save_checkpoint(out_dir / "checkpoint.bin", state_to_checkpoint(state))
    for record in records:
        _emit(record, args.metrics)
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
        Path(args.scores_out).write_text(json.dumps({
            "stream": args.stream, "scores": result.val_scores.tolist(),
            "labels": result.val_labels.tolist()}))
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
    scale: every block type, the projector, each loss term and the linear
    head.  Every value is drawn, rounded to `grid`'s precision and held in
    `dtype`, so a float64 build on a float32 grid is the float32 build's
    twin, at exactly the same values."""
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
    x = held(rng.normal(size=(1, 8, 3, 5)))  # a batch of one clip

    for label, cfg in (("block_entry", cfg_first), ("block_residual", cfg_residual)):
        params = encoder(cfg, RngStream(1).split(label))
        target = rng.normal(size=cfg.enc_channels[-1])

        def f(params=params, target=target):
            h = stgcn_forward(x, adjacency, params, mode="eval")
            return T.sum_(T.mul(h, target))

        cases[label] = (f, params.trainable())

    # train-mode normalization: batch statistics carry gradient
    # (own generator, so the other components keep their inputs)
    norm_rng = np.random.default_rng(1)
    norm_params = encoder(cfg_first, RngStream(1).split("block_train_norm"))
    x_batch = held(norm_rng.normal(size=(2, 8, 3, 5)))
    target_batch = norm_rng.normal(size=(2, cfg_first.enc_channels[-1]))

    def f_train_norm():
        h = stgcn_forward(x_batch, adjacency, norm_params, mode="train", update_stats=False)
        return T.sum_(T.mul(h, target_batch))

    cases["block_train_norm"] = (f_train_norm, norm_params.trainable())

    proj_params = encoder(cfg_first, RngStream(2).split("proj"))
    proj_target = rng.normal(size=cfg_first.embed_dim)

    def f_proj():
        _, z = encode(x, adjacency, proj_params, mode="eval")
        return T.sum_(T.mul(z, proj_target))

    cases["projector"] = (f_proj, proj_params.trainable())

    # loss terms on slim embeddings, one row each
    dim = 6
    fill = rng.normal(size=(8, dim))
    fill /= np.linalg.norm(fill, axis=1, keepdims=True)
    negatives = held(fill)
    zq_param = T.parameter(held(rng.normal(size=(1, dim))))
    zk = rng.normal(size=(1, dim))
    zk /= np.linalg.norm(zk)

    # plain, then with the most similar queue entry mined into the numerator
    for label, mine in (("loss_intra", None), ("loss_nnm", np.ones(1, dtype=bool))):

        def f_loss(mine=mine):
            return queue_nll(T.l2_normalize(zq_param), zk, [negatives], 0.2, 1, mine)[0]

        cases[label] = (f_loss, {"zq": zq_param})

    # the extrapolated key side is constant by contract (no gradients ever
    # reach the key branch), so the check perturbs the query path against
    # a key extrapolation frozen at the unperturbed point
    z0 = zq_param.data[0].astype(np.float64)
    z0 /= np.linalg.norm(z0)
    zk_pos = 0.7 * z0 + np.sqrt(1 - 0.49) * _orthogonal_unit(z0, rng)
    lam = 1.3
    zk_hat_frozen = lam * zk_pos + (1 - lam) * z0
    zk_hat_frozen /= np.linalg.norm(zk_hat_frozen)

    def f_pft():
        z_hat, _, _ = pft_transform(T.l2_normalize(zq_param), zk_pos[None], np.array([lam]))
        return queue_nll(z_hat, zk_hat_frozen[None], [negatives], 0.2, 1)[0]

    cases["loss_pft_query_path"] = (f_pft, {"zq": zq_param})

    # combined multi-stream objective (intra + inter, mined numerators)
    b = 2
    emb_params = {u: T.parameter(held(rng.normal(size=(b, dim)))) for u in ("joint", "bone")}
    keys = {}
    queues = {}
    for u in emb_params:
        zk_u = rng.normal(size=(b, dim))
        keys[u] = zk_u / np.linalg.norm(zk_u, axis=1, keepdims=True)
        q = MemoryQueue(8, dim, dtype=dtype)
        q.push(negatives)
        queues[u] = q
    run_config = RunConfig(streams=["joint", "bone"], tau=0.2)

    def f_combined():
        emb = {u: (T.l2_normalize(p), keys[u]) for u, p in emb_params.items()}
        res = combine_losses(emb, queues, run_config, True, False, RngStream(3).split("gc"))
        return res.total

    cases["loss_combined"] = (f_combined, emb_params)

    # the linear head of the probe and finetuning: a ragged batch of three
    # rows over four classes, one of which no row is labeled with
    head = {
        "rows": T.parameter(held(rng.normal(size=(3, dim)))),
        "weight": T.parameter(held(rng.normal(size=(dim, 4)))),
        "bias": T.parameter(held(rng.normal(size=4))),
    }
    labels = np.array([2, 0, 2])
    cases["head"] = (lambda: T.linear_softmax_nll(*head.values(), labels), head)
    return cases


def _gradcheck_components(dtype, eps=1e-4, reference=None) -> dict:
    """`T.grad_check` of every component built in `dtype`.  With a
    `reference` dtype, the central differences are taken on the
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
        # float32 rounding swamps a float32 central difference at any step
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

    p = sub.add_parser("gradcheck", help="central-difference oracle over all components")
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
