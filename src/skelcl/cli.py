"""Command-line entry point.

Subcommands: pretrain, linprobe, knn, finetune, fuse, gen-data,
gradcheck, pft-hist.  Metrics stream to stdout (or --metrics PATH) as
JSON lines; evaluation results print as a single JSON document.  Every
setting comes from one `RunConfig` (`--config`, `--set KEY=VALUE`,
`--seed`, `--tau`); the probe subcommands read it from the checkpoint.

Exit codes: 0 success; 1 a failed check or any other named
`SkelclError`, such as a missing, unreadable or corrupt checkpoint, data,
scores or config file; 2 a usage or config error: an unknown key, a
wrong type, a config file that is not JSON, or a value out of range,
named by its config key or by the flag that set it (`--weight`,
`--alpha`, `--mu`, `--resume`, `--data`, `--k`, `--fraction`,
`--classes`, `--per-class`, `--joints`, `--frames`, `--val-fraction`).
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import tensor as T
from .augment import AugmentPipeline
from .checkpoint import (
    load_checkpoint,
    query_params,
    save_checkpoint,
    state_from_checkpoint,
    state_to_checkpoint,
)
from .config import RunConfig, parse_config
from .contrast import (
    MemoryQueue,
    combine_losses,
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
from .train import _augment_batch, finetune, fuse_predictions, knn_probe, linear_probe, pretrain


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


def _build_config(args) -> RunConfig:
    overrides = _parse_overrides(getattr(args, "set", []) or [])
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "tau", None) is not None:
        overrides["tau"] = args.tau
    return parse_config(getattr(args, "config", None), overrides)


@contextmanager
def _flags(names: dict[str, str]):
    """Re-raise a `ConfigValueError` on a key of `names` under the flag that set it."""
    try:
        yield
    except ConfigValueError as err:
        if err.key not in names:
            raise
        raise ConfigValueError(names[err.key], err.reason) from None


def _emit(doc: dict, path: str | None = None) -> None:
    text = json.dumps(doc)
    if path:
        with open(path, "a") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# -- subcommands -------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    with _flags({"num_classes": "--classes", "per_class": "--per-class", "joints": "--joints",
                 "frames": "--frames", "val_fraction": "--val-fraction"}):
        sequences = generate_synthetic_dataset(
            num_classes=args.classes,
            per_class=args.per_class,
            frames=args.frames,
            joints=args.joints,
            seed=args.seed,
            noise_sigma=args.noise_sigma,
        )
        splits = stratified_split(
            sequences, args.val_fraction, RngStream(args.seed).split("split")
        )
    write_dataset(args.out, sequences, splits)
    _emit(
        {
            "command": "gen-data",
            "sequences": len(sequences),
            "train": splits.count("train"),
            "val": splits.count("val"),
            "out": str(args.out),
            "seed": args.seed,
        }
    )
    return 0


def cmd_pretrain(args) -> int:
    if args.resume:
        if args.set or args.config or args.seed is not None or args.tau is not None:
            raise ConfigValueError(
                "--resume", "the run's config comes from the checkpoint; "
                "drop --set, --config, --seed and --tau"
            )
        ckpt = load_checkpoint(args.resume)
        config = ckpt.config
        state = state_from_checkpoint(ckpt)
    else:
        config = _build_config(args)
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
    """The checkpoint, the dataset and the stream's query encoder a probe reads."""
    ckpt = load_checkpoint(args.checkpoint)
    return ckpt, load_dataset(args.data), query_params(ckpt, args.stream)


def _emit_probe(args, ckpt, data, protocol: str, **fields) -> None:
    """One protocol result, tagged with its stream, eval size and checkpoint config."""
    _emit({"protocol": protocol, "stream": args.stream, **fields, "n_eval": len(data["val"]),
           "seed": ckpt.config.seed, "config_hash": ckpt.config.hash()})


def cmd_linprobe(args) -> int:
    ckpt, data, params = _probe_inputs(args)
    epochs = args.epochs if args.epochs is not None else ckpt.config.linear_epochs
    lr = args.lr if args.lr is not None else ckpt.config.linear_lr
    result = linear_probe(
        params, data["train"], data["val"], stream=args.stream,
        epochs=epochs, lr=lr, seed=ckpt.config.seed,
    )
    if args.scores_out:
        Path(args.scores_out).write_text(
            json.dumps(
                {
                    "stream": args.stream,
                    "scores": result.val_scores.tolist(),
                    "labels": result.val_labels.tolist(),
                }
            )
        )
    _emit_probe(args, ckpt, data, "linear", accuracy=result.accuracy)
    return 0


def cmd_knn(args) -> int:
    ckpt, data, params = _probe_inputs(args)
    k = args.k if args.k is not None else ckpt.config.knn_k
    with _flags({"knn_k": "--k"} if args.k is not None else {}):
        accuracy = knn_probe(params, data["train"], data["val"], stream=args.stream, k=k)
    _emit_probe(args, ckpt, data, "knn", k=k, accuracy=accuracy)
    return 0


def cmd_finetune(args) -> int:
    ckpt, data, params = _probe_inputs(args)
    epochs = args.epochs if args.epochs is not None else ckpt.config.finetune_epochs
    lr = args.lr if args.lr is not None else ckpt.config.finetune_lr
    with _flags({"fraction": "--fraction"}):
        result = finetune(
            params, data["train"], data["val"], stream=args.stream,
            fraction=args.fraction, epochs=epochs, lr=lr,
            weight_decay=ckpt.config.weight_decay, seed=ckpt.config.seed,
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
    docs = [_read_scores(p) for p in args.scores]
    scores = {stream: stream_scores for stream, stream_scores, _ in docs}
    weights = RunConfig().fusion_weights
    if args.weight:
        weights = {}
        for item in args.weight:
            stream, _, raw = item.partition("=")
            try:
                weights[stream] = float(raw)
            except ValueError:
                raise ConfigValueError(
                    "--weight", f"expects STREAM=W with a number W, got {item!r}"
                ) from None
        try:
            RunConfig(fusion_weights=weights)  # the config's own positivity rule
        except ConfigValueError as err:
            raise ConfigValueError("--weight", err.reason) from None
    for stream in sorted(scores):
        if stream not in weights:
            raise ConfigValueError(
                "--weight", f"no weight for stream {stream!r}, which --scores contains"
            )
    fused, labels = fuse_predictions(scores, {s: weights[s] for s in scores})
    doc = {
        "protocol": "fusion",
        "streams": sorted(scores),
        "weights": {s: weights[s] for s in sorted(scores)},
        "n_eval": int(labels.size),
        "predictions": labels.tolist(),
    }
    reference = next((truth for _, _, truth in docs if truth is not None), None)
    if reference is not None:
        doc["accuracy"] = float((labels == reference).mean())
    _emit(doc)
    return 0


def _gradcheck_components(dtype, eps=1e-4):
    """Small-scale gradient checks for each block type and loss term."""
    from .skeleton import build_star_tree

    graph = build_star_tree(5)
    adjacency = graph.normalized_adjacency(dtype)
    rng = np.random.default_rng(0)
    results = {}

    cfg_first = RunConfig(enc_blocks=1, enc_channels=[4], enc_hidden=8, embed_dim=4)
    cfg_residual = RunConfig(enc_blocks=2, enc_channels=[4, 4], enc_hidden=8, embed_dim=4)
    x = rng.normal(size=(1, 8, 3, 5)).astype(dtype)  # a batch of one clip

    for label, cfg in (("block_entry", cfg_first), ("block_residual", cfg_residual)):
        params = init_params(cfg, RngStream(1).split(label)).astype(dtype)
        target = rng.normal(size=cfg.enc_channels[-1])

        def f(params=params, target=target):
            h = stgcn_forward(x, adjacency, params, mode="eval")
            return T.sum_(T.mul(h, target))

        results[label] = T.grad_check(f, params.trainable(), eps=eps)

    # train-mode normalization: batch statistics carry gradient
    # (own generator, so the other components keep their inputs)
    norm_rng = np.random.default_rng(1)
    params = init_params(cfg_first, RngStream(1).split("block_train_norm")).astype(dtype)
    x_batch = norm_rng.normal(size=(2, 8, 3, 5)).astype(dtype)
    target_batch = norm_rng.normal(size=(2, cfg_first.enc_channels[-1]))

    def f_train_norm():
        h = stgcn_forward(x_batch, adjacency, params, mode="train", update_stats=False)
        return T.sum_(T.mul(h, target_batch))

    results["block_train_norm"] = T.grad_check(f_train_norm, params.trainable(), eps=eps)

    params = init_params(cfg_first, RngStream(2).split("proj")).astype(dtype)
    target = rng.normal(size=cfg_first.embed_dim)

    def f_proj():
        _, z = encode(x, adjacency, params, mode="eval")
        return T.sum_(T.mul(z, target))

    results["projector"] = T.grad_check(f_proj, params.trainable(), eps=eps)

    # loss terms on slim embeddings, one row each
    dim = 6
    fill = rng.normal(size=(8, dim))
    fill /= np.linalg.norm(fill, axis=1, keepdims=True)
    negatives = fill.astype(dtype)
    zq_param = T.parameter(rng.normal(size=(1, dim)).astype(dtype))
    zk = rng.normal(size=(1, dim))
    zk /= np.linalg.norm(zk)

    # plain, then with the most similar queue entry mined into the numerator
    for label, mine in (("loss_intra", None), ("loss_nnm", np.ones(1, dtype=bool))):

        def f_loss(mine=mine):
            return T.mean_(queue_nll(T.l2_normalize(zq_param), zk, negatives, 0.2, mine)[0])

        results[label] = T.grad_check(f_loss, {"zq": zq_param}, eps=eps)

    # the extrapolated key side is constant by contract (no gradients ever
    # reach the key branch), so the check perturbs the query path against
    # a key extrapolation frozen at the unperturbed point
    z0 = zq_param.data[0] / np.linalg.norm(zq_param.data[0])
    zk_pos = 0.7 * z0 + np.sqrt(1 - 0.49) * _orthogonal_unit(z0, rng)
    lam = 1.3
    zk_hat_frozen = lam * zk_pos + (1 - lam) * z0
    zk_hat_frozen /= np.linalg.norm(zk_hat_frozen)

    def f_pft():
        z_hat, _, _ = pft_transform(T.l2_normalize(zq_param), zk_pos[None], np.array([lam]))
        return T.mean_(queue_nll(z_hat, zk_hat_frozen[None], negatives, 0.2)[0])

    results["loss_pft_query_path"] = T.grad_check(f_pft, {"zq": zq_param}, eps=eps)

    # combined multi-stream objective (intra + inter, mined numerators)
    b = 2
    emb_params = {
        u: T.parameter(rng.normal(size=(b, dim)).astype(dtype)) for u in ("joint", "bone")
    }
    keys = {}
    queues = {}
    for u in emb_params:
        zk_u = rng.normal(size=(b, dim))
        keys[u] = zk_u / np.linalg.norm(zk_u, axis=1, keepdims=True)
        q = MemoryQueue(8, dim, dtype=dtype)
        q.push(fill)
        queues[u] = q
    run_config = RunConfig(streams=["joint", "bone"], tau=0.2)

    def f_combined():
        emb = {u: (T.l2_normalize(p), keys[u]) for u, p in emb_params.items()}
        res = combine_losses(emb, queues, run_config, True, False, RngStream(3).split("gc"))
        return res.total

    results["loss_combined"] = T.grad_check(f_combined, emb_params, eps=eps)
    return results


def _orthogonal_unit(v: np.ndarray, rng) -> np.ndarray:
    w = rng.normal(size=v.shape)
    w -= (w @ v) * v
    return w / np.linalg.norm(w)


def cmd_gradcheck(args) -> int:
    dtype = np.float64 if args.precision == "f64" else np.float32
    tolerance = 1e-6 if args.precision == "f64" else 1e-3
    eps = 1e-4 if args.precision == "f64" else 1e-2
    results = _gradcheck_components(dtype, eps=eps)
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
    with _flags({"pft_alpha": "--alpha", "pft_mu": "--mu"}):
        RunConfig(pft_alpha=args.alpha, pft_mu=args.mu)  # the config's own range rule
    rng = RngStream(args.seed).split("pft-hist")

    def draw_lambda(gen, size=None):
        return gen.beta(args.alpha, args.alpha, size) * args.mu + 1.0

    if args.checkpoint:
        if args.data is None:
            raise ConfigValueError("--data", "pft-hist --checkpoint embeds the val split of --data")
        ckpt = load_checkpoint(args.checkpoint)
        val = load_dataset(args.data)["val"]
        if not val:
            raise EmptyValSplit("pft-hist --checkpoint needs validation samples")
        config = ckpt.config
        graph, joints = clip_batch(val)
        adjacency = graph.normalized_adjacency(np.float32)
        # key branch embeddings come from the checkpointed key encoder
        branches = (
            ("q", config.query_family, query_params(ckpt, args.stream)),
            ("k", config.key_family, state_from_checkpoint(ckpt).pairs[args.stream].key),
        )
        views = []
        for branch, family, params in branches:
            pipeline = AugmentPipeline(family, config)
            x = _augment_batch(joints, pipeline, rng.split(branch), graph, (args.stream,))
            with T.no_tape():
                views.append(encode(x[args.stream], adjacency, params, mode="eval")[1].data)
        zq, zk = views
        lam = draw_lambda(rng.split("lam").generator(), len(val))
        before = (zq * zk).sum(axis=1)
    else:
        gen = rng.generator()
        pairs = []
        for _ in range(args.random_pairs):
            s = gen.uniform(0.0, 1.0)
            a = gen.normal(size=16)
            a /= np.linalg.norm(a)
            b = gen.normal(size=16)
            b -= (b @ a) * a
            b /= np.linalg.norm(b)
            pairs.append((s, a, s * a + np.sqrt(max(0.0, 1 - s * s)) * b, draw_lambda(gen)))
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
        "alpha": args.alpha,
        "mu": args.mu,
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

    p = sub.add_parser("gen-data", help="generate the synthetic dataset")
    p.add_argument("--classes", type=int, default=5)
    p.add_argument("--per-class", type=int, default=40)
    p.add_argument("--frames", type=int, default=32)
    p.add_argument("--joints", type=int, default=9)
    p.add_argument("--seed", type=int, default=7)
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

    p = sub.add_parser("linprobe", help="frozen-encoder linear evaluation")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--stream", default="joint")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--scores-out", default=None)
    p.set_defaults(func=cmd_linprobe)

    p = sub.add_parser("knn", help="training-free nearest-neighbor probe")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--stream", default="joint")
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(func=cmd_knn)

    p = sub.add_parser("finetune", help="finetuned / semi-supervised evaluation")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--stream", default="joint")
    p.add_argument("--fraction", type=float, default=1.0)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("fuse", help="weighted fusion of per-stream scores")
    p.add_argument("--scores", nargs="+", required=True)
    p.add_argument("--weight", action="append", metavar="STREAM=W")
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("gradcheck", help="central-difference oracle over all components")
    p.add_argument("--precision", choices=("f32", "f64"), default="f64")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("pft-hist", help="before/after positive-similarity table")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--data", default=None)
    p.add_argument("--stream", default="joint")
    p.add_argument("--random-pairs", type=int, default=1000)
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--bins", type=int, default=20)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_pft_hist)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UnknownKey, ConfigTypeError, ConfigValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except SkelclError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
