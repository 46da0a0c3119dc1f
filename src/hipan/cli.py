"""Command line front end.

Subcommands: ingest (tree file to encoded dataset), synth (generate a
hierarchy), train, eval, diagnose, inspect, export-viz.

Settings resolve in precedence order: command line flags, then HIPAN_*
environment variables, then a key=value config file given with --config,
then built-in defaults.

Exit codes: 0 success, 1 usage, 2 bad data or configuration, 3 numeric
failure during training.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from .checkpoint import (
    config_matches,
    load_checkpoint,
    load_model,
)
from .metrics import (
    accuracy_report,
    diagnose,
    write_box_counts_tsv,
    write_distance_matrix_tsv,
    write_entropy_tsv,
    write_reliability_tsv,
)
from .model import ModelConfig, describe_ball, new_model, parameter_count
from .optim import (
    AdamConfig,
    GistConfig,
    NumericAbort,
    dataset_loss,
    default_plan,
    train,
    uniform_plan,
)
from .tree import (
    DecodeError,
    TreeParseError,
    branching_stats,
    dataset_from_json,
    dataset_to_json,
    dump_tree,
    encode_tree,
    gen_synthetic,
    load_tree,
    make_codec,
    tree_to_nested,
)

ENV_PREFIX = "HIPAN_"


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    """Knobs shared by the data and training commands.

    k_digits / k_heads of 0 mean "derive from the hierarchy"; lr and
    warmup_lr of 0.0 mean "use the plan's own rates".  max_pairs and
    bins feed the diagnostics (sampled pair budget, reliability bins).
    """

    seed: int = 0
    optimizer: str = "gist"
    batch_size: int = 64
    k_digits: int = 0
    k_heads: int = 0
    tau: float = 0.5
    plan: str = "default"
    lr: float = 0.0
    warmup_lr: float = 0.0
    patience: int = 2
    max_pairs: int = 100_000
    bins: int = 15


# setting name -> the type its text parses as (the type of its default)
_FIELD_TYPES = {f.name: type(f.default) for f in fields(RunConfig)}


def _coerce(name: str, raw: str):
    try:
        return _FIELD_TYPES[name](raw)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"bad value for {name}: {raw!r}") from exc


def parse_config_file(path: str) -> dict:
    """key=value lines; blank lines and # comments ignored."""
    out: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, value = stripped.partition("=")
            key = key.strip()
            if key not in _FIELD_TYPES:
                raise ValueError(f"{path}:{lineno}: unknown setting {key!r}")
            out[key] = _coerce(key, value.strip())
    return out


def resolve_config(config_path: str | None, flag_values: dict) -> RunConfig:
    """Defaults, overridden by file, then environment, then flags."""
    values = {f.name: f.default for f in fields(RunConfig)}
    if config_path:
        values.update(parse_config_file(config_path))
    for name in _FIELD_TYPES:
        raw = os.environ.get(ENV_PREFIX + name.upper())
        if raw is not None:
            values[name] = _coerce(name, raw)
    for name, value in flag_values.items():
        if value is not None and name in values:
            values[name] = value
    cfg = RunConfig(**values)
    if cfg.optimizer not in ("gist", "adam"):
        raise ValueError(f"optimizer must be gist or adam, got {cfg.optimizer!r}")
    if cfg.plan not in ("default", "uniform"):
        raise ValueError(f"plan must be default or uniform, got {cfg.plan!r}")
    for name in ("tau", "lr", "warmup_lr"):
        if not np.isfinite(getattr(cfg, name)):
            raise ValueError(f"{name} must be finite, got {getattr(cfg, name)}")
    return cfg


def _flags(ns: argparse.Namespace) -> dict:
    return {name: getattr(ns, name, None) for name in _FIELD_TYPES}


def _emit(obj: dict, out_path: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _parse_prefix(text: str) -> list[int]:
    if text == "":
        return []
    try:
        return [int(part) for part in text.split("-")]
    except ValueError as exc:
        raise ValueError(f"bad digit prefix {text!r}, want e.g. 0-2-1") from exc


def _load_dataset(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return dataset_from_json(fh.read())


def cmd_ingest(ns: argparse.Namespace) -> int:
    cfg = resolve_config(ns.config, _flags(ns))
    tree = load_tree(ns.tree)
    codec = make_codec(tree, cfg.k_digits or None)
    ds = encode_tree(tree, codec)
    with open(ns.out, "w", encoding="utf-8") as fh:
        fh.write(dataset_to_json(ds))
    histogram = {
        str(depth): {str(width): n for width, n in sorted(level.items())}
        for depth, level in sorted(branching_stats(tree).items())
    }
    print(
        json.dumps(
            {
                "leaves": ds.n_records,
                "p": codec.p,
                "K": codec.K,
                "b_max": tree.b_max,
                "branching_histogram": histogram,
            },
            sort_keys=True,
        )
    )
    return 0


def cmd_synth(ns: argparse.Namespace) -> int:
    cfg = resolve_config(ns.config, _flags(ns))
    tree = gen_synthetic(ns.kind, ns.branching, ns.depth, cfg.seed)
    with open(ns.out_tree, "w", encoding="utf-8") as fh:
        fh.write(dump_tree(tree))
    summary = {"nodes": tree.n_nodes, "leaves": tree.n_leaves, "max_depth": tree.max_depth}
    if ns.out_dataset:
        ds = encode_tree(tree)
        with open(ns.out_dataset, "w", encoding="utf-8") as fh:
            fh.write(dataset_to_json(ds))
        summary["p"] = ds.codec.p
        summary["K"] = ds.codec.K
    print(json.dumps(summary))
    return 0


class _LazyLog:
    """The --log file, opened (and truncated) at its first write, so a run
    that train refuses before it logs an epoch leaves the path as it was."""

    def __init__(self, path: str):
        self.path = path
        self.fh = None

    def file(self):
        if self.fh is None:
            self.fh = open(self.path, "w", encoding="utf-8")
        return self.fh

    def write(self, text: str) -> int:
        return self.file().write(text)

    def close(self) -> None:
        if self.fh is not None:
            self.fh.close()


def cmd_train(ns: argparse.Namespace) -> int:
    cfg = resolve_config(ns.config, _flags(ns))
    ds = _load_dataset(ns.dataset)
    tree = load_tree(ns.tree) if ns.tree else None
    codec = ds.codec
    config_dict = {"run": asdict(cfg), "codec": {"p": codec.p, "K": codec.K}}
    resume_doc = None
    if ns.resume:
        resume_doc = load_checkpoint(ns.resume)
        if not config_matches(resume_doc, config_dict):
            print(
                "refusing to resume: configuration differs from the one "
                "this checkpoint was trained under",
                file=sys.stderr,
            )
            return 2
        model = load_model(resume_doc)
    else:
        mconf = ModelConfig(codec, cfg.k_heads or None, cfg.tau)
        model = new_model(mconf, cfg.seed)
    # only the rates the user set; the others are the library's defaults
    lr = {"lr": cfg.lr} if cfg.lr else {}
    warmup_lr = {"warmup_lr": cfg.warmup_lr} if cfg.warmup_lr else {}
    if cfg.plan == "default":
        plan = default_plan(codec.K, **lr, **warmup_lr)
    else:
        plan = uniform_plan(codec.K, **lr)
    if cfg.optimizer == "gist":
        optimizer: GistConfig | AdamConfig = GistConfig(patience=cfg.patience, seed=cfg.seed)
        hyper: dict = {"patience": cfg.patience}
    else:
        optimizer = AdamConfig(**lr, **warmup_lr)
        hyper = {
            "beta1": optimizer.beta1,
            "beta2": optimizer.beta2,
            "lr": plan.phases[-1].lr,
        }
    log = _LazyLog(ns.log) if ns.log else None
    t0 = time.monotonic()
    try:
        result = train(
            model,
            ds,
            optimizer,
            plan,
            batch_size=cfg.batch_size,
            seed=cfg.seed,
            tree=tree,
            log_stream=log or sys.stdout,
            checkpoint_dir=ns.checkpoint_dir,
            run_config=config_dict,
            resume=resume_doc,
        )
        if log is not None:
            log.file()  # a run that logs no epoch still leaves its empty log
    finally:
        if log is not None:
            log.close()
    summary = {
        "event": "summary",
        "leaf_acc": result.history[-1]["leaf_acc"] if result.history else None,
        "loss": result.history[-1]["loss"] if result.history else None,
        "evals": result.evals,
        "steps": result.steps,
        "checkpoints": result.checkpoints,
        "wall_ms": int((time.monotonic() - t0) * 1000),
        "parameters": parameter_count(model.config),
        "hyperparameters": hyper,
    }
    print(json.dumps(summary))
    return 0


def _load_model_for(ns: argparse.Namespace, ds) -> tuple:
    doc = load_checkpoint(ns.checkpoint)
    model = load_model(doc)
    if model.config.codec != ds.codec:
        raise ValueError(
            f"dataset codec {ds.codec} does not match checkpoint {model.config.codec}"
        )
    return model, doc


def cmd_eval(ns: argparse.Namespace) -> int:
    ds = _load_dataset(ns.dataset)
    tree = load_tree(ns.tree) if ns.tree else None
    model, _ = _load_model_for(ns, ds)
    rep = accuracy_report(model, ds, tree)
    loss = dataset_loss(model, ds, range(ds.codec.K))
    _emit(
        {
            "leaf_accuracy": rep.leaf_accuracy,
            "root_accuracy": rep.root_accuracy,
            "digit_accuracy": list(rep.digit_accuracy),
            "code_accuracy": rep.code_accuracy,
            "n_records": rep.n_records,
            "loss": loss,
        },
        ns.out,
    )
    return 0


def cmd_diagnose(ns: argparse.Namespace) -> int:
    cfg = resolve_config(ns.config, _flags(ns))
    ds = _load_dataset(ns.dataset)
    tree = load_tree(ns.tree)
    model, _ = _load_model_for(ns, ds)
    report = diagnose(
        model, ds, tree, max_pairs=cfg.max_pairs, n_bins=cfg.bins, seed=cfg.seed
    )
    if ns.out_dir:
        os.makedirs(ns.out_dir, exist_ok=True)
        _emit(report.as_dict(), os.path.join(ns.out_dir, "report.json"))
        write_entropy_tsv(
            os.path.join(ns.out_dir, "entropy.tsv"),
            report.digit_entropy,
            report.prefix_entropy,
        )
        write_box_counts_tsv(
            os.path.join(ns.out_dir, "box_counts.tsv"), report.box_count
        )
        write_reliability_tsv(
            os.path.join(ns.out_dir, "reliability.tsv"), report.calibration
        )
        if ds.n_records <= 200:
            write_distance_matrix_tsv(os.path.join(ns.out_dir, "distances.tsv"), ds)
    _emit(report.as_dict(), ns.out)
    return 0


def cmd_inspect(ns: argparse.Namespace) -> int:
    ds = _load_dataset(ns.dataset)
    if ns.prefix is None:
        depths, counts = np.unique(ds.depths, return_counts=True)
        _emit(
            {
                "records": ds.n_records,
                "p": ds.codec.p,
                "K": ds.codec.K,
                "depth_histogram": {str(d): c for d, c in zip(depths.tolist(), counts.tolist())},
            },
            ns.out,
        )
        return 0
    prefix = _parse_prefix(ns.prefix)
    if ns.tree:
        tree = load_tree(ns.tree)
        summary = describe_ball(ds, tree, prefix)
        _emit(
            {
                "depth": summary.depth,
                "member_count": summary.member_count,
                "members": list(summary.members[:20]),
                "subtree_root": summary.subtree_root,
            },
            ns.out,
        )
    else:
        members = ds.leaves_with_prefix(prefix)
        _emit(
            {
                "depth": len(prefix),
                "member_count": len(members),
                "members": list(members[:20]),
            },
            ns.out,
        )
    return 0


def cmd_export_viz(ns: argparse.Namespace) -> int:
    ds = _load_dataset(ns.dataset)
    tree = load_tree(ns.tree)
    doc = tree_to_nested(tree, ds)
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if ns.out:
        with open(ns.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(json.dumps({"written": ns.out, "leaves": ds.n_records}))
    else:
        print(text, end="")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hipan", description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="key=value settings file")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int)
        p.add_argument("--k-digits", dest="k_digits", type=int)

    p = sub.add_parser("ingest", help="encode a tab-separated hierarchy")
    p.add_argument("--tree", required=True)
    p.add_argument("--out", required=True)
    add_run_flags(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", help="generate a synthetic hierarchy")
    p.add_argument("--kind", choices=("complete", "random"), default="complete")
    p.add_argument("--branching", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--out-tree", required=True)
    p.add_argument("--out-dataset")
    add_run_flags(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="fit digit heads to a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--tree")
    p.add_argument("--checkpoint-dir")
    p.add_argument("--resume", help="checkpoint file to continue from")
    p.add_argument("--log", help="JSON-lines epoch log path (default stdout)")
    p.add_argument("--optimizer", choices=("gist", "adam"))
    p.add_argument("--plan", choices=("default", "uniform"))
    p.add_argument("--batch-size", dest="batch_size", type=int, help="records per Adam step")
    p.add_argument("--k-heads", dest="k_heads", type=int)
    p.add_argument("--tau", type=float)
    p.add_argument("--lr", type=float)
    p.add_argument("--warmup-lr", dest="warmup_lr", type=float)
    p.add_argument("--patience", type=int)
    add_run_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="reconstruction accuracy of a checkpoint")
    p.add_argument("--dataset", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--tree")
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("diagnose", help="full structural diagnostics report")
    p.add_argument("--dataset", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--tree", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--max-pairs", dest="max_pairs", type=int)
    p.add_argument("--bins", type=int)
    p.add_argument("--out", help="report JSON path (default stdout)")
    p.add_argument("--out-dir", help="also write report.json and plot TSVs here")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("inspect", help="describe a dataset or one code ball")
    p.add_argument("--dataset", required=True)
    p.add_argument("--prefix", help="hyphen-separated digits, e.g. 0-2-1")
    p.add_argument("--tree")
    p.add_argument("--out")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("export-viz", help="nested JSON of a hierarchy with leaf codes")
    p.add_argument("--dataset", required=True)
    p.add_argument("--tree", required=True)
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.set_defaults(func=cmd_export_viz)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1
    try:
        return ns.func(ns)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except NumericAbort as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (TreeParseError, DecodeError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
