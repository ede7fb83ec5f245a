"""Command-line entry point.

Subcommands: train, eval, predict, stats, prune-sweep. Options can come
from a JSON config file (--config) and individual flags; flags win. Runs
that produce output directories echo their full configuration there
before any work starts, and every file is written atomically.

Exit codes: 0 success, 1 usage or configuration problem, 2 data problem,
3 numerical failure during training.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from . import data as dataio
from . import evaluation as evalmod
from . import training
from .data import atomic_write_text
from .encoder import SPAN_MODES, load_embedding_file
from .errors import (CheckpointError, ConfigurationError, DataError,
                     NumericalError, UsageError)
from .model import ModelConfig, SpanModel
from .pruning import CHANNEL_MODES


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map usage errors to 1
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="spantriplet",
                     description="Span-level sentiment triplet extraction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--train", dest="train_path", help="training corpus")
        p.add_argument("--dev", dest="dev_path", help="development corpus")
        p.add_argument("--test", dest="test_path", help="evaluation corpus")
        p.add_argument("--embeddings", help="pretrained embedding text file")
        p.add_argument("--out", help="output directory (or file for predict)")
        p.add_argument("--seeds", "--seed", nargs="+", type=int, dest="seeds",
                       help="random seeds, one run per seed")
        p.add_argument("--span-mode", choices=SPAN_MODES)
        p.add_argument("--z", type=float, help="pruning threshold")
        p.add_argument("--channel-mode", choices=CHANNEL_MODES)
        p.add_argument("--max-span-width", type=int,
                       help="span width limit: spans satisfy end - start <= N")
        p.add_argument("--epochs", type=int)
        p.add_argument("--modes", nargs="+", choices=evalmod.EVAL_MODES,
                       help="evaluation modes to report")

    p_train = sub.add_parser("train", help="train models and report test metrics")
    add_common(p_train)

    p_eval = sub.add_parser("eval", help="score a checkpoint on a corpus")
    add_common(p_eval)
    p_eval.add_argument("--checkpoint", required=True)

    p_predict = sub.add_parser("predict", help="write predicted triplets for a corpus")
    add_common(p_predict)
    p_predict.add_argument("--checkpoint", required=True)

    p_stats = sub.add_parser("stats", help="corpus statistics table")
    p_stats.add_argument("corpora", nargs="+", help="corpus files")
    p_stats.add_argument("--out", help="also write machine-readable stats JSON here")

    p_sweep = sub.add_parser("prune-sweep",
                             help="train across pruning settings and tabulate")
    add_common(p_sweep)
    p_sweep.add_argument("--z-values", nargs="+", type=float,
                         help="thresholds to sweep")
    p_sweep.add_argument("--sweep-modes", nargs="+",
                         choices=training.SWEEP_MODES, default=list(training.SWEEP_MODES))
    return parser


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------

_PATH_KEYS = ("train_path", "dev_path", "test_path", "embeddings", "out")
_FLAG_TO_MODEL = {"span_mode": "span_mode", "z": "z", "channel_mode": "channel_mode",
                  "max_span_width": "max_span_gap"}


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    return raw


def resolve_config(args) -> dict:
    """Merge defaults, config file, and flags into one echoable run config."""
    file_cfg = _load_config_file(getattr(args, "config", None))
    model_cfg = dict(file_cfg.get("model", {}))
    train_cfg = dict(file_cfg.get("training", {}))
    paths = dict(file_cfg.get("paths", {}))

    for key in _PATH_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            paths[key] = value
    for flag, field in _FLAG_TO_MODEL.items():
        value = getattr(args, flag, None)
        if value is not None:
            model_cfg[field] = value
    if getattr(args, "seeds", None) is not None:
        train_cfg["seeds"] = list(args.seeds)
    if getattr(args, "epochs", None) is not None:
        train_cfg["epochs"] = args.epochs

    model = ModelConfig.from_dict(model_cfg)
    try:
        train_config = _train_config(train_cfg)
        train_config.validate()
    except DataError as exc:
        raise UsageError(str(exc))
    modes = getattr(args, "modes", None) or file_cfg.get("modes") or list(evalmod.EVAL_MODES)
    return {
        "command": args.command,
        "paths": paths,
        "model": model.as_dict(),
        "training": train_config.as_dict(),
        "modes": list(modes),
        "z_values": (getattr(args, "z_values", None)
                     or file_cfg.get("z_values") or []),
        "sweep_modes": list(getattr(args, "sweep_modes", None)
                            or file_cfg.get("sweep_modes", training.SWEEP_MODES)),
    }


def _train_config(raw: dict) -> training.TrainConfig:
    """The TrainConfig of a config file's or an echoed run's "training" section."""
    unknown = set(raw) - {"epochs", "seeds", "lr", "weight_decay"}
    if unknown:
        raise UsageError(f"unknown training config fields: {sorted(unknown)}")
    return training.TrainConfig(**{k: tuple(v) if k == "seeds" else v
                                   for k, v in raw.items()})


def _require(config: dict, key: str, flag: str) -> str:
    value = config["paths"].get(key)
    if not value:
        raise UsageError(f"missing required path: {flag}")
    return value


def _load_split(path: str):
    if not os.path.exists(path):
        raise DataError(f"corpus file not found: {path}")
    return dataio.load_corpus(path)


def _load_embeddings_if_any(config: dict):
    path = config["paths"].get("embeddings")
    if not path:
        return None
    if not os.path.exists(path):
        raise DataError(f"embedding file not found: {path}")
    vectors, dim = load_embedding_file(path)
    if dim != config["model"]["embedding_dim"]:
        raise ConfigurationError(
            f"embedding file width {dim} != configured embedding_dim "
            f"{config['model']['embedding_dim']}")
    return vectors


def _echo_config(config: dict, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    atomic_write_text(os.path.join(out_dir, "config.json"),
                      json.dumps(config, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    config = resolve_config(args)
    train_path = _require(config, "train_path", "--train")
    dev_path = config["paths"].get("dev_path") or train_path
    test_path = config["paths"].get("test_path") or dev_path
    config["paths"].setdefault("dev_path", dev_path)
    config["paths"].setdefault("test_path", test_path)
    out_dir = _require(config, "out", "--out")
    _echo_config(config, out_dir)

    train = _load_split(train_path)
    dev = _load_split(dev_path)
    test = _load_split(test_path)
    report = training.run_experiment(
        train, dev, test,
        ModelConfig.from_dict(config["model"]), _train_config(config["training"]),
        pretrained_embeddings=_load_embeddings_if_any(config), out_dir=out_dir)
    atomic_write_text(os.path.join(out_dir, "report.json"),
                      json.dumps(report.as_dict(), indent=2) + "\n")
    atomic_write_text(os.path.join(out_dir, "report.txt"),
                      report.render_text() + "\n")
    print(report.render_text())
    return 0


def cmd_eval(args) -> int:
    config = resolve_config(args)
    corpus_path = _require(config, "test_path", "--test")
    model = SpanModel.load(args.checkpoint)
    sentences = _load_split(corpus_path)
    report = evalmod.evaluate_model(model, sentences, config["modes"])
    text = ["triplet extraction (filter applied to gold and predictions):",
            evalmod.render_prf_table(report["triplet"]),
            "", "triplet extraction (filter applied to gold only):",
            evalmod.render_prf_table(report["triplet_gold_side_filter"])]
    if "mention_direct" in report:
        text += ["", "term extraction, direct span typing:",
                 evalmod.render_prf_table(report["mention_direct"])]
    text += ["", "term extraction, derived from predicted triplets:",
             evalmod.render_prf_table(report["mention_from_triplets"])]
    rendered = "\n".join(text)
    print(rendered)
    if config["paths"].get("out"):
        out_dir = config["paths"]["out"]
        os.makedirs(out_dir, exist_ok=True)
        atomic_write_text(os.path.join(out_dir, "eval.json"),
                          json.dumps(report, indent=2) + "\n")
        atomic_write_text(os.path.join(out_dir, "eval.txt"), rendered + "\n")
    return 0


def cmd_predict(args) -> int:
    config = resolve_config(args)
    corpus_path = _require(config, "test_path", "--test")
    out_path = _require(config, "out", "--out")
    model = SpanModel.load(args.checkpoint)
    sentences = _load_split(corpus_path)
    predicted = []
    for sentence in sentences:
        triplets = [dataio.GoldTriplet(p.target, p.opinion, p.sentiment)
                    for p in model.predict(sentence.tokens)]
        predicted.append(dataio.Sentence(sentence.id, sentence.tokens, triplets))
    dataio.write_corpus(out_path, predicted)
    print(f"wrote {len(predicted)} sentences to {out_path}")
    return 0


def cmd_stats(args) -> int:
    stats = {}
    for path in args.corpora:
        if not os.path.exists(path):
            raise DataError(f"corpus file not found: {path}")
        stats[os.path.basename(path)] = dataio.dataset_stats(dataio.load_corpus(path))
    print(dataio.format_stats_table(stats))
    if args.out:
        atomic_write_text(args.out, json.dumps(
            {name: s.as_dict() for name, s in stats.items()}, indent=2) + "\n")
    return 0


def cmd_prune_sweep(args) -> int:
    config = resolve_config(args)
    if not config["z_values"]:
        raise UsageError("prune-sweep needs --z-values")
    train_path = _require(config, "train_path", "--train")
    dev_path = config["paths"].get("dev_path") or train_path
    config["paths"].setdefault("dev_path", dev_path)
    out_dir = config["paths"].get("out")
    if out_dir:
        _echo_config(config, out_dir)
    train = _load_split(train_path)
    dev = _load_split(dev_path)
    train_config = _train_config(config["training"])
    rows = training.prune_sweep(
        train, dev,
        ModelConfig.from_dict(config["model"]), train_config,
        z_values=config["z_values"], modes=config["sweep_modes"], seed=train_config.seeds[0],
        diagnostics_path=(os.path.join(out_dir, "pools.jsonl") if out_dir else None))
    table = training.render_sweep_table(rows)
    print(table)
    if out_dir:
        atomic_write_text(os.path.join(out_dir, "sweep.json"),
                          json.dumps([r.as_dict() for r in rows], indent=2) + "\n")
        atomic_write_text(os.path.join(out_dir, "sweep.txt"), table + "\n")
    return 0


_COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "predict": cmd_predict,
    "stats": cmd_stats,
    "prune-sweep": cmd_prune_sweep,
}


def main(argv: list[str] | None = None) -> int:
    # Per-epoch progress goes to stderr; stdout keeps only the results.
    logging.basicConfig(level=logging.INFO)
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except (UsageError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, CheckpointError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.snapshot:
            print(json.dumps(exc.snapshot, indent=2, default=str), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
