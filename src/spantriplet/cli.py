"""Command-line entry point.

Subcommands: train, eval, predict, stats, prune-sweep. Each accepts only
the flags it reads. train and prune-sweep also read a JSON config file
(--config) whose keys must all be ones the command reads; flags win.
Both read every input, then echo the configuration they run into their
output directory, and every file is written atomically. eval and predict
take the model and its configuration from the checkpoint; eval, too, reads
its inputs before it makes its output directory. Every command pins
numpy's BLAS to one thread first, so a run replays bit for bit. Only
``data`` opens, writes or makes a file.

Exit codes: 0 success, 1 usage or configuration problem, 2 data problem,
3 numerical failure during training.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import asdict

from . import data as dataio
from . import evaluation as evalmod
from . import training
from .autodiff import set_blas_threads
from .encoder import SPAN_MODES
from .errors import ConfigurationError, DataError, NumericalError
from .model import ModelConfig, SpanModel, check_distinct, config_from_dict
from .pruning import CHANNEL_MODES


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map usage errors to 1
        raise ConfigurationError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="spantriplet",
                     description="Span-level sentiment triplet extraction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_training_flags(p):
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--train", dest="train_path", help="training corpus")
        p.add_argument("--dev", dest="dev_path",
                       help="development corpus (default: the training corpus)")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seeds", "--seed", nargs="+", type=int,
                       help="random seeds: train runs once per seed, prune-sweep "
                       "takes one (default 0)")
        p.add_argument("--span-mode", choices=SPAN_MODES)
        p.add_argument("--max-span-width", type=int,
                       help="span width limit: spans satisfy end - start <= N")
        p.add_argument("--epochs", type=int)

    p_train = sub.add_parser("train", help="train models and report test metrics")
    add_training_flags(p_train)
    p_train.add_argument("--test", dest="test_path",
                         help="test corpus (default: the development corpus)")
    p_train.add_argument("--embeddings", help="pretrained embedding text file")
    p_train.add_argument("--z", type=float, help="pruning threshold")
    p_train.add_argument("--channel-mode", choices=CHANNEL_MODES)

    p_eval = sub.add_parser("eval", help="score a checkpoint on a corpus")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--test", required=True, help="corpus to score")
    p_eval.add_argument("--out", help="also write eval.json and eval.txt to this directory")
    p_eval.add_argument("--modes", nargs="+", choices=evalmod.EVAL_MODES,
                        default=list(evalmod.EVAL_MODES), help="evaluation modes to report")

    p_predict = sub.add_parser("predict", help="write predicted triplets for a corpus")
    p_predict.add_argument("--checkpoint", required=True)
    p_predict.add_argument("--test", required=True, help="corpus to predict")
    p_predict.add_argument("--out", required=True, help="prediction file")

    p_stats = sub.add_parser("stats", help="corpus statistics table")
    p_stats.add_argument("corpora", nargs="+", help="corpus files")
    p_stats.add_argument("--out", help="also write machine-readable stats JSON here")

    p_sweep = sub.add_parser("prune-sweep",
                             help="train one seed across pruning settings and tabulate")
    add_training_flags(p_sweep)
    p_sweep.add_argument("--z-values", nargs="+", type=float,
                         help="thresholds to sweep")
    p_sweep.add_argument("--sweep-modes", nargs="+", choices=training.SWEEP_MODES,
                         help=f"default: {' '.join(training.SWEEP_MODES)}")
    return parser


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------

# The config-file sections each training command reads. "command" is
# accepted too, so that an echoed config.json is a valid --config.
_SECTIONS = {"train": ("paths", "model", "training"),
             "prune-sweep": ("paths", "model", "training", "z_values", "sweep_modes")}
# Each training flag's dest -> the config section and key it sets. A command
# reads the "paths" keys whose flag its parser defines, in this order.
_FLAGS = {"train_path": ("paths", "train_path"), "dev_path": ("paths", "dev_path"),
          "test_path": ("paths", "test_path"), "embeddings": ("paths", "embeddings"),
          "out": ("paths", "out"), "span_mode": ("model", "span_mode"),
          "z": ("model", "z"), "channel_mode": ("model", "channel_mode"),
          "max_span_width": ("model", "max_span_gap"), "seeds": ("training", "seeds"),
          "epochs": ("training", "epochs")}
# The paths each command cannot run without, and the flag that gives each.
_REQUIRED = {"train": {"train_path": "--train", "out": "--out"},
             "prune-sweep": {"train_path": "--train"}}
# The model fields prune-sweep sets itself, per (z, mode) setting.
_SWEPT_FIELDS = ("z", "channel_mode")


def _reject_unread(keys, read: tuple[str, ...], where: str, command: str) -> None:
    unread = sorted(set(keys) - set(read))
    if unread:
        raise ConfigurationError(
            f"{command} does not read {where} {unread}; it reads {list(read)}")


def resolve_config(args) -> tuple[dict, ModelConfig, training.TrainConfig]:
    """Merge defaults, config file, and flags for train or prune-sweep.

    Returns the run's echo, which holds only what the command reads, and
    the model and training configs it records. The echo's paths hold every
    input path the command reads: dev defaults to train, test to dev.
    """
    command = args.command
    flags = {dest: target for dest, target in _FLAGS.items() if dest in vars(args)}
    file_cfg = dataio.load_config_file(args.config)
    _reject_unread(file_cfg, ("command",) + _SECTIONS[command], "config keys", command)
    sections = {key: file_cfg.get(key, {}) for key in ("paths", "model", "training")}
    not_objects = [key for key, value in sections.items() if not isinstance(value, dict)]
    if not_objects:
        raise ConfigurationError(f"config sections {not_objects} must be JSON objects")
    sections = {key: dict(value) for key, value in sections.items()}
    paths, model_cfg, train_cfg = sections.values()
    path_keys = tuple(key for section, key in flags.values() if section == "paths")
    _reject_unread(paths, path_keys, "paths keys", command)
    not_strings = sorted(key for key, value in paths.items() if not isinstance(value, str))
    if not_strings:
        raise ConfigurationError(f"paths {not_strings} must be strings")
    if command == "prune-sweep":
        swept = sorted(set(model_cfg) & set(_SWEPT_FIELDS))
        if swept:
            raise ConfigurationError(f"prune-sweep sets model {swept} from --z-values and "
                                     "--sweep-modes; remove them from the config file")
        train_cfg.setdefault("seeds", [0])

    for dest, (section, key) in flags.items():
        value = getattr(args, dest)
        if value is not None:
            sections[section][key] = value

    model = config_from_dict(ModelConfig, model_cfg)
    train_config = config_from_dict(training.TrainConfig, train_cfg)
    echo = {"command": command, "paths": paths, "model": asdict(model),
            "training": asdict(train_config)}
    if command == "prune-sweep":
        for field in _SWEPT_FIELDS:
            del echo["model"][field]
        for key, default in (("z_values", []), ("sweep_modes", list(training.SWEEP_MODES))):
            flag = getattr(args, key)
            echo[key] = flag if flag is not None else file_cfg.get(key, default)
        training.sweep_settings(model, train_config, echo["z_values"], echo["sweep_modes"])

    for key, flag in _REQUIRED[command].items():
        if not paths.get(key):
            raise ConfigurationError(f"missing required path: {flag}")
    # An optional out is made later and, as eval's --out, exits 2 if empty.
    empty = sorted(key for key, value in paths.items() if value == "" and key != "out")
    if empty:
        raise ConfigurationError(f"paths {empty} must not be empty")
    paths.setdefault("dev_path", paths["train_path"])
    if "test_path" in path_keys:
        paths.setdefault("test_path", paths["dev_path"])
    return echo, model, train_config


def _load_embeddings_if_any(path: str | None, model: ModelConfig):
    if path is None:
        return None
    vectors, dim = dataio.load_embedding_file(path)
    if dim != model.embedding_dim:
        raise ConfigurationError(
            f"embedding file width {dim} != configured embedding_dim {model.embedding_dim}")
    return vectors


def _echo_config(config: dict, out_dir: str) -> None:
    dataio.make_out_dir(out_dir)
    dataio.atomic_write_text(os.path.join(out_dir, "config.json"),
                             json.dumps(config, indent=2) + "\n")


def _publish(out_dir: str | None, name: str, data, text: str) -> None:
    """Print ``text``; with an ``out_dir``, also write <name>.json and <name>.txt there."""
    print(text)
    if out_dir is not None:
        dataio.atomic_write_text(os.path.join(out_dir, f"{name}.json"),
                                 json.dumps(data, indent=2) + "\n")
        dataio.atomic_write_text(os.path.join(out_dir, f"{name}.txt"), text + "\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    config, model_config, train_config = resolve_config(args)
    paths = config["paths"]
    train, dev, test = (dataio.load_corpus(paths[key])
                        for key in ("train_path", "dev_path", "test_path"))
    embeddings = _load_embeddings_if_any(paths.get("embeddings"), model_config)
    _echo_config(config, paths["out"])
    report = training.run_experiment(train, dev, test, model_config, train_config,
                                     pretrained_embeddings=embeddings, out_dir=paths["out"])
    _publish(paths["out"], "report", report.as_dict(), report.render_text())
    return 0


def cmd_eval(args) -> int:
    if args.out is not None:
        dataio.check_out_dir(args.out)
    model = SpanModel.load(args.checkpoint)
    sentences = dataio.load_corpus(args.test)
    if args.out is not None:
        dataio.make_out_dir(args.out)  # after the inputs, so a bad one leaves no directory
    report = evalmod.evaluate_model(model, sentences, args.modes)
    text = ["triplet extraction (filter applied to gold and predictions):",
            evalmod.render_prf_table(report["triplet"]),
            "", "triplet extraction (filter applied to gold only):",
            evalmod.render_prf_table(report["triplet_gold_side_filter"])]
    if "mention_direct" in report:
        text += ["", "term extraction, direct span typing:",
                 evalmod.render_prf_table(report["mention_direct"])]
    text += ["", "term extraction, derived from predicted triplets:",
             evalmod.render_prf_table(report["mention_from_triplets"])]
    _publish(args.out, "eval", report, "\n".join(text))
    return 0


def cmd_predict(args) -> int:
    dataio.output_directory(args.out)  # a missing directory fails before any loading
    model = SpanModel.load(args.checkpoint)
    sentences = dataio.load_corpus(args.test)
    predictions = evalmod.corpus_pass(model, sentences).predictions
    predicted = [dataio.Sentence(s.id, s.tokens,
                                 [dataio.GoldTriplet(p.target, p.opinion, p.sentiment)
                                  for p in predictions[s.id]])
                 for s in sentences]
    dataio.write_corpus(args.out, predicted)
    print(f"wrote {len(predicted)} sentences to {args.out}")
    return 0


def cmd_stats(args) -> int:
    check_distinct("stats: corpora", args.corpora)
    if args.out is not None:
        dataio.output_directory(args.out)  # a missing directory fails before any output
    # A row is labelled by its file name unless another corpus shares it.
    names = [os.path.basename(path) for path in args.corpora]
    stats = {}
    for path, name in zip(args.corpora, names):
        label = name if names.count(name) == 1 else path
        stats[label] = dataio.dataset_stats(dataio.load_corpus(path))
    print(dataio.format_stats_table(stats))
    if args.out is not None:
        dataio.atomic_write_text(args.out, json.dumps(
            {name: asdict(s) for name, s in stats.items()}, indent=2) + "\n")
    return 0


def cmd_prune_sweep(args) -> int:
    config, model_config, train_config = resolve_config(args)
    paths = config["paths"]
    out_dir = paths.get("out")
    train, dev = (dataio.load_corpus(paths[key]) for key in ("train_path", "dev_path"))
    if out_dir is not None:
        _echo_config(config, out_dir)
    rows = training.prune_sweep(
        train, dev, model_config, train_config,
        z_values=config["z_values"], modes=config["sweep_modes"],
        diagnostics_path=(None if out_dir is None else os.path.join(out_dir, "pools.jsonl")))
    _publish(out_dir, "sweep", [asdict(r) for r in rows], training.render_sweep_table(rows))
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
    # One BLAS thread: products then have the same bits on every run, and the
    # second core goes to the ops that split their work over two lanes.
    set_blas_threads(1)
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.snapshot:
            print(json.dumps(exc.snapshot, indent=2, default=str), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
