#!/usr/bin/env python3
"""Full-scale benchmark runs: four datasets, five seeds, default settings.

Needs the released benchmark corpora (see README for the expected layout)
and, ideally, 300-d pretrained embeddings. Expect multiple hours on CPU;
this is the optional large reproduction, not part of the test suite.

Usage:
    python3 scripts/reproduce_full.py --data DATA_DIR \
        [--embeddings glove.300d.txt] [--out runs/full] \
        [--datasets rest14 lap14 rest15 rest16] [--epochs 10] \
        [--seeds 0 1 2 3 4]
"""

import argparse
import json
import logging
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from spantriplet.data import atomic_write_text, find_benchmark_split, load_corpus
from spantriplet.encoder import load_embedding_file
from spantriplet.model import ModelConfig
from spantriplet.training import TrainConfig, run_experiment

DATASETS = ("rest14", "lap14", "rest15", "rest16")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data", required=True, help="benchmark corpus directory")
    parser.add_argument("--embeddings", help="300-d embedding text file")
    parser.add_argument("--out", default="runs/full")
    parser.add_argument("--datasets", nargs="+", default=list(DATASETS),
                        choices=DATASETS)
    parser.add_argument("--epochs", type=int, default=10)
    parser.add_argument("--seeds", nargs="+", type=int, default=[0, 1, 2, 3, 4])
    args = parser.parse_args()
    logging.basicConfig(level=logging.INFO)  # shows the per-epoch progress lines

    pretrained = None
    if args.embeddings:
        pretrained, dim = load_embedding_file(args.embeddings)
        if dim != 300:
            raise SystemExit(f"expected 300-d embeddings, got {dim}-d")

    model_config = ModelConfig()  # reference settings
    train_config = TrainConfig(epochs=args.epochs, seeds=tuple(args.seeds))
    summary = {}
    for dataset in args.datasets:
        splits = []
        for split in ("train", "dev", "test"):
            path = find_benchmark_split([args.data], dataset, split)
            if path is None:
                raise FileNotFoundError(f"no {split} file for {dataset} under {args.data}")
            splits.append(load_corpus(path))
        train, dev, test = splits
        out_dir = os.path.join(args.out, dataset)
        os.makedirs(out_dir, exist_ok=True)
        print(f"== {dataset}: {len(train)} train / {len(dev)} dev / {len(test)} test")
        report = run_experiment(train, dev, test, model_config, train_config,
                                pretrained_embeddings=pretrained, out_dir=out_dir)
        atomic_write_text(os.path.join(out_dir, "report.json"),
                          json.dumps(report.as_dict(), indent=2) + "\n")
        print(report.render_text())
        summary[dataset] = {"precision": report.mean_precision,
                            "recall": report.mean_recall, "f1": report.mean_f1}

    print("\ndataset    mean_P   mean_R   mean_F1")
    for dataset, row in summary.items():
        print(f"{dataset:<10}{row['precision']:<9.4f}{row['recall']:<9.4f}"
              f"{row['f1']:.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
