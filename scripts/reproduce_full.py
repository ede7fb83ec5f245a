#!/usr/bin/env python3
"""Full-scale benchmark runs: four datasets, five seeds, default settings.

Runs ``spantriplet train`` once per dataset into OUT/<dataset>, so each run
pins BLAS, echoes its config.json and exits 1/2/3 as the CLI does, then
tabulates each report.json's mean scores. Every split file is found before
the first run. Needs the released corpora, one directory per dataset spelled
rest14, 14rest or 14res (see README), and ideally 300-d embeddings, which
each run parses anew. Expect hours per dataset on CPU.

Usage:
    python3 scripts/reproduce_full.py --data DATA_DIR \
        [--embeddings glove.300d.txt] [--out runs/full] \
        [--datasets rest14 lap14 rest15 rest16] [--epochs 10] \
        [--seeds 0 1 2 3 4]
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from spantriplet import cli
from spantriplet.data import find_benchmark_split
from spantriplet.errors import DataError

DATASETS = ("rest14", "lap14", "rest15", "rest16")
SPLITS = ("train", "dev", "test")


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

    try:
        paths = {(dataset, split): find_benchmark_split([args.data], dataset, split)
                 for dataset in args.datasets for split in SPLITS}
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    missing = [f"{split} file for {dataset}" for (dataset, split), path in paths.items()
               if path is None]
    if missing:
        print(f"error: no {', '.join(missing)} under {args.data}", file=sys.stderr)
        return 2

    for dataset in args.datasets:
        print(f"== {dataset}", flush=True)
        flags = [arg for split in SPLITS for arg in (f"--{split}", paths[dataset, split])]
        flags += ["--out", os.path.join(args.out, dataset), "--epochs", str(args.epochs),
                  "--seeds", *map(str, args.seeds)]
        if args.embeddings:
            flags += ["--embeddings", args.embeddings]
        code = cli.main(["train", *flags])
        if code:
            return code

    print("\ndataset    mean_P   mean_R   mean_F1")
    for dataset in args.datasets:
        with open(os.path.join(args.out, dataset, "report.json"), encoding="utf-8") as handle:
            mean = json.load(handle)["mean"]
        print(f"{dataset:<10}{mean['precision']:<9.4f}{mean['recall']:<9.4f}"
              f"{mean['f1']:.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
