"""Time and peak memory of ``SpanModel.predict`` on one long sentence, per length.

    python3 scripts/predict_memory.py
    python3 scripts/predict_memory.py --lengths 40 100 200 400

Each length runs in a fresh Python process, so one length's peak cannot
hide the next one's. The process builds an untrained model at reference
dimensions, predicts one sentence of n tokens twice, and reports the second
call's wall time, the process's peak RSS once the model is built, and its
peak RSS after both calls (``ru_maxrss``; Linux reports it in KiB). An
untrained dual-channel model keeps k = ceil(z * n) spans in each pool, so
the relation scorer sees k * k pairs. Each process pins BLAS to one thread
through ``set_blas_threads``, as the CLI does.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
VOCABULARY = 50  # distinct token types in the synthetic sentence


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--lengths", type=int, nargs="+", default=[40, 100, 200],
                        help="sentence lengths in tokens, one process each")
    parser.add_argument("--measure", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if min(args.lengths) < 1:
        parser.error("--lengths must be >= 1")
    return args


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(n: int) -> dict:
    """Build, predict and measure one length in this process."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from spantriplet.autodiff import set_blas_threads
    from spantriplet.encoder import Vocabulary, enumerate_spans
    from spantriplet.model import ModelConfig, SpanModel
    from spantriplet.pruning import pool_size

    _, threads = set_blas_threads(1)
    tokens = [f"w{i % VOCABULARY}" for i in range(n)]
    config = ModelConfig()
    model = SpanModel(config, Vocabulary.build([tokens]), seed=0)
    k = pool_size(n, config.z, len(enumerate_spans(n, config.max_span_gap)))
    built = peak_rss_mib()
    model.predict(tokens)
    start = time.perf_counter()
    model.predict(tokens)
    seconds = time.perf_counter() - start
    return {"n": n, "pairs": k * k, "predict_ms": 1000.0 * seconds,
            "built_mib": built, "peak_mib": peak_rss_mib(), "blas_threads": threads}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.measure is not None:
        print(json.dumps(measure(args.measure)))
        return 0
    threads = set()
    print("| n | pairs | predict | peak RSS once built | peak RSS |")
    print("|---|---|---|---|---|")
    for n in args.lengths:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--measure", str(n)],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr, end="")
            return proc.returncode
        row = json.loads(proc.stdout.splitlines()[-1])
        print(f"| {row['n']} | {row['pairs']:,} | {row['predict_ms']:.1f} ms "
              f"| {row['built_mib']:.0f} MiB | {row['peak_mib']:.0f} MiB |", flush=True)
        threads.add(row["blas_threads"])
    print("BLAS threads per process:", *sorted(threads, key=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
