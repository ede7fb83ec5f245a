"""Median ms per forward and per training step with two lanes on and off, in one process.

    python3 scripts/lanes_ab.py
    python3 scripts/lanes_ab.py --sentences 24 --steps 8 --rounds 6

A seeded model at reference dimensions runs rounds that alternate between
the lanes on (the library as shipped) and off (``LANE_MIN_MULADDS`` past
every BLAS call), and the side that goes first alternates too. In a round
each side runs one forward per 60-100-token sentence, then one
``train_epoch`` step per 5-40-token sentence on its own model and
optimizer, both built alike. The two sides must agree bit for bit: the
mention and relation probabilities of every forward, and every parameter
after every step; a mismatch exits 1. BLAS is pinned to one thread through
``set_blas_threads``, as the CLI pins it.
"""

import argparse
import math
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LONG = (60, 100)
SHORT = (5, 40)
SEED = 1801  # corpus seed; the model seed is SEED + 1, step r's dropout seed SEED + 2 + r


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sentences", type=int, default=24,
                        help="60-100-token sentences forwarded per side and round")
    parser.add_argument("--steps", type=int, default=8,
                        help="5-40-token training steps per side and round")
    parser.add_argument("--rounds", type=int, default=6)
    args = parser.parse_args(argv)
    if min(args.sentences, args.steps, args.rounds) < 1:
        parser.error("--sentences, --steps and --rounds must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.dirname(os.path.abspath(__file__))]
    import numpy as np

    from param_hash import chained_corpus
    from spantriplet import autodiff as ad
    from spantriplet.encoder import Vocabulary
    from spantriplet.model import ModelConfig, SpanModel
    from spantriplet.training import TrainConfig, make_optimizer, train_epoch

    library, threads = ad.set_blas_threads(1)
    rng = np.random.default_rng(SEED)
    long_sentences = chained_corpus(rng, args.sentences, *LONG)
    short_sentences = chained_corpus(rng, args.steps, *SHORT)
    vocab = Vocabulary.build(s.tokens for s in long_sentences + short_sentences)
    models = {side: SpanModel(ModelConfig(), vocab, seed=SEED + 1) for side in ("on", "off")}
    optimizers = {side: make_optimizer(model, TrainConfig()) for side, model in models.items()}
    minimum = {"on": ad.LANE_MIN_MULADDS, "off": math.inf}
    forward_ms = {"on": [], "off": []}
    step_ms = {"on": [], "off": []}

    for r in range(args.rounds):
        order = ("on", "off") if r % 2 == 0 else ("off", "on")
        outputs = {}
        for side in order:
            ad.LANE_MIN_MULADDS = minimum[side]
            outputs[side] = []
            for sentence in long_sentences:
                start = time.perf_counter()
                out = models[side].forward(sentence.tokens)
                forward_ms[side].append(1000.0 * (time.perf_counter() - start))
                outputs[side].append(out.mention_probs.tobytes() + out.relation_probs.tobytes())
            for step, sentence in enumerate(short_sentences):
                step_rng = np.random.default_rng(SEED + 2 + r * args.steps + step)
                start = time.perf_counter()
                train_epoch(models[side], [sentence], optimizers[side], step_rng)
                step_ms[side].append(1000.0 * (time.perf_counter() - start))
        same_params = all(a.data.tobytes() == b.data.tobytes() for a, b in
                          zip(models["on"].parameters(), models["off"].parameters()))
        if outputs["on"] != outputs["off"] or not same_params:
            print(f"round {r}: lanes on and off differ", file=sys.stderr)
            return 1
    ad.LANE_MIN_MULADDS = minimum["on"]

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    print(f"BLAS {library} at {threads} thread(s); {cpus} CPUs usable; "
          f"{args.rounds} rounds, outputs bitwise equal")
    print("| workload | lanes on | lanes off | off / on |")
    print("|---|---|---|---|")
    for name, times, count in ((f"forward, {LONG[0]}-{LONG[1]} tokens", forward_ms,
                                args.sentences),
                               (f"train step, {SHORT[0]}-{SHORT[1]} tokens", step_ms,
                                args.steps)):
        on, off = (statistics.median(times[side]) for side in ("on", "off"))
        print(f"| {name} ({count} per round) | {on:.1f} ms | {off:.1f} ms | {off / on:.2f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
