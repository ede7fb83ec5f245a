"""SHA-256 of a model's parameters and AdamW moments after seeded training steps.

Two checkouts that should train bit for bit alike print the same hash:

    python3 scripts/param_hash.py --span-mode boundary --channel-mode dual --dims reference
    python3 scripts/param_hash.py --span-mode max_pool --channel-mode single --dims small

BLAS is pinned to one thread through ``set_blas_threads``, as the CLI pins
it, because at reference dimensions the bits of a matrix product depend on
the thread count. The corpus chains synthetic fixture sentences into
sentences of 5-40 tokens, and one ``train_epoch`` over ``--steps`` of them
makes one update each.
"""

import argparse
import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LENGTHS = (5, 40)
SMALL_DIMS = dict(embedding_dim=12, lstm_hidden=8, ffnn_hidden=10, width_dim=4, distance_dim=6)
SEED = 710  # corpus seed; the model seed is SEED + 1, the shuffle seed SEED + 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--span-mode", default="boundary",
                        choices=("boundary", "max_pool", "mean_pool"))
    parser.add_argument("--channel-mode", default="dual", choices=("dual", "single"))
    parser.add_argument("--dims", default="reference", choices=("reference", "small"))
    parser.add_argument("--steps", type=int, default=40)
    parser.add_argument("--weight-decay", type=float, default=0.01)
    args = parser.parse_args(argv)
    if args.steps < 1:
        parser.error("--steps must be >= 1")
    return args


def chained_corpus(rng, count, low, high):
    """``count`` sentences of ``low``..``high`` tokens, each fixture sentences end to end."""
    from spantriplet.data import GoldTriplet, Sentence, make_fixture

    sentences = []
    for sid in range(count):
        length = int(rng.integers(low, high + 1))
        tokens, triplets = [], []
        while len(tokens) < length:
            chunk = make_fixture(rng, 5)[int(rng.integers(5))]
            offset = len(tokens)
            tokens.extend(chunk.tokens)
            triplets.extend(GoldTriplet((t.target[0] + offset, t.target[1] + offset),
                                        (t.opinion[0] + offset, t.opinion[1] + offset),
                                        t.sentiment) for t in chunk.triplets)
        sentences.append(Sentence(sid, tokens, triplets))
    return sentences


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np

    from spantriplet.autodiff import set_blas_threads
    from spantriplet.encoder import Vocabulary
    from spantriplet.model import ModelConfig, SpanModel
    from spantriplet.training import TrainConfig, make_optimizer, train_epoch

    library, threads = set_blas_threads(1)
    sentences = chained_corpus(np.random.default_rng(SEED), args.steps, *LENGTHS)
    dims = SMALL_DIMS if args.dims == "small" else {}
    config = ModelConfig(span_mode=args.span_mode, channel_mode=args.channel_mode, **dims)
    model = SpanModel(config, Vocabulary.build(s.tokens for s in sentences), seed=SEED + 1)
    optimizer = make_optimizer(model, TrainConfig(weight_decay=args.weight_decay))
    train_epoch(model, sentences, optimizer, np.random.default_rng(SEED + 2))

    digest = hashlib.sha256()
    for arrays in ([p.data for p in optimizer.params], optimizer.first_moment,
                   optimizer.second_moment):
        for array in arrays:
            digest.update(np.ascontiguousarray(array).tobytes())
    print(f"BLAS {library} at {threads} thread(s)")
    print(f"{args.span_mode}/{args.channel_mode} {args.dims} dims, {args.steps} steps, "
          f"weight decay {args.weight_decay}, seed {SEED}")
    print(f"sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
