#!/usr/bin/env python3
"""Span enumeration, feature buckets, and the dual-channel candidate pools."""

import numpy as np

from spantriplet.data import make_fixture
from spantriplet.encoder import Vocabulary, bucket_indices, enumerate_spans
from spantriplet.model import ModelConfig, SpanModel
from spantriplet.pruning import MENTION_OPINION, MENTION_TARGET

# --- enumeration -------------------------------------------------------------

sentence = "the battery life is very good .".split()
n = len(sentence)
spans = enumerate_spans(n, max_gap=2)  # spans of up to 3 tokens
print(f"{len(spans)} spans of width <= 3 over {n} tokens:")
print("  " + "  ".join("_".join(sentence[i:j + 1]) for i, j in spans))

# With the reference gap limit of 8 the count follows
# n*W - W*(W-1)/2 with W = min(n, 9):
full = enumerate_spans(n, max_gap=8)
w = min(n, 9)
print(f"\ngap<=8 enumerates {len(full)} spans; closed form gives "
      f"{n * w - w * (w - 1) // 2}")

# --- width and distance buckets ----------------------------------------------

values = [*range(10), 15, 31, 64, 200]
print("\nbucket(v) for v = 0..9, 15, 31, 64, 200:")
for value, bucket in zip(values, bucket_indices(values)):
    print(f"  {value:>3} -> bucket {bucket}")

# --- candidate pools ----------------------------------------------------------

corpus = make_fixture(np.random.default_rng(3), 12)
vocab = Vocabulary.build(s.tokens for s in corpus)
config = ModelConfig(embedding_dim=12, lstm_hidden=8, ffnn_hidden=12,
                     width_dim=4, distance_dim=4,
                     lstm_dropout=0.0, ffnn_dropout=0.0)
model = SpanModel(config, vocab, seed=0)

example = corpus[3]
output = model.forward(example.tokens)
print(f"\nsentence: {' '.join(example.tokens)}")
print(f"{len(output.spans)} spans scored; z={config.z} keeps "
      f"k={len(output.target_pool)} per pool, giving {len(output.pairs)} pairs (k^2)")


def show(pool, score):
    for c in pool:
        text = "_".join(example.tokens[c.span[0]:c.span[1] + 1])
        print(f"    {text:<22} {score(c):.3f}")


print("  target pool (by target probability):")
show(output.target_pool, lambda c: c.probs[MENTION_TARGET])
print("  opinion pool (by opinion probability):")
show(output.opinion_pool, lambda c: c.probs[MENTION_OPINION])
print("\n(untrained scores are near-uniform; demo 03 trains them into shape)")
