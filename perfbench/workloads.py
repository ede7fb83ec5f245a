"""Seeded input generators for the benchmark workloads.

Every input is a pure function of the workload seed. The program under
test only ever sees the generated sentences and models.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from spantriplet.data import GoldTriplet, Sentence, make_fixture
from spantriplet.encoder import Vocabulary
from spantriplet.model import ModelConfig, SpanModel

# Reference dimensions (ModelConfig defaults): 300-d embeddings, a BiLSTM of
# 300 per direction, scorers 150 wide, z = 0.5, dual channel, boundary spans.
REFERENCE_CONFIG = ModelConfig()

# The model seed is fixed; the workload seed only changes the sentences.
MODEL_SEED = 0

TRAIN_LENGTHS = (5, 40)     # train-ref sentence lengths, inclusive
LONG_LENGTHS = (60, 100)    # infer-long sentence lengths, inclusive

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def filler_words(count: int = 1980) -> list[str]:
    """Fixed pseudo-words that pad fixture sentences; not seed dependent."""
    onsets = "bdfgklmnprstvz"
    vowels = "aeiou"
    syllables = [c + v for c in onsets for v in vowels]
    words = ("".join(p) + "x" for p in itertools.product(syllables, repeat=2))
    return list(itertools.islice(words, count))


def benchmark_vocabulary() -> Vocabulary:
    """Fillers plus every fixture word: about 2k entries, the same for every seed."""
    fixture_tokens = [s.tokens for s in make_fixture(np.random.default_rng(0), 500)]
    return Vocabulary.build(fixture_tokens + [filler_words()])


def spread_lengths(rng: np.random.Generator, count: int, low: int, high: int) -> list[int]:
    """Lengths in [low, high] from a golden-ratio sequence with a seeded start.

    Any prefix of the sequence covers the range almost evenly, so a run that
    stops after an arbitrary number of sentences sees the same length mix
    for every seed.
    """
    start = float(rng.random())
    span = high - low + 1
    return [low + int(span * ((start + i * _GOLDEN) % 1.0)) for i in range(count)]


def padded_sentence(rng: np.random.Generator, sentence_id: int, length: int,
                    fillers: list[str]) -> Sentence:
    """Fixture sentences joined by filler runs and padded to exactly ``length`` tokens.

    Gold triplets of every fixture chunk are kept, shifted to their new
    position, so longer sentences carry more planted triplets.
    """
    tokens: list[str] = []
    triplets: list[GoldTriplet] = []

    def pad(count: int) -> None:
        tokens.extend(fillers[int(i)] for i in rng.integers(len(fillers), size=count))

    pad(int(rng.integers(0, 3)))
    misses = 0
    while misses < 3:
        chunk = make_fixture(rng, 5)[int(rng.integers(5))]
        if len(tokens) + len(chunk.tokens) > length:
            misses += 1
            continue
        offset = len(tokens)
        tokens.extend(chunk.tokens)
        for t in chunk.triplets:
            triplets.append(GoldTriplet((t.target[0] + offset, t.target[1] + offset),
                                        (t.opinion[0] + offset, t.opinion[1] + offset),
                                        t.sentiment))
        pad(min(int(rng.integers(0, 6)), length - len(tokens)))
    pad(length - len(tokens))
    return Sentence(sentence_id, tokens, triplets)


def make_corpus(seed: int, count: int, lengths: tuple[int, int]) -> list[Sentence]:
    rng = np.random.default_rng(seed)
    fillers = filler_words()
    return [padded_sentence(rng, i, n, fillers)
            for i, n in enumerate(spread_lengths(rng, count, *lengths))]


def reference_model(vocab: Vocabulary) -> SpanModel:
    return SpanModel(REFERENCE_CONFIG, vocab, seed=MODEL_SEED)


# ---------------------------------------------------------------------------
# grad-tiny: the shapes of acceptance criterion 1
# ---------------------------------------------------------------------------

SPAN_MODES = ("boundary", "max_pool", "mean_pool")
SHAPE_SEED = 11   # acceptance criterion 1 draws its instances from this seed


def tiny_instances(seed: int, count: int) -> list[tuple[SpanModel, Sentence]]:
    """Models with hidden <= 8 and sentences of 6 tokens, in criterion 1's range.

    The sizes come from a fixed generator, so every seed does the same
    amount of work per instance; the workload seed picks the words and
    every parameter value. Span modes cycle boundary / max_pool /
    mean_pool. Parameters are resampled so no ReLU pre-activation sits on
    its kink, where central differences are not a valid oracle.
    """
    shapes = np.random.default_rng(SHAPE_SEED)
    values = np.random.default_rng(seed)
    instances = []
    for trial in range(count):
        config = ModelConfig(
            embedding_dim=int(shapes.integers(3, 6)),
            lstm_hidden=int(shapes.integers(2, 9)),
            ffnn_hidden=int(shapes.integers(2, 6)),
            width_dim=2, distance_dim=3, lstm_dropout=0.0, ffnn_dropout=0.0,
            span_mode=SPAN_MODES[trial % 3],
        )
        # make_fixture shapes 1 and 2 have 6 tokens and one multi-word span:
        # equal lengths keep the cost of a loss evaluation down to its span mode.
        sentence = make_fixture(values, 5)[int(shapes.integers(1, 3))]
        model = SpanModel(config, Vocabulary.build([sentence.tokens]), seed=trial)
        for p in model.parameters():
            p.data = values.normal(0.0, 0.4, size=p.shape)
        instances.append((model, sentence))
    return instances
