"""Target-opinion pair features and triplet decoding.

A pair of spans is classified over four relation classes; the fourth
("no relation") acts as the rejection class, so decoding keeps exactly
the pairs whose argmax lands on a sentiment.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .encoder import BUCKET_UPPER, Span, bucket_indices

# Logit layout of the relation scorer. Argmax ties resolve in this order.
SENTIMENT_TAGS = ("POS", "NEG", "NEU")
RELATION_CLASSES = SENTIMENT_TAGS + ("INVALID",)
RELATION_INVALID = len(RELATION_CLASSES) - 1


def pair_distance_bucket(target: Span, opinion: Span) -> int:
    """Bucket of min(|b - c|, |a - d|) for target (a, b) and opinion (c, d).

    ``bisect_left`` is numpy's ``searchsorted`` rule without the array
    round trip, which costs more than ten times as much per scalar.
    """
    (a, b), (c, d) = target, opinion
    return bisect.bisect_left(BUCKET_UPPER, min(abs(b - c), abs(a - d)))


def pair_distance_buckets(targets: Sequence[Span], opinions: Sequence[Span]) -> np.ndarray:
    """Distance buckets of every target x opinion pair, target-major.

    Entry ``a * len(opinions) + b`` is ``pair_distance_bucket(targets[a],
    opinions[b])``.
    """
    t = np.asarray(targets, dtype=np.intp).reshape(-1, 2)
    o = np.asarray(opinions, dtype=np.intp).reshape(-1, 2)
    distance = np.minimum(np.abs(t[:, 1, None] - o[None, :, 0]),
                          np.abs(t[:, 0, None] - o[None, :, 1]))
    return bucket_indices(distance.ravel())


@dataclass(frozen=True)
class TripletPrediction:
    """A decoded (target, opinion, sentiment) with its relation probability."""

    target: Span
    opinion: Span
    sentiment: str  # one of SENTIMENT_TAGS
    probability: float


def decode_triplets(pairs: list[tuple[Span, Span]],
                    relation_probs: np.ndarray) -> list[TripletPrediction]:
    """Keep pairs whose argmax relation is a sentiment class.

    The (target, opinion) pairs must be distinct, as the model's pools make
    them. The output is ordered by (target, opinion) span positions, so it
    does not depend on the order in which pairs were scored.
    """
    if len(pairs) != relation_probs.shape[0]:
        raise ValueError(
            f"{len(pairs)} pairs but {relation_probs.shape[0]} probability rows"
        )
    labels = relation_probs.argmax(axis=1)  # first max wins ties, per RELATION_CLASSES order
    kept = np.flatnonzero(labels != RELATION_INVALID)
    predictions = [
        TripletPrediction(*pairs[p], SENTIMENT_TAGS[label], probability)
        for p, label, probability in zip(kept.tolist(), labels[kept].tolist(),
                                         relation_probs[kept, labels[kept]].tolist())
    ]
    return sorted(predictions, key=lambda pred: (pred.target, pred.opinion))
