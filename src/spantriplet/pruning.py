"""Mention typing over enumerated spans and top-k candidate pruning.

Dual-channel pruning keeps two pools of size k = ceil(n * z): one ranked
by the target probability, one by the opinion probability. The
single-channel baseline ranks one shared pool by a 2-class validity
score. Selection is a hard operation on detached probabilities, so
relation-loss gradients never reach the mention scorer.

``ModelConfig`` checks ``z`` and picks the prune function from the same
``channel_mode`` that sizes the scorer's classes, and ``enumerate_spans``
rejects an empty sentence, so the functions here take those as given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .encoder import Span

# Class orders fix the logit layout of the mention scorer.
MENTION_CLASSES = ("target", "opinion", "invalid")
SINGLE_CHANNEL_CLASSES = ("valid", "invalid")

MENTION_TARGET, MENTION_OPINION, MENTION_INVALID = 0, 1, 2
SINGLE_VALID, SINGLE_INVALID = 0, 1

CHANNEL_MODES = ("dual", "single")


@dataclass(frozen=True)
class SpanCandidate:
    """An enumerated span with its position in the enumeration and mention probabilities."""

    span: Span
    index: int
    probs: tuple[float, ...]


def pool_size(n: int, z: float, n_candidates: int) -> int:
    """k = min(ceil(n * z), number of candidates); ceil keeps k >= 1."""
    return min(math.ceil(n * z), n_candidates)


def _top_k(candidates: list[SpanCandidate], key_index: int, k: int) -> list[SpanCandidate]:
    # Score descending, ties broken by span position ascending.
    ranked = sorted(candidates, key=lambda c: (-c.probs[key_index], c.span))
    return ranked[:k]


def prune_dual_channel(candidates: list[SpanCandidate], n: int,
                       z: float) -> tuple[list[SpanCandidate], list[SpanCandidate]]:
    """Top-k pools by target and by opinion probability (pools may overlap)."""
    k = pool_size(n, z, len(candidates))
    return _top_k(candidates, MENTION_TARGET, k), _top_k(candidates, MENTION_OPINION, k)


def prune_single_channel(candidates: list[SpanCandidate], n: int,
                         z: float) -> list[SpanCandidate]:
    """One shared pool ranked by the validity probability of a 2-class scorer."""
    k = pool_size(n, z, len(candidates))
    return _top_k(candidates, SINGLE_VALID, k)
