"""Outside-in stage timing: ``SpanModel.forward`` recomposed from public calls.

The traced run cannot clock the library from inside, so it rebuilds the
forward pass from the same module functions ``SpanModel.forward`` calls,
in the same order (dropout draws included), and cuts the graph at every
stage boundary with a fresh leaf tensor. Each stage's forward is timed on
its own, and each stage's backward is timed by seeding ``Tensor.backward``
with the gradient that arrived at the next stage's leaf.
``tests/test_stages.py`` pins this composition to ``SpanModel.forward``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from spantriplet import autodiff as ad
from spantriplet import encoder as enc
from spantriplet import pruning
from spantriplet.autodiff import Tensor
from spantriplet.data import Sentence
from spantriplet.model import SentenceOutput, SpanModel
from spantriplet.pruning import SpanCandidate
from spantriplet.training import LossParts, compute_loss
from spantriplet.triplet import pair_distance_bucket

FORWARD_STAGES = ("encoder.embed_fwd", "encoder.bilstm_fwd", "encoder.span_reps_fwd",
                  "pruning.mention_fwd", "pruning.prune", "triplet.pairs_fwd",
                  "triplet.relation_fwd")
BACKWARD_STAGES = ("training.loss_bwd", "triplet.relation_bwd", "triplet.pairs_bwd",
                   "pruning.mention_bwd", "encoder.span_reps_bwd", "encoder.bilstm_bwd",
                   "encoder.embed_bwd")


class StageClock:
    """Wall seconds per stage name, summed over the ``with clock(name)`` blocks."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}

    @contextmanager
    def __call__(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = self.seconds.get(name, 0.0) + time.perf_counter() - start

    def total(self, names: Sequence[str]) -> float:
        return sum(self.seconds.get(name, 0.0) for name in names)


def _leaf(t: Tensor) -> Tensor:
    return Tensor(t.data, requires_grad=True)


@dataclass
class StagedPass:
    """A forward pass cut at stage boundaries.

    Each ``*_in`` is the leaf a stage reads; each stage output is kept so
    its backward can be run alone from the gradient its consumer's leaf
    collected.
    """

    output: SentenceOutput     # mention/relation logits are the loss stage's leaves
    embedded: Tensor
    embedded_in: Tensor
    hidden: Tensor
    hidden_in: Tensor
    reps: Tensor
    mention_in: Tensor
    mention_logits: Tensor
    pair_in: Tensor
    pair_matrix: Tensor
    relation_in: Tensor
    relation_logits: Tensor
    loss: LossParts | None = None


def staged_forward(model: SpanModel, tokens: Sequence[str], clock: StageClock, *,
                   training: bool = False, rng: np.random.Generator | None = None,
                   pools: tuple[Sequence[int], Sequence[int]] | None = None) -> StagedPass:
    """The stages of ``SpanModel.forward``, each timed and cut from its producer."""
    tokens = list(tokens)
    config = model.config
    n = len(tokens)

    with clock("encoder.embed_fwd"):
        embedded = enc.embed_tokens(tokens, model.vocab, model.embedding)
        embedded = ad.dropout(embedded, config.lstm_dropout, rng, training)
    embedded_in = _leaf(embedded)
    with clock("encoder.bilstm_fwd"):
        hidden = enc.bilstm_forward(embedded_in, model.lstm)
        hidden = ad.dropout(hidden, config.lstm_dropout, rng, training)
    hidden_in = _leaf(hidden)
    with clock("encoder.span_reps_fwd"):
        spans = enc.enumerate_spans(n, config.max_span_gap)
        reps = enc.span_representation_matrix(hidden_in, spans, config.span_mode,
                                              model.width_table)
    mention_in = _leaf(reps)
    with clock("pruning.mention_fwd"):
        mention_logits = model.mention_ffnn(mention_in, training=training, rng=rng)
        mention_probs = ad.softmax_probabilities(mention_logits.data)

    with clock("pruning.prune"):
        candidates = [SpanCandidate(span, i, tuple(mention_probs[i]))
                      for i, span in enumerate(spans)]
        if pools is not None:
            target_pool = [candidates[i] for i in pools[0]]
            opinion_pool = [candidates[i] for i in pools[1]]
        elif config.channel_mode == "dual":
            target_pool, opinion_pool = pruning.prune_dual_channel(candidates, n, config.z)
        else:
            target_pool = opinion_pool = pruning.prune_single_channel(candidates, n, config.z)

    pair_in = _leaf(reps)
    with clock("triplet.pairs_fwd"):
        pairs = [(t, o) for t in target_pool for o in opinion_pool]
        parts = [ad.rows(pair_in, [t.index for t, _ in pairs]),
                 ad.rows(pair_in, [o.index for _, o in pairs])]
        if model.distance_table is not None:
            parts.append(ad.rows(model.distance_table,
                                 [pair_distance_bucket(t.span, o.span) for t, o in pairs]))
        pair_matrix = ad.concat(parts, axis=1)
    relation_in = _leaf(pair_matrix)
    with clock("triplet.relation_fwd"):
        relation_logits = model.relation_ffnn(relation_in, training=training, rng=rng)
        relation_probs = ad.softmax_probabilities(relation_logits.data)

    output = SentenceOutput(
        tokens=tokens, spans=spans, span_reps=reps,
        mention_logits=_leaf(mention_logits), mention_probs=mention_probs,
        candidates=candidates, target_pool=target_pool, opinion_pool=opinion_pool,
        pairs=pairs, relation_logits=_leaf(relation_logits), relation_probs=relation_probs,
    )
    return StagedPass(output, embedded, embedded_in, hidden, hidden_in, reps, mention_in,
                      mention_logits, pair_in, pair_matrix, relation_in, relation_logits)


def staged_loss(staged: StagedPass, sentence: Sentence, channel_mode: str,
                clock: StageClock) -> LossParts:
    with clock("training.loss_fwd"):
        staged.loss = compute_loss(staged.output, sentence, channel_mode)
    return staged.loss


def staged_backward(staged: StagedPass, clock: StageClock) -> None:
    """Backpropagate stage by stage, from the loss down to the embedding table."""
    out = staged.output
    with clock("training.loss_bwd"):
        staged.loss.total.backward()
    with clock("triplet.relation_bwd"):
        staged.relation_logits.backward(seed=out.relation_logits.grad)
    with clock("triplet.pairs_bwd"):
        staged.pair_matrix.backward(seed=staged.relation_in.grad)
    with clock("pruning.mention_bwd"):
        staged.mention_logits.backward(seed=out.mention_logits.grad)
    with clock("encoder.span_reps_bwd"):
        staged.reps.backward(seed=staged.mention_in.grad + staged.pair_in.grad)
    with clock("encoder.bilstm_bwd"):
        staged.hidden.backward(seed=staged.hidden_in.grad)
    with clock("encoder.embed_bwd"):
        staged.embedded.backward(seed=staged.embedded_in.grad)


def graph_nodes(root: Tensor) -> int:
    """Nodes reachable from ``root`` through ``_parents``; reads, never writes."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)
