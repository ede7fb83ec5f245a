"""Gold label assignment, the joint loss, and the experiment loop.

Supervision is exact-match: an enumerated span is a target/opinion mention
only when it equals a gold span, and a candidate pair carries a sentiment
label only when both spans match a gold triplet. Parameters update after
every sentence (batch size 1) with AdamW at a constant learning rate; the
checkpoint kept per seed is the one maximizing dev triplet F1.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import AdamW, GroupSettings, Tensor
from .data import Sentence
from .encoder import Span
from .errors import DataError, NumericalError
from .model import SentenceOutput, SpanModel
from .pruning import (MENTION_INVALID, MENTION_OPINION, MENTION_TARGET,
                      SINGLE_INVALID, SINGLE_VALID, SpanCandidate)
from .triplet import RELATION_CLASSES, RELATION_INVALID

logger = logging.getLogger(__name__)


@dataclass
class TrainConfig:
    epochs: int = 10
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    lr: float = 1e-3
    weight_decay: float = 0.0

    def validate(self) -> None:
        if self.epochs < 1:
            raise DataError(f"epochs must be >= 1, got {self.epochs}")
        if not self.seeds:
            raise DataError("at least one seed is required")

    def as_dict(self) -> dict:
        return {"epochs": self.epochs, "seeds": list(self.seeds),
                "lr": self.lr, "weight_decay": self.weight_decay}


def make_optimizer(model: SpanModel, config: TrainConfig) -> AdamW:
    return AdamW(model.parameters(),
                 groups={"other": GroupSettings(config.lr, config.weight_decay)})


# ---------------------------------------------------------------------------
# Gold assignment
# ---------------------------------------------------------------------------

def assign_mention_labels(sentence: Sentence, spans: Sequence[Span],
                          channel_mode: str = "dual") -> list[int]:
    """One mention label per enumerated span, by exact span match.

    A span annotated as both target and opinion gets the target label.
    Gold spans too wide to enumerate are logged and contribute no
    supervision.
    """
    targets = sentence.target_spans()
    opinions = sentence.opinion_spans()
    span_set = set(spans)
    for gold in sorted(targets | opinions):
        if gold not in span_set:
            logger.warning(
                "sentence %d: gold span %s exceeds the enumeration limit and "
                "gets no mention supervision", sentence.id, gold)
    labels = []
    for span in spans:
        if channel_mode == "single":
            labels.append(SINGLE_VALID if span in targets or span in opinions
                          else SINGLE_INVALID)
        elif span in targets:
            labels.append(MENTION_TARGET)
        elif span in opinions:
            labels.append(MENTION_OPINION)
        else:
            labels.append(MENTION_INVALID)
    return labels


def assign_relation_labels(sentence: Sentence,
                           pairs: Sequence[tuple[SpanCandidate, SpanCandidate]]) -> list[int]:
    """One relation label per candidate pair; non-gold pairs are the rejection class."""
    by_pair = {(t.target, t.opinion): RELATION_CLASSES.index(t.sentiment)
               for t in sentence.triplets}
    return [by_pair.get((t.span, o.span), RELATION_INVALID) for t, o in pairs]


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------

@dataclass
class LossParts:
    """The joint loss and its two addends, all graph nodes."""

    mention: Tensor
    relation: Tensor
    total: Tensor


def compute_loss(output: SentenceOutput, sentence: Sentence,
                 channel_mode: str = "dual") -> LossParts:
    """Sum of mention NLL over all enumerated spans and relation NLL over all pairs."""
    mention_labels = assign_mention_labels(sentence, output.spans, channel_mode)
    relation_labels = assign_relation_labels(sentence, output.pairs)
    mention_loss = ad.softmax_nll(output.mention_logits, mention_labels)
    relation_loss = ad.softmax_nll(output.relation_logits, relation_labels)
    return LossParts(mention_loss, relation_loss, ad.add(mention_loss, relation_loss))


# ---------------------------------------------------------------------------
# Epoch loop
# ---------------------------------------------------------------------------

@dataclass
class EpochStats:
    mean_loss: float
    mean_mention_loss: float
    mean_relation_loss: float
    sentences: int
    seconds: float


def _failure_snapshot(model: SpanModel, sentence: Sentence, position: int,
                      parts: LossParts) -> dict:
    return {
        "sentence_id": sentence.id,
        "tokens": sentence.tokens,
        "position_in_epoch": position,
        "mention_loss": parts.mention.item(),
        "relation_loss": parts.relation.item(),
        "param_norms": {p.name: float(np.linalg.norm(p.data))
                        for p in model.parameters()},
    }


def train_epoch(model: SpanModel, sentences: Sequence[Sentence],
                optimizer: AdamW, rng: np.random.Generator) -> EpochStats:
    """One pass over the data in seeded-shuffled order, one update per sentence.

    A non-finite loss or gradient raises NumericalError before the update,
    so the parameters keep their last finite values.
    """
    if not sentences:
        raise DataError("cannot train on an empty dataset")
    start = time.perf_counter()
    order = rng.permutation(len(sentences))
    totals = np.zeros(3)
    for position, idx in enumerate(order):
        sentence = sentences[int(idx)]
        optimizer.zero_grad()
        output = model.forward(sentence.tokens, training=True, rng=rng)
        parts = compute_loss(output, sentence, model.config.channel_mode)
        loss = parts.total.item()
        if not np.isfinite(loss):
            raise NumericalError(f"non-finite loss on sentence {sentence.id}",
                                 snapshot=_failure_snapshot(model, sentence, position, parts))
        parts.total.backward()
        bad = [p.name for p in optimizer.params if not np.isfinite(p.grad).all()]
        if bad:
            snapshot = _failure_snapshot(model, sentence, position, parts)
            snapshot["non_finite_grads"] = bad
            raise NumericalError(
                f"non-finite gradient on sentence {sentence.id} in {', '.join(bad)}",
                snapshot=snapshot)
        optimizer.step()
        totals += (loss, parts.mention.item(), parts.relation.item())
    n = len(sentences)
    return EpochStats(totals[0] / n, totals[1] / n, totals[2] / n, n,
                      time.perf_counter() - start)


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

@dataclass
class SeedResult:
    seed: int
    best_epoch: int
    dev_f1_curve: list[float]
    test_precision: float
    test_recall: float
    test_f1: float
    test_counts: tuple[int, int, int]  # (tp, fp, fn)
    checkpoint_path: str | None = None

    def as_dict(self) -> dict:
        return {
            "seed": self.seed, "best_epoch": self.best_epoch,
            "dev_f1_curve": self.dev_f1_curve,
            "test": {"precision": self.test_precision, "recall": self.test_recall,
                     "f1": self.test_f1,
                     "tp": self.test_counts[0], "fp": self.test_counts[1],
                     "fn": self.test_counts[2]},
            "checkpoint": self.checkpoint_path,
        }


@dataclass
class ExperimentReport:
    model_config: dict
    train_config: dict
    seed_results: list[SeedResult] = field(default_factory=list)

    @property
    def mean_precision(self) -> float:
        return float(np.mean([r.test_precision for r in self.seed_results]))

    @property
    def mean_recall(self) -> float:
        return float(np.mean([r.test_recall for r in self.seed_results]))

    @property
    def mean_f1(self) -> float:
        """Mean of the per-seed F1 scores."""
        return float(np.mean([r.test_f1 for r in self.seed_results]))

    def pooled_counts_prf(self) -> tuple[float, float, float]:
        """PRF of the summed tp/fp/fn over seeds, the other averaging convention."""
        from .evaluation import PRF

        tp = sum(r.test_counts[0] for r in self.seed_results)
        fp = sum(r.test_counts[1] for r in self.seed_results)
        fn = sum(r.test_counts[2] for r in self.seed_results)
        prf = PRF.from_counts(tp, fp, fn)
        return (prf.precision, prf.recall, prf.f1)

    def as_dict(self) -> dict:
        pooled = self.pooled_counts_prf()
        return {
            "model_config": self.model_config,
            "train_config": self.train_config,
            "seeds": [r.as_dict() for r in self.seed_results],
            "mean": {"precision": self.mean_precision, "recall": self.mean_recall,
                     "f1": self.mean_f1},
            "pooled_counts": {"precision": pooled[0], "recall": pooled[1],
                              "f1": pooled[2]},
        }

    def render_text(self) -> str:
        lines = ["seed  best_epoch  test_P    test_R    test_F1"]
        for r in self.seed_results:
            lines.append(f"{r.seed:<6}{r.best_epoch:<12}{r.test_precision:<10.4f}"
                         f"{r.test_recall:<10.4f}{r.test_f1:.4f}")
        pooled = self.pooled_counts_prf()
        lines.append(f"mean of per-seed scores: P={self.mean_precision:.4f} "
                     f"R={self.mean_recall:.4f} F1={self.mean_f1:.4f}")
        lines.append(f"pooled-count scores:     P={pooled[0]:.4f} "
                     f"R={pooled[1]:.4f} F1={pooled[2]:.4f}")
        return "\n".join(lines)


def train_single_seed(model: SpanModel, train: Sequence[Sentence],
                      dev: Sequence[Sentence], config: TrainConfig, seed: int,
                      log_progress: bool = False) -> tuple[list[float], int, dict]:
    """Train one model; returns (dev F1 curve, best epoch, best parameter arrays)."""
    from .evaluation import triplet_prf_for_model

    optimizer = make_optimizer(model, config)
    rng = np.random.default_rng(seed)
    curve: list[float] = []
    best_f1 = -1.0
    best_epoch = -1
    best_state = model.state_arrays()
    for epoch in range(config.epochs):
        stats = train_epoch(model, train, optimizer, rng)
        dev_f1 = triplet_prf_for_model(model, dev).f1
        curve.append(dev_f1)
        if log_progress:
            logger.info("seed %d epoch %d: loss %.4f, dev F1 %.4f",
                        seed, epoch, stats.mean_loss, dev_f1)
        if dev_f1 > best_f1:
            best_f1 = dev_f1
            best_epoch = epoch
            best_state = model.state_arrays()
    return curve, best_epoch, best_state


def run_experiment(train: Sequence[Sentence], dev: Sequence[Sentence],
                   test: Sequence[Sentence], model_config, train_config: TrainConfig,
                   *, pretrained_embeddings: dict[str, np.ndarray] | None = None,
                   out_dir: str | None = None,
                   log_progress: bool = False) -> ExperimentReport:
    """Full protocol: per seed, select the best-dev checkpoint and score it on test."""
    from .encoder import Vocabulary
    from .evaluation import triplet_prf_for_model

    for name, split in (("train", train), ("dev", dev), ("test", test)):
        if not split:
            raise DataError(f"{name} split is empty")
    train_config.validate()
    vocab = Vocabulary.build(s.tokens for s in train)
    report = ExperimentReport(model_config.as_dict(), train_config.as_dict())
    for seed in train_config.seeds:
        model = SpanModel(model_config, vocab, seed=seed,
                          pretrained_embeddings=pretrained_embeddings)
        curve, best_epoch, best_state = train_single_seed(
            model, train, dev, train_config, seed, log_progress)
        model.load_state_arrays(best_state)
        checkpoint_path = None
        if out_dir is not None:
            import os

            checkpoint_path = os.path.join(out_dir, f"seed{seed}.ckpt.npz")
            model.save(checkpoint_path, extra_meta={"seed": seed, "best_epoch": best_epoch})
        prf = triplet_prf_for_model(model, test)
        report.seed_results.append(SeedResult(
            seed=seed, best_epoch=best_epoch, dev_f1_curve=curve,
            test_precision=prf.precision, test_recall=prf.recall, test_f1=prf.f1,
            test_counts=(prf.tp, prf.fp, prf.fn), checkpoint_path=checkpoint_path))
    return report
