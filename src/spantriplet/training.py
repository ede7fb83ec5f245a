"""Gold label assignment, the joint loss, and the experiment loops.

Supervision is exact-match: an enumerated span is a target/opinion mention
only when it equals a gold span, and a candidate pair carries a sentiment
label only when both spans match a gold triplet. Parameters update after
every sentence (batch size 1) with AdamW at a constant learning rate; the
checkpoint kept per seed is the one maximizing dev triplet F1.

``train_single_seed`` is the only code that trains a model. Both
experiments run it: ``run_experiment`` (the seeded protocol, scored on
test) and ``prune_sweep`` (one model per pruning setting, with the pool
records of the best epoch's dev pass).
"""

from __future__ import annotations

import json
import logging
import math
import os
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import AdamW, Tensor
from .data import Sentence, atomic_write_text
from .encoder import Span, Vocabulary
from .errors import ConfigurationError, DataError, NumericalError
from .evaluation import PRF, CorpusPass, corpus_pass
from .model import (ModelConfig, SentenceOutput, SpanModel, check_distinct, check_field_types,
                    has_kind)
from .pruning import (MENTION_INVALID, MENTION_OPINION, MENTION_TARGET,
                      SINGLE_INVALID, SINGLE_VALID, SpanCandidate)
from .triplet import RELATION_CLASSES, RELATION_INVALID

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    lr: float = 1e-3
    weight_decay: float = 0.0

    def __post_init__(self) -> None:
        check_field_types(self)
        object.__setattr__(self, "seeds", tuple(self.seeds))
        if min(self.seeds) < 0:
            raise ConfigurationError(f"seeds must be >= 0, got {list(self.seeds)}")
        check_distinct("seeds", self.seeds)
        if self.epochs < 1:
            raise ConfigurationError(f"epochs must be >= 1, got {self.epochs}")
        if not 0.0 < self.lr < math.inf:
            raise ConfigurationError(f"lr must be a finite number > 0, got {self.lr!r}")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ConfigurationError(f"weight_decay must be in [0, inf), got {self.weight_decay}")


def make_optimizer(model: SpanModel, config: TrainConfig) -> AdamW:
    return AdamW(model.parameters(), lr=config.lr, weight_decay=config.weight_decay)


# ---------------------------------------------------------------------------
# Gold assignment
# ---------------------------------------------------------------------------

def assign_mention_labels(sentence: Sentence, spans: Sequence[Span],
                          channel_mode: str = "dual") -> list[int]:
    """One mention label per enumerated span, by exact span match.

    A span annotated as both target and opinion gets the target label.
    Gold spans too wide to enumerate contribute no supervision;
    ``check_splits`` counts them once per experiment.
    """
    targets = sentence.target_spans()
    opinions = sentence.opinion_spans()
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
        "mention_loss": _json_number(parts.mention.item()),
        "relation_loss": _json_number(parts.relation.item()),
        # hypot does not overflow where squaring a weight near 1e300 would.
        "param_norms": {p.name: _json_number(float(np.hypot.reduce(p.data.ravel())))
                        for p in model.parameters()},
    }


def _json_number(x: float) -> float | str:
    """``x``, or ``"nan"``, ``"inf"`` or ``"-inf"`` if it is not finite, which JSON cannot hold."""
    return x if math.isfinite(x) else str(x)


def train_epoch(model: SpanModel, sentences: Sequence[Sentence],
                optimizer: AdamW, rng: np.random.Generator) -> EpochStats:
    """One pass over the data in seeded-shuffled order, one update per sentence.

    A non-finite loss or gradient raises NumericalError before the update,
    so the parameters keep their last finite values. Gradients are zeroed
    once up front; each ``optimizer.step`` leaves them zero again.
    """
    if not sentences:
        raise DataError("cannot train on an empty dataset")
    start = time.perf_counter()
    order = rng.permutation(len(sentences))
    totals = np.zeros(3)
    optimizer.zero_grad()
    for position, idx in enumerate(order):
        sentence = sentences[int(idx)]
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
    test: PRF
    checkpoint: str | None = None


@dataclass
class ExperimentReport:
    model_config: dict
    train_config: dict
    seeds: list[SeedResult] = field(default_factory=list)

    def mean_scores(self) -> dict[str, float]:
        """Means of the per-seed precision, recall and F1 scores."""
        return {name: float(np.mean([getattr(r.test, name) for r in self.seeds]))
                for name in ("precision", "recall", "f1")}

    def pooled_counts_prf(self) -> PRF:
        """PRF of the summed tp/fp/fn over seeds, the other averaging convention."""
        return PRF.from_counts(sum(r.test.tp for r in self.seeds),
                               sum(r.test.fp for r in self.seeds),
                               sum(r.test.fn for r in self.seeds))

    def as_dict(self) -> dict:
        pooled = self.pooled_counts_prf()
        return {**asdict(self), "mean": self.mean_scores(),
                "pooled_counts": {"precision": pooled.precision, "recall": pooled.recall,
                                  "f1": pooled.f1}}

    def render_text(self) -> str:
        lines = ["seed  best_epoch  test_P    test_R    test_F1"]
        for r in self.seeds:
            lines.append(f"{r.seed:<6}{r.best_epoch:<12}{r.test.precision:<10.4f}"
                         f"{r.test.recall:<10.4f}{r.test.f1:.4f}")
        mean, pooled = self.mean_scores(), self.pooled_counts_prf()
        lines.append(f"mean of per-seed scores: P={mean['precision']:.4f} "
                     f"R={mean['recall']:.4f} F1={mean['f1']:.4f}")
        lines.append(f"pooled-count scores:     P={pooled.precision:.4f} "
                     f"R={pooled.recall:.4f} F1={pooled.f1:.4f}")
        return "\n".join(lines)


def train_single_seed(model: SpanModel, train: Sequence[Sentence],
                      dev: Sequence[Sentence], config: TrainConfig,
                      seed: int) -> tuple[list[float], int, CorpusPass]:
    """Train one model and leave it in its best-dev state.

    Returns the dev F1 curve, the best epoch and that epoch's dev pass, so
    nothing needs to run dev again on the restored model.
    """
    optimizer = make_optimizer(model, config)
    rng = np.random.default_rng(seed)
    curve: list[float] = []
    for epoch in range(config.epochs):
        stats = train_epoch(model, train, optimizer, rng)
        dev_pass = corpus_pass(model, dev)
        dev_f1 = dev_pass.score().f1
        logger.info("seed %d epoch %d: loss %.4f, dev F1 %.4f",
                    seed, epoch, stats.mean_loss, dev_f1)
        if not curve or dev_f1 > curve[best_epoch]:
            best_epoch, best_pass, best_state = epoch, dev_pass, model.state_arrays()
        curve.append(dev_f1)
    model.load_state_arrays(best_state)
    return curve, best_epoch, best_pass


def check_splits(gap: int, train: Sequence[Sentence], **others: Sequence[Sentence]) -> None:
    """Refuse an empty split, and warn once if gold spans of ``train`` exceed ``gap``."""
    for name, split in {"train": train, **others}.items():
        if not split:
            raise DataError(f"{name} split is empty")
    if wide := sum(j - i > gap for s in train for i, j in s.target_spans() | s.opinion_spans()):
        logger.warning("%d gold spans of the training data exceed the enumeration limit "
                       "(max_span_gap %d) and get no mention supervision", wide, gap)


def run_experiment(train: Sequence[Sentence], dev: Sequence[Sentence],
                   test: Sequence[Sentence], model_config, train_config: TrainConfig,
                   *, pretrained_embeddings: dict[str, np.ndarray] | None = None,
                   out_dir: str | None = None) -> ExperimentReport:
    """Full protocol: per seed, select the best-dev checkpoint and score it on test."""
    check_splits(model_config.max_span_gap, train, dev=dev, test=test)
    vocab = Vocabulary.build(s.tokens for s in train)
    report = ExperimentReport(asdict(model_config), asdict(train_config))
    for seed in train_config.seeds:
        model = SpanModel(model_config, vocab, seed=seed,
                          pretrained_embeddings=pretrained_embeddings)
        curve, best_epoch, _ = train_single_seed(model, train, dev, train_config, seed)
        checkpoint = None
        if out_dir is not None:
            checkpoint = os.path.join(out_dir, f"seed{seed}.ckpt.npz")
            model.save(checkpoint, extra_meta={"seed": seed, "best_epoch": best_epoch})
        report.seeds.append(SeedResult(
            seed=seed, best_epoch=best_epoch, dev_f1_curve=curve,
            test=corpus_pass(model, test).score(), checkpoint=checkpoint))
    return report


# ---------------------------------------------------------------------------
# Pruning sweep
# ---------------------------------------------------------------------------

SWEEP_MODES = ("dual", "single", "sc_adjusted")


@dataclass
class SweepRow:
    z: float
    mode: str
    effective_z: float
    dev_f1: float
    mean_pool_size: float
    mean_pair_count: float
    target_recall: float
    opinion_recall: float


def sweep_settings(model_config: ModelConfig, train_config: TrainConfig, z_values,
                   modes=SWEEP_MODES) -> list[tuple[float, str, float, ModelConfig]]:
    """Check a sweep and return its (z, mode, effective_z, model config) settings.

    ``sc_adjusted`` runs single channel at threshold 2z so it considers at
    least as many candidates per role as dual channel, at about 4x the pairs.
    """
    if not has_kind(z_values, "tuple[float, ...]"):
        raise ConfigurationError("the sweep needs z_values (--z-values), a non-empty list "
                                 f"of numbers, got {z_values!r}")
    if not (has_kind(modes, "tuple[str, ...]") and set(modes) <= set(SWEEP_MODES)):
        raise ConfigurationError(f"sweep_modes must be a non-empty list of {SWEEP_MODES}, "
                                 f"got {modes!r}")
    check_distinct("z_values", z_values)
    check_distinct("sweep_modes", modes)
    if len(train_config.seeds) > 1:
        raise ConfigurationError(f"the sweep trains one seed, got {list(train_config.seeds)}")
    settings = []
    for z in z_values:
        for mode in modes:
            effective_z = 2 * z if mode == "sc_adjusted" else z
            settings.append((z, mode, effective_z, replace(
                model_config, z=effective_z, channel_mode="dual" if mode == "dual" else "single")))
    return settings


def prune_sweep(train: Sequence[Sentence], dev: Sequence[Sentence], model_config,
                train_config: TrainConfig, z_values: Sequence[float],
                modes: Sequence[str] = SWEEP_MODES,
                diagnostics_path: str | None = None) -> list[SweepRow]:
    """Train one model per setting of ``sweep_settings`` and report dev F1 plus pool accounting.

    Every model trains with the one seed of ``train_config``; its ``z`` and
    ``channel_mode`` come from the (z, mode) setting, not ``model_config``.
    The pool accounting comes from the best epoch's dev pass;
    ``diagnostics_path`` receives its per-sentence records as JSON lines.
    """
    settings = sweep_settings(model_config, train_config, z_values, modes)
    check_splits(model_config.max_span_gap, train, dev=dev)
    seed = train_config.seeds[0]
    vocab = Vocabulary.build(s.tokens for s in train)
    rows = []
    diagnostics: list[dict] = []
    for z, mode, effective_z, config in settings:
        model = SpanModel(config, vocab, seed=seed)
        curve, best_epoch, dev_pass = train_single_seed(model, train, dev, train_config, seed)
        records = dev_pass.pool_records()
        for record in records:
            record.update({"z": z, "mode": mode})
        diagnostics.extend(records)
        k_values = [r["k"] for r in records]
        gold_t = sum(r["gold_targets"] for r in records)
        kept_t = sum(r["gold_targets_kept"] for r in records)
        gold_o = sum(r["gold_opinions"] for r in records)
        kept_o = sum(r["gold_opinions_kept"] for r in records)
        rows.append(SweepRow(
            z=z, mode=mode, effective_z=effective_z, dev_f1=curve[best_epoch],
            mean_pool_size=float(np.mean(k_values)),
            mean_pair_count=float(np.mean([k * k for k in k_values])),
            target_recall=kept_t / gold_t if gold_t else 0.0,
            opinion_recall=kept_o / gold_o if gold_o else 0.0,
        ))
    if diagnostics_path is not None:
        atomic_write_text(diagnostics_path, "".join(json.dumps(r) + "\n" for r in diagnostics))
    return rows


def render_sweep_table(rows: Sequence[SweepRow]) -> str:
    header = (f"{'z':<8}{'mode':<14}{'eff_z':<8}{'dev_F1':>10}{'pool':>8}"
              f"{'pairs':>10}{'t_recall':>10}{'o_recall':>10}")
    lines = [header]
    for r in rows:
        lines.append(f"{r.z:<8.4g}{r.mode:<14}{r.effective_z:<8.4g}{r.dev_f1:>10.4f}"
                     f"{r.mean_pool_size:>8.2f}{r.mean_pair_count:>10.2f}"
                     f"{r.target_recall:>10.4f}{r.opinion_recall:>10.4f}")
    return "\n".join(lines)
