"""Exact-match metrics, mode breakdowns, and the pruning sweep.

All scores are micro-aggregated over the corpus. A predicted triplet is a
true positive only when target span, opinion span, and sentiment all equal
a gold triplet. Filtering modes restrict counting to single-word or
multi-word triplets; by default the filter applies to both the gold and
the predicted side.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .data import Sentence
from .encoder import Span, span_width
from .errors import ConfigurationError, DataError
from .model import MENTION_KINDS, SpanModel
from .triplet import TripletPrediction, decode_triplets

TripletKey = tuple[Span, Span, str]

EVAL_MODES = ("all", "single_word", "multi_word", "multi_word_target",
              "multi_word_opinion")
FILTER_SIDES = ("both", "gold")

MENTION_TASKS = {"ATE": "target", "OTE": "opinion"}


@dataclass(frozen=True)
class PRF:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int) -> "PRF":
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = (2 * precision * recall / (precision + recall)
              if precision + recall else 0.0)
        return cls(tp, fp, fn, precision, recall, f1)

    def as_dict(self) -> dict:
        return {"tp": self.tp, "fp": self.fp, "fn": self.fn,
                "precision": self.precision, "recall": self.recall, "f1": self.f1}


def mode_predicate(mode: str):
    if mode == "all":
        return lambda t: True
    if mode == "single_word":
        return lambda t: span_width(t[0]) == 1 and span_width(t[1]) == 1
    if mode == "multi_word":
        return lambda t: span_width(t[0]) > 1 or span_width(t[1]) > 1
    if mode == "multi_word_target":
        return lambda t: span_width(t[0]) > 1
    if mode == "multi_word_opinion":
        return lambda t: span_width(t[1]) > 1
    raise ConfigurationError(f"unknown eval mode {mode!r}; expected one of {EVAL_MODES}")


def triplet_prf(gold: Mapping[int, Iterable[TripletKey]],
                pred: Mapping[int, Iterable[TripletKey]],
                mode: str = "all", filter_side: str = "both") -> PRF:
    """Micro PRF over sentences; predictions for unknown sentence ids are rejected."""
    if filter_side not in FILTER_SIDES:
        raise ConfigurationError(f"filter_side must be one of {FILTER_SIDES}")
    unknown = set(pred) - set(gold)
    if unknown:
        raise DataError(f"predictions reference unknown sentence ids: {sorted(unknown)}")
    keep = mode_predicate(mode)
    tp = fp = fn = 0
    for sid, gold_triplets in gold.items():
        gold_set = {t for t in gold_triplets if keep(t)}
        pred_set = set(pred.get(sid, ()))
        if filter_side == "both":
            pred_set = {t for t in pred_set if keep(t)}
        hits = len(gold_set & pred_set)
        tp += hits
        fp += len(pred_set) - hits
        fn += len(gold_set) - hits
    return PRF.from_counts(tp, fp, fn)


def match_span_sets(gold: Mapping[int, Iterable[Span]],
                    pred: Mapping[int, Iterable[Span]]) -> PRF:
    """Exact span matching used by the term-extraction metrics."""
    unknown = set(pred) - set(gold)
    if unknown:
        raise DataError(f"predictions reference unknown sentence ids: {sorted(unknown)}")
    tp = fp = fn = 0
    for sid, gold_spans in gold.items():
        gold_set = set(gold_spans)
        pred_set = set(pred.get(sid, ()))
        hits = len(gold_set & pred_set)
        tp += hits
        fp += len(pred_set) - hits
        fn += len(gold_set) - hits
    return PRF.from_counts(tp, fp, fn)


# ---------------------------------------------------------------------------
# Model-driven evaluation
# ---------------------------------------------------------------------------

def gold_triplet_sets(sentences: Sequence[Sentence]) -> dict[int, set[TripletKey]]:
    return {s.id: s.triplet_keys() for s in sentences}


def predict_corpus(model: SpanModel,
                   sentences: Sequence[Sentence]) -> dict[int, list[TripletPrediction]]:
    return {s.id: model.predict(s.tokens) for s in sentences}


def predictions_to_keys(predictions: Mapping[int, Iterable[TripletPrediction]]
                        ) -> dict[int, set[TripletKey]]:
    return {sid: {(p.target, p.opinion, p.sentiment) for p in preds}
            for sid, preds in predictions.items()}


def triplet_prf_for_model(model: SpanModel, sentences: Sequence[Sentence],
                          mode: str = "all", filter_side: str = "both") -> PRF:
    predictions = predictions_to_keys(predict_corpus(model, sentences))
    return triplet_prf(gold_triplet_sets(sentences), predictions, mode, filter_side)


def _task_kind(task: str) -> str:
    kind = MENTION_TASKS.get(task)
    if kind is None:
        raise ConfigurationError(f"task must be one of {sorted(MENTION_TASKS)}, got {task!r}")
    return kind


def _gold_spans(sentences: Sequence[Sentence], kind: str) -> dict[int, set[Span]]:
    return {s.id: (s.target_spans() if kind == "target" else s.opinion_spans())
            for s in sentences}


def mention_prf(model: SpanModel, sentences: Sequence[Sentence], task: str) -> PRF:
    """Direct term extraction: argmax mention type over the full enumeration."""
    kind = _task_kind(task)
    pred = {s.id: model.mention_spans(s.tokens, kind) for s in sentences}
    return match_span_sets(_gold_spans(sentences, kind), pred)


def mention_prf_from_triplets(predictions: Mapping[int, Iterable[TripletPrediction]],
                              sentences: Sequence[Sentence], task: str) -> PRF:
    """Term extraction scored from the spans mentioned by predicted triplets."""
    kind = _task_kind(task)
    pred = {sid: {p.target if kind == "target" else p.opinion for p in preds}
            for sid, preds in predictions.items()}
    return match_span_sets(_gold_spans(sentences, kind), pred)


def evaluate_model(model: SpanModel, sentences: Sequence[Sentence],
                   modes: Sequence[str] = EVAL_MODES) -> dict:
    """Triplet PRF per mode (both filter conventions) plus the term-extraction tasks.

    One forward pass per sentence feeds the triplets and, with the 3-class
    mention head, the directly extracted target and opinion spans.
    """
    dual = model.config.channel_mode == "dual"
    predictions: dict[int, list[TripletPrediction]] = {}
    typed: dict[str, dict[int, set[Span]]] = {kind: {} for kind in MENTION_KINDS}
    for sentence in sentences:
        output = model.forward(sentence.tokens)
        predictions[sentence.id] = decode_triplets(output.pair_spans, output.relation_probs)
        if dual:
            for kind, label in MENTION_KINDS.items():
                typed[kind][sentence.id] = output.argmax_spans(label)
        # Free this sentence's graph before the next forward builds one.
        del output
    gold = gold_triplet_sets(sentences)
    pred_keys = predictions_to_keys(predictions)
    report: dict = {"triplet": {}, "triplet_gold_side_filter": {}}
    for mode in modes:
        report["triplet"][mode] = triplet_prf(gold, pred_keys, mode, "both").as_dict()
        report["triplet_gold_side_filter"][mode] = triplet_prf(
            gold, pred_keys, mode, "gold").as_dict()
    if dual:
        report["mention_direct"] = {
            task: match_span_sets(_gold_spans(sentences, kind), typed[kind]).as_dict()
            for task, kind in MENTION_TASKS.items()
        }
    report["mention_from_triplets"] = {
        task: mention_prf_from_triplets(predictions, sentences, task).as_dict()
        for task in MENTION_TASKS
    }
    return report


def render_prf_table(rows: Mapping[str, Mapping[str, float]]) -> str:
    header = f"{'mode':<22}{'P':>10}{'R':>10}{'F1':>10}{'tp':>8}{'fp':>8}{'fn':>8}"
    lines = [header]
    for name, prf in rows.items():
        lines.append(f"{name:<22}{prf['precision']:>10.4f}{prf['recall']:>10.4f}"
                     f"{prf['f1']:>10.4f}{prf['tp']:>8}{prf['fp']:>8}{prf['fn']:>8}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Pruning diagnostics and sweep
# ---------------------------------------------------------------------------

def pool_diagnostics(model: SpanModel, sentences: Sequence[Sentence]) -> list[dict]:
    """Per-sentence pool record: n, k, pool contents, gold recall inside each pool."""
    records = []
    for sentence in sentences:
        output = model.forward(sentence.tokens)
        k = output.pool_size
        target_spans = {c.span for c in output.target_pool}
        opinion_spans = {c.span for c in output.opinion_pool}
        # Free this sentence's graph before the next forward builds one.
        del output
        gold_t = sentence.target_spans()
        gold_o = sentence.opinion_spans()
        records.append({
            "sentence": sentence.id,
            "n": len(sentence.tokens),
            "k": k,
            "target_pool": sorted(list(s) for s in target_spans),
            "opinion_pool": sorted(list(s) for s in opinion_spans),
            "gold_targets": len(gold_t),
            "gold_targets_kept": len(gold_t & target_spans),
            "gold_opinions": len(gold_o),
            "gold_opinions_kept": len(gold_o & opinion_spans),
            "target_recall": (len(gold_t & target_spans) / len(gold_t)
                              if gold_t else None),
            "opinion_recall": (len(gold_o & opinion_spans) / len(gold_o)
                               if gold_o else None),
        })
    return records


def write_diagnostics(path: str, records: Sequence[dict]) -> None:
    from .data import atomic_write_text

    atomic_write_text(path, "".join(json.dumps(r) + "\n" for r in records))


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

    def as_dict(self) -> dict:
        return dict(self.__dict__)


def prune_sweep(train: Sequence[Sentence], dev: Sequence[Sentence], model_config,
                train_config, z_values: Sequence[float],
                modes: Sequence[str] = SWEEP_MODES, seed: int = 0,
                diagnostics_path: str | None = None,
                log_progress: bool = False) -> list[SweepRow]:
    """Train one model per (z, mode) and report dev F1 plus pool accounting.

    ``sc_adjusted`` is the single-channel setting run at threshold 2z so it
    considers at least as many candidates per role as the dual-channel run,
    which costs about four times the pairs.
    """
    # Imported here: training already imports this module for dev scoring.
    from dataclasses import replace

    from .encoder import Vocabulary
    from .training import train_single_seed

    if not z_values:
        raise DataError("the sweep needs at least one z value")
    for mode in modes:
        if mode not in SWEEP_MODES:
            raise ConfigurationError(f"unknown sweep mode {mode!r}")
    vocab = Vocabulary.build(s.tokens for s in train)
    rows = []
    diagnostics: list[dict] = []
    for z in z_values:
        for mode in modes:
            channel = "dual" if mode == "dual" else "single"
            effective_z = 2 * z if mode == "sc_adjusted" else z
            config = replace(model_config, z=effective_z, channel_mode=channel)
            model = SpanModel(config, vocab, seed=seed)
            curve, best_epoch, best_state = train_single_seed(
                model, train, dev, train_config, seed, log_progress)
            model.load_state_arrays(best_state)
            records = pool_diagnostics(model, dev)
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
        write_diagnostics(diagnostics_path, diagnostics)
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
