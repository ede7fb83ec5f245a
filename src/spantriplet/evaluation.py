"""Exact-match metrics, mode breakdowns, and the one pass over a corpus.

``corpus_pass`` is the only code that runs a model over a corpus: one
no-dropout forward per sentence, each graph freed before the next is
built. Evaluation, dev selection, test scoring and the pruning sweep's
pool records all read what it keeps.

All scores are micro-aggregated over the corpus. A predicted triplet is a
true positive only when target span, opinion span, and sentiment all equal
a gold triplet. Filtering modes restrict counting to single-word or
multi-word triplets; by default the filter applies to both the gold and
the predicted side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .data import Sentence
from .encoder import Span, span_width
from .errors import ConfigurationError, DataError
from .model import SpanModel
from .pruning import MENTION_OPINION, MENTION_TARGET
from .triplet import TripletPrediction, decode_triplets

TripletKey = tuple[Span, Span, str]

# Each evaluation mode's filter: whether it counts a (target, opinion, sentiment) key.
EVAL_MODES = {
    "all": lambda t: True,
    "single_word": lambda t: span_width(t[0]) == 1 and span_width(t[1]) == 1,
    "multi_word": lambda t: span_width(t[0]) > 1 or span_width(t[1]) > 1,
    "multi_word_target": lambda t: span_width(t[0]) > 1,
    "multi_word_opinion": lambda t: span_width(t[1]) > 1,
}
FILTER_SIDES = ("both", "gold")

MENTION_TASKS = {"ATE": "target", "OTE": "opinion"}
# Mention class of each kind of term that direct extraction reads off the 3-class head.
MENTION_KINDS = {"target": MENTION_TARGET, "opinion": MENTION_OPINION}


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


def triplet_prf(gold: Mapping[int, Iterable[TripletKey]],
                pred: Mapping[int, Iterable[TripletKey]],
                mode: str = "all", filter_side: str = "both") -> PRF:
    """Micro PRF over sentences of the triplets ``mode`` keeps.

    The mode filter applies to gold and, with ``filter_side="both"``, to
    the predictions too.
    """
    if filter_side not in FILTER_SIDES:
        raise ConfigurationError(f"filter_side must be one of {FILTER_SIDES}")
    if mode not in EVAL_MODES:
        raise ConfigurationError(
            f"unknown eval mode {mode!r}; expected one of {tuple(EVAL_MODES)}")
    keep = EVAL_MODES[mode]
    gold = {sid: {t for t in triplets if keep(t)} for sid, triplets in gold.items()}
    if filter_side == "both":
        pred = {sid: {t for t in triplets if keep(t)} for sid, triplets in pred.items()}
    return match_span_sets(gold, pred)


def match_span_sets(gold: Mapping[int, Iterable], pred: Mapping[int, Iterable]) -> PRF:
    """Micro PRF of exact set matching per sentence.

    Shared by the triplet and term-extraction metrics; predictions for
    unknown sentence ids are rejected.
    """
    unknown = set(pred) - set(gold)
    if unknown:
        raise DataError(f"predictions reference unknown sentence ids: {sorted(unknown)}")
    tp = fp = fn = 0
    for sid, gold_items in gold.items():
        gold_set = set(gold_items)
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


def predictions_to_keys(predictions: Mapping[int, Iterable[TripletPrediction]]
                        ) -> dict[int, set[TripletKey]]:
    return {sid: {(p.target, p.opinion, p.sentiment) for p in preds}
            for sid, preds in predictions.items()}


def _task_kind(task: str) -> str:
    kind = MENTION_TASKS.get(task)
    if kind is None:
        raise ConfigurationError(f"task must be one of {sorted(MENTION_TASKS)}, got {task!r}")
    return kind


def _gold_spans(sentences: Sequence[Sentence], kind: str) -> dict[int, set[Span]]:
    return {s.id: (s.target_spans() if kind == "target" else s.opinion_spans())
            for s in sentences}


def mention_prf_from_triplets(predictions: Mapping[int, Iterable[TripletPrediction]],
                              sentences: Sequence[Sentence], task: str) -> PRF:
    """Term extraction scored from the spans mentioned by predicted triplets."""
    kind = _task_kind(task)
    pred = {sid: {p.target if kind == "target" else p.opinion for p in preds}
            for sid, preds in predictions.items()}
    return match_span_sets(_gold_spans(sentences, kind), pred)


@dataclass
class CorpusPass:
    """What one no-dropout forward per sentence leaves once its graph is freed.

    ``typed`` maps each term kind to the directly typed spans per sentence;
    it is empty unless the model has the 3-class (dual channel) mention
    head. ``pools`` holds each sentence's target and opinion pool spans,
    in corpus order.
    """

    sentences: Sequence[Sentence]
    predictions: dict[int, list[TripletPrediction]]
    typed: dict[str, dict[int, set[Span]]]
    pools: list[tuple[list[Span], list[Span]]]

    def score(self) -> PRF:
        """Triplet PRF over all triplets: the dev-selection and test metric."""
        return triplet_prf(gold_triplet_sets(self.sentences),
                           predictions_to_keys(self.predictions))

    def pool_records(self) -> list[dict]:
        """Per-sentence pool record: n, k, pool contents, gold recall inside each pool."""
        records = []
        for sentence, (target_pool, opinion_pool) in zip(self.sentences, self.pools):
            target_spans, opinion_spans = set(target_pool), set(opinion_pool)
            gold_t = sentence.target_spans()
            gold_o = sentence.opinion_spans()
            records.append({
                "sentence": sentence.id,
                "n": len(sentence.tokens),
                "k": len(target_pool),
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


def corpus_pass(model: SpanModel, sentences: Sequence[Sentence]) -> CorpusPass:
    """Run one no-dropout forward per sentence and keep what scoring reads."""
    dual = model.config.channel_mode == "dual"
    result = CorpusPass(sentences, {}, {kind: {} for kind in MENTION_KINDS} if dual else {}, [])
    for sentence in sentences:
        output = model.forward(sentence.tokens)
        result.predictions[sentence.id] = decode_triplets(output.pair_spans,
                                                          output.relation_probs)
        if dual:
            for kind, label in MENTION_KINDS.items():
                result.typed[kind][sentence.id] = output.argmax_spans(label)
        result.pools.append(([c.span for c in output.target_pool],
                             [c.span for c in output.opinion_pool]))
        # Free this sentence's graph before the next forward builds one.
        del output
    return result


def evaluate_model(model: SpanModel, sentences: Sequence[Sentence],
                   modes: Iterable[str] = EVAL_MODES) -> dict:
    """Triplet PRF per mode (both filter conventions) plus the term-extraction tasks.

    One forward pass per sentence feeds the triplets and, with the 3-class
    mention head, the directly extracted target and opinion spans.
    """
    scored = corpus_pass(model, sentences)
    gold = gold_triplet_sets(sentences)
    pred_keys = predictions_to_keys(scored.predictions)
    report: dict = {"triplet": {}, "triplet_gold_side_filter": {}}
    for mode in modes:
        report["triplet"][mode] = triplet_prf(gold, pred_keys, mode, "both").as_dict()
        report["triplet_gold_side_filter"][mode] = triplet_prf(
            gold, pred_keys, mode, "gold").as_dict()
    if scored.typed:
        report["mention_direct"] = {
            task: match_span_sets(_gold_spans(sentences, kind), scored.typed[kind]).as_dict()
            for task, kind in MENTION_TASKS.items()
        }
    report["mention_from_triplets"] = {
        task: mention_prf_from_triplets(scored.predictions, sentences, task).as_dict()
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
