"""The span-pair sentiment extraction model.

One forward pass over a sentence: embed tokens, contextualize with the
BiLSTM, build a vector per enumerated span, score mention types, keep the
top-k target and opinion candidates, and classify every target-opinion
pair over four relation classes. The graph is rebuilt per sentence.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, fields
from typing import Sequence

import numpy as np

from . import autodiff as ad
from . import encoder as enc
from . import pruning
from .autodiff import FeedForward, Parameter, Tensor
from .data import load_checkpoint, restore_parameters, save_checkpoint
from .encoder import Span, Vocabulary
from .errors import CheckpointError, ConfigurationError, DataError
from .pruning import SpanCandidate
from .triplet import RELATION_CLASSES, TripletPrediction, decode_triplets, pair_distance_buckets


def has_kind(value, annotation: str) -> bool:
    """Whether ``value`` fits a config field annotated ``annotation``.

    int takes any Integral and float any Real, so numpy scalars pass, but
    neither takes a bool; ``tuple[T, ...]`` takes a non-empty list or tuple of T.
    """
    if annotation.startswith("tuple["):
        return (isinstance(value, (list, tuple)) and len(value) > 0
                and all(has_kind(v, annotation[6:-6]) for v in value))
    kind = {"int": numbers.Integral, "float": numbers.Real, "bool": bool, "str": str}[annotation]
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def check_field_types(config) -> None:
    """Raise ConfigurationError unless every field of ``config`` fits its annotation."""
    for f in fields(config):
        value = getattr(config, f.name)
        if not has_kind(value, f.type):
            raise ConfigurationError(f"{f.name} must be {f.type}, got {value!r}")


def check_distinct(name: str, values) -> None:
    """Raise ConfigurationError naming ``name`` if any of ``values`` repeats."""
    if repeated := sorted({v for v in values if values.count(v) > 1}):
        raise ConfigurationError(f"{name} given more than once: {repeated}")


def config_from_dict(cls, raw):
    """Build the config dataclass ``cls`` from a JSON object; every key must be a field."""
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{cls.__name__} settings must be a JSON object, got {raw!r}")
    unknown = sorted(set(raw) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigurationError(f"unknown {cls.__name__} fields: {unknown}")
    return cls(**raw)


@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters; defaults are the reference configuration.

    ``max_span_gap`` bounds end - start, so enumerated spans cover at most
    ``max_span_gap + 1`` tokens. ``lstm_hidden`` is per direction.
    """

    embedding_dim: int = 300
    lstm_hidden: int = 300
    lstm_dropout: float = 0.5
    ffnn_hidden: int = 150
    ffnn_layers: int = 2
    ffnn_dropout: float = 0.4
    max_span_gap: int = 8
    width_dim: int = 20
    distance_dim: int = 128
    span_mode: str = "boundary"
    use_width_distance: bool = True
    z: float = 0.5
    channel_mode: str = "dual"

    def __post_init__(self) -> None:
        check_field_types(self)
        for name in ("embedding_dim", "lstm_hidden", "ffnn_hidden", "ffnn_layers",
                     "width_dim", "distance_dim"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be positive, got {getattr(self, name)}")
        if self.max_span_gap < 0:
            raise ConfigurationError(f"max_span_gap must be >= 0, got {self.max_span_gap}")
        for name in ("lstm_dropout", "ffnn_dropout"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if self.span_mode not in enc.SPAN_MODES:
            raise ConfigurationError(
                f"span_mode must be one of {enc.SPAN_MODES}, got {self.span_mode!r}")
        if self.channel_mode not in pruning.CHANNEL_MODES:
            raise ConfigurationError(
                f"channel_mode must be one of {pruning.CHANNEL_MODES}, got {self.channel_mode!r}")
        if not 0 < self.z < math.inf:
            raise ConfigurationError(f"z must be positive and finite, got {self.z}")

    @property
    def span_vector_dim(self) -> int:
        core = 2 * self.lstm_hidden
        if self.span_mode == "boundary":
            core *= 2
        return core + (self.width_dim if self.use_width_distance else 0)

    @property
    def pair_vector_dim(self) -> int:
        return 2 * self.span_vector_dim + (self.distance_dim if self.use_width_distance else 0)

    @property
    def mention_classes(self) -> tuple[str, ...]:
        return (pruning.MENTION_CLASSES if self.channel_mode == "dual"
                else pruning.SINGLE_CHANNEL_CLASSES)


@dataclass
class SentenceOutput:
    """Everything one forward pass produced for a sentence.

    ``pairs`` is target-major: with ``ko = len(opinion_pool)``,
    ``pairs[a * ko + b]`` is ``(target_pool[a], opinion_pool[b])``, and row
    ``a * ko + b`` of the pair matrix and of ``relation_probs`` scores it.
    """

    tokens: list[str]
    spans: list[Span]
    span_reps: Tensor                 # (S, D)
    mention_logits: Tensor            # (S, C)
    mention_probs: np.ndarray         # (S, C), detached
    candidates: list[SpanCandidate]
    target_pool: list[SpanCandidate]
    opinion_pool: list[SpanCandidate]
    pairs: list[tuple[SpanCandidate, SpanCandidate]]
    relation_logits: Tensor           # (P, 4)
    relation_probs: np.ndarray        # (P, 4), detached

    @property
    def pair_spans(self) -> list[tuple[Span, Span]]:
        return [(t.span, o.span) for t, o in self.pairs]

    def argmax_spans(self, label: int) -> set[Span]:
        """Enumerated spans whose mention argmax is the class ``label``."""
        winners = self.mention_probs.argmax(axis=1)
        return {self.spans[i] for i in np.flatnonzero(winners == label).tolist()}


class _Unfilled:
    """An init-generator stand-in whose draws are uninitialised arrays, for a checkpoint to fill."""

    @staticmethod
    def normal(loc: float, scale: float, size) -> np.ndarray:
        return np.empty(size)


class SpanModel:
    """Owns the parameters and runs per-sentence forward passes."""

    def __init__(self, config: ModelConfig, vocab: Vocabulary, seed: int = 0,
                 pretrained_embeddings: dict[str, np.ndarray] | None = None):
        self._build(config, vocab, np.random.default_rng(seed), pretrained_embeddings)

    def _build(self, config: ModelConfig, vocab: Vocabulary, init_rng,
               pretrained_embeddings: dict[str, np.ndarray] | None = None) -> None:
        """Create every parameter, drawing its initial values from ``init_rng`` in order."""
        self.config = config
        self.vocab = vocab
        self.embedding = Parameter(
            enc.build_embedding_table(vocab, config.embedding_dim, init_rng,
                                      pretrained_embeddings),
            name="embedding.table")
        self.lstm = enc.lstm_parameters("lstm", config.embedding_dim, config.lstm_hidden,
                                        init_rng)
        if config.use_width_distance:
            self.width_table = Parameter(
                init_rng.normal(0.0, 1.0, size=(enc.NUM_BUCKETS, config.width_dim)),
                name="width.table")
            self.distance_table = Parameter(
                init_rng.normal(0.0, 1.0, size=(enc.NUM_BUCKETS, config.distance_dim)),
                name="distance.table")
        else:
            self.width_table = None
            self.distance_table = None
        self.mention_ffnn = FeedForward.create(
            "mention", config.span_vector_dim, len(config.mention_classes),
            hidden_dim=config.ffnn_hidden, hidden_layers=config.ffnn_layers,
            dropout_p=config.ffnn_dropout, rng=init_rng)
        self.relation_ffnn = FeedForward.create(
            "relation", config.pair_vector_dim, len(RELATION_CLASSES),
            hidden_dim=config.ffnn_hidden, hidden_layers=config.ffnn_layers,
            dropout_p=config.ffnn_dropout, rng=init_rng)

    def parameters(self) -> list[Parameter]:
        params = [self.embedding, *self.lstm[0], *self.lstm[1]]
        if self.width_table is not None:
            params += [self.width_table, self.distance_table]
        return params + self.mention_ffnn.parameters() + self.relation_ffnn.parameters()

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # -- forward ------------------------------------------------------------

    def forward(self, tokens: Sequence[str], *, training: bool = False,
                rng: np.random.Generator | None = None,
                pools: tuple[Sequence[int], Sequence[int]] | None = None) -> SentenceOutput:
        """Run the full pipeline on one sentence.

        ``pools`` optionally pins the candidate pools to fixed enumeration
        indices, bypassing score-based pruning; gradient checks use it to
        hold the selection constant. Each pool's indices must be distinct
        and lie in ``range(len(spans))``, so every scored pair is distinct.
        A training forward needs ``rng`` when a dropout rate is above 0;
        ``ad.dropout`` raises a TrainingStateError without it.
        """
        tokens = list(tokens)
        config = self.config
        n = len(tokens)
        spans = enc.enumerate_spans(n, config.max_span_gap)

        embedded = enc.embed_tokens(tokens, self.vocab, self.embedding)
        embedded = ad.dropout(embedded, config.lstm_dropout, rng, training)
        hidden = enc.bilstm_forward(embedded, self.lstm)
        hidden = ad.dropout(hidden, config.lstm_dropout, rng, training)

        reps = enc.span_representation_matrix(hidden, spans, config.span_mode,
                                              self.width_table)
        mention_logits = self.mention_ffnn(reps, training=training, rng=rng)
        mention_probs = ad.softmax_probabilities(mention_logits.data)

        candidates = [
            SpanCandidate(span, i, tuple(probs))
            for i, (span, probs) in enumerate(zip(spans, mention_probs.tolist()))
        ]
        if pools is not None:
            for pool in pools:
                for i in pool:
                    if not 0 <= i < len(candidates):
                        raise IndexError(f"pinned pool index {i} is outside the enumeration "
                                         f"of {len(candidates)} spans")
                if len(set(pool)) != len(pool):
                    raise IndexError(f"pinned pool {list(pool)} repeats an index")
            target_pool = [candidates[i] for i in pools[0]]
            opinion_pool = [candidates[i] for i in pools[1]]
        elif config.channel_mode == "dual":
            target_pool, opinion_pool = pruning.prune_dual_channel(candidates, n, config.z)
        else:
            pool = pruning.prune_single_channel(candidates, n, config.z)
            target_pool, opinion_pool = pool, pool

        pairs = [(t, o) for t in target_pool for o in opinion_pool]
        buckets = None
        if self.distance_table is not None:
            buckets = pair_distance_buckets([t.span for t in target_pool],
                                            [o.span for o in opinion_pool])
        ffnn = self.relation_ffnn
        layer0 = ad.pair_linear(reps, [t.index for t in target_pool],
                                [o.index for o in opinion_pool], self.distance_table,
                                buckets, ffnn.weights[0], ffnn.biases[0])
        relation_logits = ffnn.from_layer0(layer0, training=training, rng=rng)
        relation_probs = ad.softmax_probabilities(relation_logits.data)

        return SentenceOutput(
            tokens=tokens, spans=spans, span_reps=reps,
            mention_logits=mention_logits, mention_probs=mention_probs,
            candidates=candidates, target_pool=target_pool, opinion_pool=opinion_pool,
            pairs=pairs, relation_logits=relation_logits, relation_probs=relation_probs,
        )

    # -- inference ----------------------------------------------------------

    def predict(self, tokens: Sequence[str]) -> list[TripletPrediction]:
        output = self.forward(tokens)
        return decode_triplets(output.pair_spans, output.relation_probs)

    # -- persistence ----------------------------------------------------------

    def save(self, path: str, extra_meta: dict | None = None) -> None:
        meta = {
            "config": asdict(self.config),
            "vocab": self.vocab.tokens,
        }
        if extra_meta:
            meta.update(extra_meta)
        save_checkpoint(path, self.parameters(), meta)

    @classmethod
    def load(cls, path: str) -> "SpanModel":
        """The model a checkpoint holds; its weights are the arrays read from the file.

        The parameters are built unfilled and then take the checkpoint's
        arrays, so a load draws no initial values and keeps no second copy.
        """
        arrays, meta = load_checkpoint(path)
        if "config" not in meta or "vocab" not in meta:
            raise CheckpointError(f"{path}: checkpoint lacks model config or vocabulary")
        try:
            config = config_from_dict(ModelConfig, meta["config"])
        except ConfigurationError as exc:
            raise CheckpointError(f"{path}: stored model config is invalid: {exc}") from exc
        try:
            vocab = Vocabulary(meta["vocab"])
        except DataError as exc:
            raise CheckpointError(f"{path}: stored vocab is invalid: {exc}") from exc
        model = cls.__new__(cls)
        model._build(config, vocab, _Unfilled())
        restore_parameters(model.parameters(), arrays)
        return model

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {p.name: p.data.copy() for p in self.parameters()}

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Set the parameters to copies of ``arrays``, which stay the caller's.

        Whoever keeps an array copies it; training updates the parameters in place."""
        restore_parameters(self.parameters(), {name: a.copy() for name, a in arrays.items()})
