"""Vocabulary, embedding table, bidirectional LSTM, span features and buckets.

Spans are inclusive (start, end) token index pairs. Enumeration is limited
by a gap parameter: a span (i, j) is kept when j - i <= max_gap, so the
widest enumerated span covers max_gap + 1 tokens.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .errors import DataError, DimensionError

Span = tuple[int, int]  # inclusive (start, end) token indices

UNK_TOKEN = "<unk>"

# Bucket upper bounds for span widths and pair distances: singleton buckets
# 0..4, then 5-7, 8-15, 16-31, 32-63, and 64+.
BUCKET_UPPER = (0, 1, 2, 3, 4, 7, 15, 31, 63)
NUM_BUCKETS = len(BUCKET_UPPER) + 1


def span_width(span: Span) -> int:
    return span[1] - span[0] + 1


def bucket_indices(values) -> np.ndarray:
    """Bucket non-negative widths or distances, elementwise, into one of 10 slots.

    A value's bucket is the first slot whose upper bound is at least the value.
    """
    return np.searchsorted(BUCKET_UPPER, values)


def enumerate_spans(n: int, max_gap: int) -> list[Span]:
    """All spans (i, j) with 0 <= i <= j < n and j - i <= max_gap, ordered by (i, j).

    This is the pipeline's one empty-sentence check: ``SpanModel.forward``
    calls it before any layer runs.
    """
    if n < 1:
        raise DataError(f"sentence length must be >= 1, got {n}")
    return [(i, j) for i in range(n) for j in range(i, min(i + max_gap, n - 1) + 1)]


class Vocabulary:
    """Lowercased token -> dense index map with a reserved unknown slot."""

    def __init__(self, tokens: list[str]):
        """Token ``i`` of ``tokens`` is embedding row ``i``; row 0 must be ``UNK_TOKEN``."""
        if not (isinstance(tokens, list) and all(isinstance(t, str) for t in tokens)
                and tokens[:1] == [UNK_TOKEN]):
            raise DataError(f"a vocabulary must be a list of strings starting with {UNK_TOKEN!r}")
        self.tokens = list(tokens)
        self.index = {tok: i for i, tok in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise DataError("vocabulary contains duplicate tokens")

    def __len__(self) -> int:
        return len(self.tokens)

    def lookup(self, token: str) -> int:
        return self.index.get(token.lower(), 0)  # row 0 is UNK_TOKEN

    @classmethod
    def build(cls, sentences: Iterable[Sequence[str]]) -> "Vocabulary":
        seen = {tok.lower() for tokens in sentences for tok in tokens}
        # A corpus token that lowercases to UNK_TOKEN maps to the unknown row.
        return cls([UNK_TOKEN] + sorted(seen - {UNK_TOKEN}))


def build_embedding_table(vocab: Vocabulary, dim: int, rng: np.random.Generator,
                          pretrained: dict[str, np.ndarray] | None = None) -> np.ndarray:
    """Initial embedding matrix: pretrained rows where available, seeded normal otherwise."""
    table = rng.normal(0.0, 1.0, size=(len(vocab), dim))
    if pretrained:
        for token, i in vocab.index.items():
            vec = pretrained.get(token)
            if vec is not None:
                if vec.size != dim:
                    raise DimensionError(
                        f"pretrained vector for {token!r} has width {vec.size}, expected {dim}"
                    )
                table[i] = vec
    return table


def embed_tokens(tokens: Sequence[str], vocab: Vocabulary, table: Parameter) -> Tensor:
    """Row-per-token embedding lookup; unknown tokens map to the unk row."""
    return ad.rows(table, [vocab.lookup(t) for t in tokens])


# ---------------------------------------------------------------------------
# Bidirectional LSTM
# ---------------------------------------------------------------------------

LstmCell = tuple[Parameter, Parameter, Parameter]  # (w_ih, w_hh, bias)


def lstm_parameters(name: str, input_dim: int, hidden: int,
                    rng: np.random.Generator) -> tuple[LstmCell, LstmCell]:
    """The forward and backward directions' ``(w_ih, w_hh, bias)``, named ``{name}.fw.w_ih`` etc.

    ``w_ih`` is (input_dim, 4H), ``w_hh`` (H, 4H) and ``bias`` (4H,), with
    the gates in the order i, f, g, o along the 4H axis. The forward
    direction draws first, ``w_ih`` before ``w_hh``; biases start at zero.
    """
    return tuple(
        (Parameter(ad.xavier_init((input_dim, 4 * hidden), rng), name=f"{name}.{d}.w_ih"),
         Parameter(ad.xavier_init((hidden, 4 * hidden), rng), name=f"{name}.{d}.w_hh"),
         Parameter(np.zeros(4 * hidden), name=f"{name}.{d}.bias"))
        for d in ("fw", "bw"))


def bilstm_forward(embeddings: Tensor, lstm: tuple[LstmCell, LstmCell]) -> Tensor:
    """Contextualize (n, E) embeddings into (n, 2H) forward;backward states.

    Both directions start from zero states and use the standard LSTM cell
    recurrence; together they are one fused ``ad.bilstm`` node.
    """
    return ad.bilstm(embeddings, *lstm)


# ---------------------------------------------------------------------------
# Span representations
# ---------------------------------------------------------------------------

SPAN_MODES = ("boundary", "max_pool", "mean_pool")


def span_representation_matrix(h: Tensor, spans: Sequence[Span], mode: str,
                               width_table: Parameter | None) -> Tensor:
    """(S, D) matrix of span vectors from the (n, 2H) hidden states.

    boundary mode concatenates the start and end rows; the pooling modes
    replace that pair with an elementwise max/mean over the span's rows,
    one ``ad.span_pool`` node for all spans. The bucketed width embedding is
    appended unless ``width_table`` is None. ``mode`` is one of
    ``SPAN_MODES``, as ``ModelConfig`` checks, and the spans come from
    ``enumerate_spans``, so each has start <= end.
    """
    bounds = np.asarray(spans, dtype=np.intp).reshape(-1, 2)
    starts, ends = bounds[:, 0], bounds[:, 1]
    if mode == "boundary":
        parts = [ad.rows(h, starts), ad.rows(h, ends)]
    else:
        parts = [ad.span_pool(h, starts, ends, mode.removesuffix("_pool"))]
    if width_table is not None:
        parts.append(ad.rows(width_table, bucket_indices(ends - starts + 1)))
    return parts[0] if len(parts) == 1 else ad.concat(parts, axis=1)
