"""Token embedding, bidirectional LSTM contextualization, and span features.

Spans are inclusive (start, end) token index pairs. Enumeration is limited
by a gap parameter: a span (i, j) is kept when j - i <= max_gap, so the
widest enumerated span covers max_gap + 1 tokens.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .errors import DataError, DimensionError, ParseError

Span = tuple[int, int]  # inclusive (start, end) token indices

UNK_TOKEN = "<unk>"

# Bucket upper bounds for span widths and pair distances: singleton buckets
# 0..4, then 5-7, 8-15, 16-31, 32-63, and 64+.
_BUCKET_UPPER = (0, 1, 2, 3, 4, 7, 15, 31, 63)
NUM_BUCKETS = len(_BUCKET_UPPER) + 1


def span_width(span: Span) -> int:
    return span[1] - span[0] + 1


def bucket_index(value: int) -> int:
    """Bucket a non-negative width or distance into one of 10 slots."""
    if value < 0:
        raise DataError(f"bucketed values must be non-negative, got {value}")
    for i, upper in enumerate(_BUCKET_UPPER):
        if value <= upper:
            return i
    return NUM_BUCKETS - 1


def enumerate_spans(n: int, max_gap: int) -> list[Span]:
    """All spans (i, j) with 0 <= i <= j < n and j - i <= max_gap, ordered by (i, j)."""
    if n < 1:
        raise DataError(f"sentence length must be >= 1, got {n}")
    if max_gap < 0:
        raise DataError(f"span gap limit must be >= 0, got {max_gap}")
    return [(i, j) for i in range(n) for j in range(i, min(i + max_gap, n - 1) + 1)]


class Vocabulary:
    """Lowercased token -> dense index map with a reserved unknown slot."""

    def __init__(self, tokens: Sequence[str]):
        if not tokens or tokens[0] != UNK_TOKEN:
            tokens = [UNK_TOKEN] + [t for t in tokens if t != UNK_TOKEN]
        self.tokens = list(tokens)
        self.index = {tok: i for i, tok in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise DataError("vocabulary contains duplicate tokens")
        self.unk_index = 0

    def __len__(self) -> int:
        return len(self.tokens)

    def lookup(self, token: str) -> int:
        return self.index.get(token.lower(), self.unk_index)

    @classmethod
    def build(cls, sentences: Iterable[Sequence[str]]) -> "Vocabulary":
        seen: dict[str, None] = {}
        for tokens in sentences:
            for tok in tokens:
                seen.setdefault(tok.lower(), None)
        return cls([UNK_TOKEN] + sorted(seen))


def load_embedding_file(path: str) -> tuple[dict[str, np.ndarray], int]:
    """Read a whitespace-separated text embedding file (token + reals per line).

    Malformed lines raise ParseError with their 1-based line number. Returns
    the token -> vector map and the (uniform) vector dimension.
    """
    vectors: dict[str, np.ndarray] = {}
    dim: int | None = None
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            if not raw.strip():
                continue
            parts = raw.split()
            if len(parts) < 2:
                raise ParseError("embedding line needs a token and at least one value",
                                 lineno)
            token = parts[0]
            try:
                vec = np.asarray([float(v) for v in parts[1:]], dtype=np.float64)
            except ValueError:
                raise ParseError(f"non-numeric embedding value for token {token!r}",
                                 lineno, column=len(token) + 2)
            if dim is None:
                dim = vec.size
            elif vec.size != dim:
                raise ParseError(
                    f"embedding width {vec.size} differs from earlier width {dim}", lineno
                )
            vectors[token.lower()] = vec
    if dim is None:
        raise ParseError("embedding file is empty", 1)
    return vectors, dim


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
    if not tokens:
        raise DataError("cannot embed an empty sentence")
    return ad.rows(table, [vocab.lookup(t) for t in tokens])


# ---------------------------------------------------------------------------
# Bidirectional LSTM
# ---------------------------------------------------------------------------

@dataclass
class LstmCellParams:
    """One direction's weights; gate order along the 4H axis is i, f, g, o."""

    w_ih: Parameter  # (input_dim, 4 * hidden)
    w_hh: Parameter  # (hidden, 4 * hidden)
    bias: Parameter  # (4 * hidden,)

    @classmethod
    def create(cls, name: str, input_dim: int, hidden: int,
               rng: np.random.Generator) -> "LstmCellParams":
        return cls(
            w_ih=Parameter(ad.xavier_init((input_dim, 4 * hidden), rng), name=f"{name}.w_ih"),
            w_hh=Parameter(ad.xavier_init((hidden, 4 * hidden), rng), name=f"{name}.w_hh"),
            bias=Parameter(np.zeros(4 * hidden), name=f"{name}.bias"),
        )

    def parameters(self) -> list[Parameter]:
        return [self.w_ih, self.w_hh, self.bias]


@dataclass
class BiLstmParams:
    forward: LstmCellParams
    backward: LstmCellParams

    @classmethod
    def create(cls, name: str, input_dim: int, hidden: int,
               rng: np.random.Generator) -> "BiLstmParams":
        return cls(
            forward=LstmCellParams.create(f"{name}.fw", input_dim, hidden, rng),
            backward=LstmCellParams.create(f"{name}.bw", input_dim, hidden, rng),
        )

    def parameters(self) -> list[Parameter]:
        return self.forward.parameters() + self.backward.parameters()


def bilstm_forward(embeddings: Tensor, params: BiLstmParams) -> Tensor:
    """Contextualize (n, E) embeddings into (n, 2H) forward;backward states.

    Both directions start from zero states and use the standard LSTM cell
    recurrence; each direction is one fused ``ad.lstm`` node.
    """
    if embeddings.ndim != 2 or embeddings.shape[0] < 1:
        raise DimensionError(f"bilstm expects a (n, E) matrix with n >= 1, got {embeddings.shape}")
    fw, bw = params.forward, params.backward
    return ad.concat([ad.lstm(embeddings, fw.w_ih, fw.w_hh, fw.bias),
                      ad.lstm(embeddings, bw.w_ih, bw.w_hh, bw.bias, reverse=True)],
                     axis=1)


# ---------------------------------------------------------------------------
# Span representations
# ---------------------------------------------------------------------------

SPAN_MODES = ("boundary", "max_pool", "mean_pool")


def span_representation(h: Tensor, span: Span, mode: str,
                        width_table: Parameter | None) -> Tensor:
    """Vector for one span from the (n, 2H) hidden states.

    boundary mode concatenates the start and end rows; the pooling modes
    replace that pair with an elementwise max/mean over the span's rows.
    The bucketed width embedding is appended unless ``width_table`` is None.
    """
    i, j = span
    n = h.shape[0]
    if not (0 <= i <= j < n):
        raise IndexError(f"span {span} out of range for sentence length {n}")
    if mode == "boundary":
        core = [ad.row(h, i), ad.row(h, j)]
    elif mode == "max_pool":
        core = [ad.reduce_max(ad.narrow(h, i, j + 1), axis=0)]
    elif mode == "mean_pool":
        core = [ad.reduce_mean(ad.narrow(h, i, j + 1), axis=0)]
    else:
        raise DataError(f"unknown span mode {mode!r}; expected one of {SPAN_MODES}")
    if width_table is not None:
        core.append(ad.row(width_table, bucket_index(span_width(span))))
    return core[0] if len(core) == 1 else ad.concat(core, axis=0)


def span_representation_matrix(h: Tensor, spans: Sequence[Span], mode: str,
                               width_table: Parameter | None) -> Tensor:
    """(S, D) matrix of span vectors; boundary mode is built with batched gathers."""
    if mode == "boundary":
        parts = [ad.rows(h, [s[0] for s in spans]), ad.rows(h, [s[1] for s in spans])]
        if width_table is not None:
            parts.append(ad.rows(width_table,
                                 [bucket_index(span_width(s)) for s in spans]))
        return ad.concat(parts, axis=1)
    return ad.stack([span_representation(h, s, mode, width_table) for s in spans],
                    axis=0)
