"""Every file the package reads or writes, and the corpus format, statistics and fixtures.

A corpus file holds one sentence per line::

    It is great .####[([0], [2], 'POS')]

The text before ``####`` is pre-tokenized (whitespace split); the literal
after it lists (target indices, opinion indices, sentiment tag) tuples.
Index lists must describe contiguous token runs; they are normalized to
sorted order on parse. Prediction files reuse the identical syntax, so
gold and predicted corpora are interchangeable evaluator inputs.

An embedding file holds a token and its reals per line. A checkpoint is an
``.npz`` file: a ``__format__`` tag, the JSON ``__meta__`` and one ``param/<name>``
array per parameter. No other module opens, makes or replaces a file. Line files
are read by ``_parse_file``, whose errors name the file, and every file is
written by ``atomic_write``, a temp file renamed onto the target once full.
"""

from __future__ import annotations

import ast
import json
import os
import re
import tempfile
import zipfile
from dataclasses import dataclass, field
from typing import IO, Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .autodiff import Parameter
from .encoder import Span, span_width
from .errors import CheckpointError, ConfigurationError, DataError, ParseError
from .triplet import SENTIMENT_TAGS

SEPARATOR = "####"
T = TypeVar("T")


@dataclass(frozen=True)
class GoldTriplet:
    target: Span
    opinion: Span
    sentiment: str


@dataclass
class Sentence:
    id: int
    tokens: list[str]
    triplets: list[GoldTriplet] = field(default_factory=list)

    def triplet_keys(self) -> set[tuple[Span, Span, str]]:
        return {(t.target, t.opinion, t.sentiment) for t in self.triplets}

    def target_spans(self) -> set[Span]:
        return {t.target for t in self.triplets}

    def opinion_spans(self) -> set[Span]:
        return {t.opinion for t in self.triplets}


def _indices_to_span(indices, what: str, n_tokens: int, line: int, column: int) -> Span:
    if not isinstance(indices, list) or not indices:
        raise ParseError(f"{what} index list must be a non-empty list", line, column)
    if not all(isinstance(i, int) and not isinstance(i, bool) for i in indices):
        raise ParseError(f"{what} indices must be integers, got {indices!r}", line, column)
    ordered = sorted(indices)
    if any(i < 0 or i >= n_tokens for i in ordered):
        raise ParseError(
            f"{what} index out of range for {n_tokens} tokens: {ordered}", line, column
        )
    if ordered != list(range(ordered[0], ordered[-1] + 1)):
        raise ParseError(f"{what} indices are not contiguous: {ordered}", line, column)
    return (ordered[0], ordered[-1])


def parse_dataset_line(raw: str, sentence_id: int = 0, line: int = 1) -> Sentence:
    """Parse one corpus line; ParseError carries the line and column."""
    raw = raw.rstrip("\n")
    text, sep, literal = raw.partition(SEPARATOR)
    if not sep:
        raise ParseError(f"missing {SEPARATOR!r} separator", line, column=len(raw) + 1)
    tokens = text.split()
    if not tokens:
        raise ParseError("sentence has no tokens", line)
    literal_col = len(text) + len(SEPARATOR) + 1
    try:
        parsed = ast.literal_eval(literal)
    # TypeError: an unhashable set item or key; the last two: nesting too deep to parse.
    except (SyntaxError, ValueError, TypeError, RecursionError, MemoryError) as exc:
        offset = getattr(exc, "offset", None) or 1
        raise ParseError(f"malformed triplet literal: {literal.strip()!r}",
                         line, column=literal_col + offset - 1) from exc
    if not isinstance(parsed, list):
        raise ParseError("triplet annotation must be a list", line, column=literal_col)
    triplets = []
    for entry in parsed:
        if not isinstance(entry, tuple) or len(entry) != 3:
            raise ParseError(f"triplet must be a 3-tuple, got {entry!r}",
                             line, column=literal_col)
        target_ix, opinion_ix, tag = entry
        target = _indices_to_span(target_ix, "target", len(tokens), line, literal_col)
        opinion = _indices_to_span(opinion_ix, "opinion", len(tokens), line, literal_col)
        if tag not in SENTIMENT_TAGS:
            raise ParseError(f"unknown sentiment tag {tag!r}", line, column=literal_col)
        triplets.append(GoldTriplet(target, opinion, tag))
    return Sentence(sentence_id, tokens, triplets)


def serialize_sentence(sentence: Sentence) -> str:
    """Emit the canonical corpus line; parse(serialize(s)) == s."""
    for token in sentence.tokens:
        if not token or token.split() != [token] or SEPARATOR in token:
            raise DataError(f"token {token!r} cannot round-trip the line format")
    annotated = [
        (list(range(t.target[0], t.target[1] + 1)),
         list(range(t.opinion[0], t.opinion[1] + 1)),
         t.sentiment)
        for t in sentence.triplets
    ]
    return " ".join(sentence.tokens) + SEPARATOR + repr(annotated)


def _parse_file(path: str, parse: Callable[[Iterator[tuple[int, str]]], T]) -> T:
    """``parse`` run over (1-based line number, line) of each non-blank line of a UTF-8 file.

    A file that cannot be opened or decoded raises a DataError naming it,
    and a ParseError from ``parse`` gets the path put in front of its message.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse((lineno, raw) for lineno, raw in enumerate(handle, start=1)
                         if raw.strip())
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from exc
    except ParseError as exc:
        raise exc.in_file(path)


def load_corpus(path: str) -> list[Sentence]:
    """Read a corpus file; sentence ids are 0-based ordinals of the non-blank lines."""
    return _parse_file(path, lambda lines: [parse_dataset_line(raw, sentence_id=i, line=lineno)
                                            for i, (lineno, raw) in enumerate(lines)])


def load_embedding_file(path: str) -> tuple[dict[str, np.ndarray], int]:
    """The lowercased token -> vector map of a text embedding file, and the vectors' width."""
    return _parse_file(path, _parse_embedding_lines)


def _parse_embedding_lines(lines: Iterable[tuple[int, str]]) -> tuple[dict[str, np.ndarray], int]:
    vectors: dict[str, np.ndarray] = {}
    dim: int | None = None
    for lineno, raw in lines:
        parts = raw.split()
        if len(parts) < 2:
            raise ParseError("embedding line needs a token and at least one value", lineno)
        token = parts[0]
        try:
            if not all(v.isascii() and "_" not in v for v in parts[1:]):  # float takes "1_0"
                raise ValueError
            vec = np.asarray([float(v) for v in parts[1:]], dtype=np.float64)
        except ValueError:
            raise ParseError(f"non-numeric embedding value for token {token!r}",
                             lineno, column=len(token) + 2)
        if not np.isfinite(vec).all():
            bad = 1 + int(np.argmin(np.isfinite(vec)))
            column = [m.start() + 1 for m in re.finditer(r"\S+", raw)][bad]
            raise ParseError(f"non-finite embedding value {parts[bad]!r}", lineno, column)
        if dim is None:
            dim = vec.size
        elif vec.size != dim:
            raise ParseError(f"embedding width {vec.size} differs from earlier width {dim}",
                             lineno)
        # A cased file may list several casings of one word: the lowercase
        # entry keeps its own vector, and otherwise the first casing wins.
        key = token.lower()
        if token == key or key not in vectors:
            vectors[key] = vec
    if dim is None:
        raise ParseError("embedding file is empty", 1)
    return vectors, dim


def load_config_file(path: str | None) -> dict:
    """The JSON object a ``--config`` file holds, or ``{}`` without one."""
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8 or not JSON
        raise ConfigurationError(f"cannot read config file {path}: {exc}")
    if not isinstance(raw, dict):
        raise ConfigurationError(f"config file {path} must hold a JSON object")
    return raw


def find_benchmark_split(roots: Iterable[str], dataset: str, split: str) -> str | None:
    """Path of a released benchmark split under the first root that has it, else None.

    Accepts the layouts <root>/<dataset>/<split>_triplets.txt and
    <root>/<dataset>/<split>.txt, with the dataset spelled e.g. rest14, 14rest
    or 14res: the domain whole or cut to three letters, on either side of the number.
    ASTE-Data-V1 and V2 spell the same dataset differently, so when two
    directories under one root hold the split, a DataError names them both.
    """
    number, domain = dataset[-2:], dataset[:-2]
    names = {f"{a}{b}" for d in (domain, domain[:3]) for a, b in ((d, number), (number, d))}
    for root in roots:
        if not os.path.isdir(root):
            continue
        found = []
        for entry in sorted(os.listdir(root)):
            if entry.lower().replace("_", "").replace("-", "") not in names:
                continue
            for filename in (f"{split}_triplets.txt", f"{split}.txt"):
                path = os.path.join(root, entry, filename)
                if os.path.exists(path):
                    found.append(path)
                    break
        if len(found) > 1:
            raise DataError(f"{dataset} {split}: more than one candidate under {root}: "
                            f"{', '.join(found)}")
        if found:
            return found[0]
    return None


def output_directory(path: str) -> str:
    """The directory a file at ``path`` goes into.

    A DataError naming ``path`` if it is empty, if that directory is absent
    or if ``path`` is a directory itself.
    """
    if not path:
        raise DataError("cannot write to an empty path")
    if os.path.isdir(path):
        raise DataError(f"cannot write {path}: it is a directory")
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise DataError(f"cannot write {path}: no directory {directory}")
    return directory


def check_out_dir(path: str) -> None:
    """Fail now if making directory ``path`` later is bound to: it is empty or under a file."""
    if not path:
        raise DataError("cannot create an output directory at an empty path")
    ancestor = path
    while ancestor and not os.path.exists(ancestor):
        ancestor = os.path.dirname(ancestor)
    if ancestor and not os.path.isdir(ancestor):
        raise DataError(
            f"cannot create output directory {path!r}: {ancestor} is not a directory")


def make_out_dir(path: str) -> None:
    """Make directory ``path`` and its parents; a DataError names ``path`` if that fails."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create output directory {path!r}: {exc.strerror}") from exc


def atomic_write(path: str, fill: Callable[[IO[bytes]], object]) -> None:
    """Let ``fill`` stream bytes into a temp file beside ``path``, then rename it onto ``path``.

    The file gets the mode a plain ``open`` gives a new file, 0666 less the
    umask, rather than ``mkstemp``'s 0600.
    """
    directory = output_directory(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror}") from exc
    try:
        with os.fdopen(fd, "wb") as handle:
            umask = os.umask(0)  # the umask can only be read by setting it
            os.umask(umask)
            os.fchmod(handle.fileno(), 0o666 & ~umask)
            fill(handle)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, content: str) -> None:
    atomic_write(path, lambda handle: handle.write(content.encode("utf-8")))


def write_corpus(path: str, sentences: Iterable[Sentence]) -> None:
    atomic_write_text(path, "".join(serialize_sentence(s) + "\n" for s in sentences))


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_FORMAT = "spantriplet-checkpoint-v1"


def save_checkpoint(path: str, params: Iterable[Parameter],
                    meta: dict | None = None) -> None:
    """Write parameters (name -> shape -> values) plus JSON metadata as a tagged ``.npz`` file."""
    arrays: dict[str, np.ndarray] = {"__format__": np.array(CHECKPOINT_FORMAT)}
    if meta is not None:
        arrays["__meta__"] = np.array(json.dumps(meta))
    for p in params:
        key = "param/" + p.name
        if key in arrays:
            raise CheckpointError(f"duplicate parameter name {p.name!r}")
        arrays[key] = p.data
    atomic_write(path, lambda handle: np.savez(handle, **arrays))


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint; returns (name -> array, metadata).

    Every parameter must hold finite reals: a NaN weight would only give
    NaN probabilities, which decoding reads as confident predictions.
    """
    try:
        with np.load(path, allow_pickle=False) as npz:
            names = set(npz.files)
            if "__format__" not in names:
                raise CheckpointError(f"{path}: missing format tag, not a checkpoint")
            tag = str(npz["__format__"][()])
            if tag != CHECKPOINT_FORMAT:
                raise CheckpointError(f"{path}: unsupported format {tag!r}")
            meta = json.loads(str(npz["__meta__"][()])) if "__meta__" in names else {}
            arrays = {
                name[len("param/"):]: npz[name]
                for name in names if name.startswith("param/")
            }
    except CheckpointError:  # a ValueError too, but already names what is wrong
        raise
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise CheckpointError(f"{path}: unreadable checkpoint ({exc})") from exc
    for name, arr in arrays.items():
        if arr.dtype.kind not in "biuf" or not np.isfinite(arr).all():
            raise CheckpointError(f"{path}: parameter {name!r} holds a non-finite "
                                  "or non-real value")
    return arrays, meta


def restore_parameters(params: Iterable[Parameter],
                       arrays: dict[str, np.ndarray]) -> None:
    """Make each checkpoint array its parameter's data, validating every name and shape.

    The parameters take ownership: a float64 array becomes the data as it
    is, and any other real array is converted to a float64 copy. Whoever
    keeps an array copies it, so a caller that keeps ``arrays`` passes copies.
    """
    params = list(params)
    expected = {p.name for p in params}
    for name in arrays:
        if name not in expected:
            raise CheckpointError(f"checkpoint has unexpected parameter {name!r}")
    for p in params:
        if p.name not in arrays:
            raise CheckpointError(f"checkpoint is missing parameter {p.name!r}")
        arr = arrays[p.name]
        if tuple(arr.shape) != p.shape:
            raise CheckpointError(
                f"parameter {p.name!r}: checkpoint shape {tuple(arr.shape)} != model shape {p.shape}"
            )
        p.data = arr.astype(np.float64, copy=False)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DatasetStats:
    """Corpus-level counts.

    single_word counts triplets whose target and opinion are both one
    token wide; multi_word counts the rest. Term counts come in two
    flavors because the dedup rule is ambiguous: *_unique deduplicates
    spans within a sentence, *_total counts every triplet occurrence.
    """

    sentences: int
    triplets: int
    positive: int
    neutral: int
    negative: int
    single_word: int
    multi_word: int
    targets_unique: int
    opinions_unique: int
    targets_total: int
    opinions_total: int


def dataset_stats(sentences: Sequence[Sentence]) -> DatasetStats:
    by_tag = {tag: 0 for tag in SENTIMENT_TAGS}
    sw = mw = 0
    targets_unique = opinions_unique = targets_total = opinions_total = 0
    n_triplets = 0
    for sentence in sentences:
        for t in sentence.triplets:
            n_triplets += 1
            by_tag[t.sentiment] += 1
            if span_width(t.target) == 1 and span_width(t.opinion) == 1:
                sw += 1
            else:
                mw += 1
        targets_unique += len(sentence.target_spans())
        opinions_unique += len(sentence.opinion_spans())
        targets_total += len(sentence.triplets)
        opinions_total += len(sentence.triplets)
    return DatasetStats(
        sentences=len(sentences),
        triplets=n_triplets,
        positive=by_tag["POS"],
        neutral=by_tag["NEU"],
        negative=by_tag["NEG"],
        single_word=sw,
        multi_word=mw,
        targets_unique=targets_unique,
        opinions_unique=opinions_unique,
        targets_total=targets_total,
        opinions_total=opinions_total,
    )


def format_stats_table(stats_by_split: dict[str, DatasetStats]) -> str:
    """Aligned plain-text table, one row per split."""
    columns = ["split", "#S", "#triplets", "#POS", "#NEU", "#NEG", "#SW", "#MW",
               "#target(uniq)", "#opinion(uniq)", "#target(all)", "#opinion(all)"]
    rows = [columns]
    for name, s in stats_by_split.items():
        rows.append([name, str(s.sentences), str(s.triplets), str(s.positive),
                     str(s.neutral), str(s.negative), str(s.single_word),
                     str(s.multi_word), str(s.targets_unique), str(s.opinions_unique),
                     str(s.targets_total), str(s.opinions_total)])
    widths = [max(len(r[i]) for r in rows) for i in range(len(columns))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Synthetic fixtures
# ---------------------------------------------------------------------------

_SINGLE_TARGETS = ["battery", "screen", "keyboard", "pizza", "service",
                   "coffee", "menu", "staff", "laptop", "wine"]
_MULTI_TARGETS = [("battery", "life"), ("wine", "list"), ("touch", "pad"),
                  ("hard", "drive"), ("front", "desk")]
_SINGLE_OPINIONS = {
    "POS": ["great", "amazing", "tasty", "friendly", "fast"],
    "NEG": ["terrible", "awful", "slow", "rude", "bland"],
    "NEU": ["average", "ordinary", "standard"],
}
_MULTI_OPINIONS = {
    "POS": [("very", "good"), ("super", "nice")],
    "NEG": [("not", "good"), ("too", "noisy")],
    "NEU": [("fairly", "plain"), ("rather", "typical")],
}
_EMPTY_SENTENCES = [
    "we walked to the store .",
    "they arrived after lunch on monday .",
    "the talk started at noon .",
    "she parked near the corner .",
    "he read until the evening .",
]


def make_fixture(rng: np.random.Generator, size: int) -> list[Sentence]:
    """Deterministic synthetic corpus with planted triplets.

    Cycles through five sentence shapes so any size >= 5 covers
    single-word, multi-word target, multi-word opinion, shared-opinion
    (one opinion paired with two targets), and zero-triplet cases.
    """
    if size < 1:
        raise DataError(f"fixture size must be >= 1, got {size}")
    tags = list(SENTIMENT_TAGS)
    sentences = []
    for idx in range(size):
        shape = idx % 5
        tag = tags[int(rng.integers(len(tags)))]
        if shape == 0:
            noun = _SINGLE_TARGETS[int(rng.integers(len(_SINGLE_TARGETS)))]
            adj = _SINGLE_OPINIONS[tag][int(rng.integers(len(_SINGLE_OPINIONS[tag])))]
            tokens = ["the", noun, "is", adj, "."]
            triplets = [GoldTriplet((1, 1), (3, 3), tag)]
        elif shape == 1:
            first, second = _MULTI_TARGETS[int(rng.integers(len(_MULTI_TARGETS)))]
            adj = _SINGLE_OPINIONS[tag][int(rng.integers(len(_SINGLE_OPINIONS[tag])))]
            tokens = ["the", first, second, "is", adj, "."]
            triplets = [GoldTriplet((1, 2), (4, 4), tag)]
        elif shape == 2:
            noun = _SINGLE_TARGETS[int(rng.integers(len(_SINGLE_TARGETS)))]
            adv, adj = _MULTI_OPINIONS[tag][int(rng.integers(len(_MULTI_OPINIONS[tag])))]
            tokens = ["the", noun, "is", adv, adj, "."]
            triplets = [GoldTriplet((1, 1), (3, 4), tag)]
        elif shape == 3:
            pick = rng.choice(len(_SINGLE_TARGETS), size=2, replace=False)
            noun_a, noun_b = (_SINGLE_TARGETS[int(p)] for p in pick)
            adj = _SINGLE_OPINIONS[tag][int(rng.integers(len(_SINGLE_OPINIONS[tag])))]
            tokens = ["the", noun_a, "and", noun_b, "are", adj, "."]
            triplets = [GoldTriplet((1, 1), (5, 5), tag),
                        GoldTriplet((3, 3), (5, 5), tag)]
        else:
            text = _EMPTY_SENTENCES[int(rng.integers(len(_EMPTY_SENTENCES)))]
            tokens = text.split()
            triplets = []
        sentences.append(Sentence(idx, tokens, triplets))
    return sentences
