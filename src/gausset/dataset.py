"""Labeled datasets and their reduction to sufficient statistics.

The model never sees raw patterns after ingestion: a dataset is reduced
once to per-class counts, per-class means and the pooled within-class
scatter, each pattern centred on its own class mean. Centring keeps the
scatter free of the cancellation that raw second moments suffer under a
large common offset. Statistics from shards of a dataset combine with
the pairwise rule in :func:`merge`, in any order. A CSV is parsed into
one array of its counted rows, and the scatter is summed a chunk of rows
at a time, so neither step holds a second copy of the patterns.
"""

from __future__ import annotations

import codecs
import csv
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import EmptyDimension, NonFiniteValue, ParseError, ShapeMismatch
from .linalg import symmetrize

# Entries per chunk of rows that accumulate centres and the scorer
# scores, so their working memory stays flat in T.
_BLOCK_ENTRIES = 65536


@dataclass(frozen=True)
class LabeledDataset:
    """Patterns with class labels.

    ``patterns`` is a (T, N) float array, ``labels`` a (T,) int array of
    0-based class indices into ``class_names``. Declared classes with no
    occurrences are allowed (that is how openset classes enter a fit).
    """

    patterns: np.ndarray
    labels: np.ndarray
    class_names: tuple

    def __post_init__(self):
        patterns = np.asarray(self.patterns, dtype=np.float64)
        # An empty vector is no patterns; T rows of zero features stay (T, 0).
        patterns = patterns.reshape(0, 0) if patterns.shape == (0,) else np.atleast_2d(patterns)
        labels = np.asarray(self.labels, dtype=np.int64)
        names = tuple(str(n) for n in self.class_names)
        if len(names) < 1:
            raise ValueError("at least one class must be declared")
        if len(set(names)) != len(names):
            raise ValueError("class names must be unique")
        if patterns.shape[0] != labels.shape[0]:
            raise ShapeMismatch(
                f"{patterns.shape[0]} patterns but {labels.shape[0]} labels"
            )
        # Unknown labels are a hard error, never silently dropped.
        if labels.size and (labels.min() < 0 or labels.max() >= len(names)):
            raise ValueError("label index out of range for the declared classes")
        if not np.all(np.isfinite(patterns)):
            raise NonFiniteValue("dataset contains non-finite pattern values")
        object.__setattr__(self, "patterns", patterns)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "class_names", names)
        patterns.flags.writeable = False
        labels.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.patterns.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    @property
    def n_patterns(self) -> int:
        return self.patterns.shape[0]


@dataclass(frozen=True)
class SufficientStats:
    """Per-class counts and means, and the pooled within-class scatter.

    ``counts[k]`` is the number of patterns of class k, column k of
    ``means`` is their mean (zero for a class with no patterns), and
    ``within`` is the sum of (x - m_k)(x - m_k)^T over every pattern x,
    each centred on the mean m_k of its own class.
    """

    counts: np.ndarray   # (K,) int64
    means: np.ndarray    # (N, K)
    within: np.ndarray   # (N, N), symmetric positive semi-definite

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        means = np.asarray(self.means, dtype=np.float64)
        within = np.asarray(self.within, dtype=np.float64)
        if counts.ndim != 1 or means.ndim != 2 or means.shape[1] != counts.shape[0]:
            raise ShapeMismatch("counts and per-class means disagree in class count")
        if within.shape != (means.shape[0], means.shape[0]):
            raise ShapeMismatch("within-class scatter shape does not match the feature dimension")
        if np.any(counts < 0):
            raise ValueError("negative class count")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "within", within)
        counts.flags.writeable = False
        means.flags.writeable = False
        within.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.means.shape[0]

    @property
    def n_classes(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @classmethod
    def zeros(cls, dim: int, n_classes: int) -> "SufficientStats":
        return cls(np.zeros(n_classes, dtype=np.int64),
                   np.zeros((dim, n_classes)),
                   np.zeros((dim, dim)))


def accumulate(ds: LabeledDataset) -> SufficientStats:
    """Reduce a dataset to its sufficient statistics.

    Each pattern is centred on its class mean before the scatter is
    summed, so a large offset common to all patterns does not cancel
    away the within-class spread. The scatter is summed over chunks of
    ``_BLOCK_ENTRIES // N`` rows, all centred on the whole dataset's
    means, so its memory beside the patterns is flat in T and one chunk
    gives one product's result bit for bit. (Folding chunk statistics
    through :func:`merge` would carry each chunk mean's rounding into W
    to first order.) Sums run in input row order, so the result is
    deterministic. Raises :class:`EmptyDimension` for zero feature columns.
    """
    if ds.dim == 0:
        raise EmptyDimension("dataset has no feature columns")
    counts = np.zeros(ds.n_classes, dtype=np.int64)
    np.add.at(counts, ds.labels, 1)   # np.bincount would copy the read-only labels
    sums = np.zeros((ds.n_classes, ds.dim))
    np.add.at(sums, ds.labels, ds.patterns)
    means = sums / np.maximum(counts, 1)[:, None]
    rows, within = max(1, _BLOCK_ENTRIES // ds.dim), None
    for start in range(0, max(ds.n_patterns, 1), rows):
        centred = means[ds.labels[start:start + rows]]
        np.subtract(ds.patterns[start:start + rows], centred, out=centred)
        part = centred.T @ centred
        within = part if within is None else within + part
    return SufficientStats(counts, means.T, symmetrize(within))


def merge(a: SufficientStats, b: SufficientStats) -> SufficientStats:
    """Statistics of the union of two datasets over the same classes.

    Chan, Golub & LeVeque's pairwise rule, per class with n = T_a + T_b
    and delta = m_b - m_a: m = (T_a m_a + T_b m_b) / n and
    W = W_a + W_b + sum_k (T_a T_b / n) delta_k delta_k^T. Each term is
    symmetric in a and b, so ``merge(a, b)`` equals ``merge(b, a)`` bit
    for bit, and merging with zero statistics returns the other side.
    """
    if a.dim != b.dim or a.n_classes != b.n_classes:
        raise ShapeMismatch(
            f"cannot merge stats of shape (N={a.dim}, K={a.n_classes}) "
            f"with (N={b.dim}, K={b.n_classes})"
        )
    counts = a.counts + b.counts
    n = np.maximum(counts, 1).astype(np.float64)
    means = a.means * (a.counts / n) + b.means * (b.counts / n)
    delta = b.means - a.means
    spread = (delta * (a.counts * b.counts / n)) @ delta.T
    return SufficientStats(counts, means, symmetrize(a.within + b.within + spread))


def _parse_cell(text, line, column):
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"cannot parse {text!r} as a number", line, column) from None
    if not math.isfinite(value):
        raise NonFiniteValue(f"non-finite value {text!r}", line, column)
    return value


def _columns(header, label_column):
    """The index of ``label_column`` in ``header`` (None if not named) and
    the indices of every other column, the features."""
    label_idx = None
    if label_column is not None:
        if label_column not in header:
            raise ParseError(f"no column named {label_column!r} in header", line=1)
        label_idx = header.index(label_column)
    return label_idx, [i for i in range(len(header)) if i != label_idx]


def _read_table(path, label_column=None):
    """Read a headed CSV into (header, labels, patterns), skipping blank rows.

    ``labels`` holds the stripped ``label_column`` cells, if one is named;
    every other cell must parse to a finite float of ``patterns`` (T, F).
    An error names the physical line its record starts on.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ParseError("file is empty, expected a header row", line=1) from None
        label_idx, features = _columns(header, label_column)
        labels = []
        rows = []
        end = reader.line_num
        for row in reader:
            line_no, end = end + 1, reader.line_num
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"row has {len(row)} cells, header has {len(header)}", line_no
                )
            if label_idx is not None:
                # Interned: one string per distinct label, not one per row.
                labels.append(sys.intern(row[label_idx].strip()))
            rows.append([_parse_cell(row[i], line_no, header[i]) for i in features])
    return header, labels, np.asarray(rows, dtype=np.float64).reshape(len(rows), len(features))


# Text on which csv.reader or float() can disagree with np.loadtxt: a quote
# (csv quoting), a carriage return not ending a CRLF pair (a line end to
# csv), NUL (a csv error before Python 3.11) and the ASCII separators
# \x1c-\x1f, which loadtxt strips around a number and float() rejects.
_FALLBACK_CHARS = '"\r\0\x1c\x1d\x1e\x1f'
_READ_BLOCK = 1 << 16  # bytes _fast_table reads and parses at once


def _whole_lines(handle):
    """The UTF-8 text of binary ``handle`` in pieces of whole lines, read
    ``_READ_BLOCK`` bytes at a time. Each piece but the last ends in
    ``\n``, so a CRLF pair never straddles two pieces; the last may be
    empty. The decoded block is freed before its piece is yielded."""
    decode = codecs.getincrementaldecoder("utf-8")().decode
    pending = []
    for piece in iter(lambda: handle.read(_READ_BLOCK), b""):
        piece = decode(piece)
        cut = piece.rfind("\n") + 1
        if cut:
            text, piece = "".join([*pending, piece[:cut]]), piece[cut:]
            pending = []
            yield text
        pending.append(piece)
    yield "".join(pending) + decode(b"", True)


def _count_rows(path):
    """An upper bound on the data rows of ``path`` (blank lines count):
    its newlines, plus an unterminated last line, less the header."""
    ends, last = 0, b"\n"
    with open(path, "rb") as handle:
        for piece in iter(lambda: handle.read(_READ_BLOCK), b""):
            ends += piece.count(b"\n")
            last = piece[-1:]
    return max(ends + (last != b"\n") - 1, 0)


def _fast_table(path, label_column=None):
    """What :func:`_read_table` returns, parsed by ``np.loadtxt`` a block
    of lines at a time, so the whole text is never held at once.

    Each parsed block is copied into one array of the rows
    :func:`_count_rows` counts, trimmed to the rows read at the end.

    Returns None whenever the two readers could disagree: undecodable
    bytes, a character of ``_FALLBACK_CHARS``, a line longer than csv's
    field size limit, no data rows, a row whose cell count differs from
    the header's, a cell loadtxt rejects, a non-finite value, or more
    rows than were counted (the file grew). The caller then runs
    ``_read_table``, which gives the result or the error with its line
    and column. A header without ``label_column`` raises the error
    ``_read_table`` raises for it.
    """
    rows = _count_rows(path)
    header, labels, filled = None, [], 0
    limit = csv.field_size_limit()
    try:
        with open(path, "rb") as handle:
            for text in _whole_lines(handle):
                if "\r" in text:
                    text = text.replace("\r\n", "\n")
                if any(char in text for char in _FALLBACK_CHARS):
                    return None
                lines = text.split("\n")
                if header is None:
                    head = lines.pop(0)
                    if not head or len(head) > limit:
                        return None
                    header = [h.strip() for h in head.split(",")]
                    label_idx, features = _columns(header, label_column)
                    patterns = np.empty((rows, len(features)))
                lines = [line for line in lines if line]   # csv skips empty lines
                if not lines:
                    continue
                # loadtxt does not check row length when given usecols.
                if (filled + len(lines) > rows or max(map(len, lines)) > limit
                        or any(line.count(",") != len(header) - 1 for line in lines)):
                    return None
                try:
                    block = np.loadtxt(lines, delimiter=",", usecols=features,
                                       comments=None, ndmin=2, dtype=np.float64)
                except ValueError:
                    return None
                if not np.isfinite(block).all():
                    return None
                patterns[filled:filled + len(lines)] = block
                filled += len(lines)
                if label_idx is not None:
                    # Splitting from the right leaves cells before the label
                    # joined at index 0, so the label is item 1 (item 0 when
                    # it is the first cell).
                    cut = len(header) - label_idx
                    labels.extend(sys.intern(line.rsplit(",", cut)[min(label_idx, 1)].strip())
                                  for line in lines)
                text = lines = block = None   # freed before the next block is read
    except UnicodeDecodeError:
        return None
    if not filled:
        return None
    # In place: no view of the array is alive, and shrinking frees its tail.
    patterns.resize((filled, patterns.shape[1]), refcheck=False)
    return header, labels, patterns


def load_csv(path, label_column: str = "label", extra_classes=()) -> LabeledDataset:
    """Load a labeled dataset from a headed CSV file.

    The column named ``label_column`` holds class labels; every other
    column is a feature, in header order. Classes are indexed in order
    of first appearance, with any ``extra_classes`` not present in the
    file appended after (their counts are zero).
    """
    _, labels, patterns = (_fast_table(path, label_column)
                           or _read_table(path, label_column))
    names = list(dict.fromkeys([*labels, *map(str, extra_classes)])) or ["unlabeled"]
    index = {name: k for k, name in enumerate(names)}
    return LabeledDataset(patterns,
                          np.asarray([index[label] for label in labels], dtype=np.int64),
                          tuple(names))


def load_features(path):
    """Load an unlabeled feature CSV. Returns (feature_names, patterns)."""
    header, _, patterns = _fast_table(path) or _read_table(path)
    return header, patterns
