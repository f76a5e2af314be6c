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

import csv
import math

import numpy as np

from .errors import DomainError, EmptyDimension, NonFiniteValue, ParseError, ShapeMismatch
from .linalg import _freeze, _Frozen, symmetrize

# Entries per chunk of rows that accumulate centres and the scorer
# scores, so their working memory stays flat in T.
_BLOCK_ENTRIES = 65536


class LabeledDataset(_Frozen):
    """Patterns with class labels.

    ``patterns`` is a (T, N) float array, ``labels`` a (T,) int array of
    0-based class indices into ``class_names``. Declared classes with no
    occurrences are allowed (that is how openset classes enter a fit).
    """

    def __init__(self, patterns: np.ndarray, labels: np.ndarray, class_names: tuple):
        patterns = np.asarray(patterns, dtype=np.float64)
        # An empty vector is no patterns; T rows of zero features stay (T, 0).
        patterns = patterns.reshape(0, 0) if patterns.shape == (0,) else np.atleast_2d(patterns)
        labels = np.asarray(labels, dtype=np.int64)
        names = tuple(str(n) for n in class_names)
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
        # NaN and inf reach the extremes, and no (T, N) mask is allocated.
        if patterns.size and not (np.isfinite(patterns.min()) and np.isfinite(patterns.max())):
            raise NonFiniteValue("dataset contains non-finite pattern values")
        _freeze(self, patterns=patterns, labels=labels, class_names=names)

    @property
    def dim(self) -> int:
        return self.patterns.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    @property
    def n_patterns(self) -> int:
        return self.patterns.shape[0]


class SufficientStats(_Frozen):
    """Per-class counts and means, and the pooled within-class scatter.

    ``counts[k]`` is the number of patterns of class k, column k of
    ``means`` is their mean (zero for a class with no patterns), and
    ``within`` is the sum of (x - m_k)(x - m_k)^T over every pattern x,
    each centred on the mean m_k of its own class. The shapes are (K,),
    (N, K) and (N, N).
    """

    def __init__(self, counts: np.ndarray, means: np.ndarray, within: np.ndarray):
        counts = np.asarray(counts, dtype=np.int64)
        means = np.asarray(means, dtype=np.float64)
        within = np.asarray(within, dtype=np.float64)
        if counts.ndim != 1 or means.ndim != 2 or means.shape[1] != counts.shape[0]:
            raise ShapeMismatch("counts and per-class means disagree in class count")
        if within.shape != (means.shape[0], means.shape[0]):
            raise ShapeMismatch("within-class scatter shape does not match the feature dimension")
        if np.any(counts < 0):
            raise ValueError("negative class count")
        for name, value in (("means", means), ("within", within)):
            if not np.isfinite(value).all():
                raise DomainError(f"sufficient statistics field {name!r} is not finite")
        _freeze(self, counts=counts, means=means, within=within)

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
    """Read a headed CSV into (header, codes, names, patterns), skipping blank rows.

    ``names`` holds the distinct stripped ``label_column`` cells by first
    appearance, ``codes`` (T,) each row's index into it (both empty without
    a label column). Other cells must be finite floats, ``patterns`` (T, F).
    An error names the physical line its record starts on, or for a csv
    error (a cell over its field size limit, NUL before Python 3.11) its line.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = [h.strip() for h in next(reader)]
            label_idx, features = _columns(header, label_column)
            names, codes, rows = {}, [], []
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
                    codes.append(names.setdefault(row[label_idx].strip(), len(names)))
                rows.append([_parse_cell(row[i], line_no, header[i]) for i in features])
        except StopIteration:
            raise ParseError("file is empty, expected a header row", line=1) from None
        except csv.Error as exc:
            raise ParseError(str(exc), reader.line_num) from None
    return (header, np.asarray(codes, dtype=np.int64), list(names),
            np.asarray(rows, dtype=np.float64).reshape(len(rows), len(features)))


# Text read with universal newlines (LF, CRLF or CR ends a line, as in csv) on
# which csv.reader or float() can disagree with np.loadtxt: a quote, NUL (a csv
# error before Python 3.11) and \x1c-\x1f, which loadtxt strips and float() rejects.
_FALLBACK_CHARS = '"\0\x1c\x1d\x1e\x1f'
_READ_BLOCK = 1 << 16  # bytes _count_rows reads, characters of lines _fast_table parses


def _count_rows(path):
    """An upper bound on the data rows of ``path`` (blank lines count):
    its newlines, plus an unterminated last line, less the header."""
    ends, last = 0, b"\n"
    with open(path, "rb") as handle:
        for piece in iter(lambda: handle.read(_READ_BLOCK), b""):
            ends += piece.count(b"\n")
            last = piece[-1:]
    return max(ends + (last != b"\n") - 1, 0)


def _unsafe(lines):
    """Whether a line holds one of ``_FALLBACK_CHARS`` or, less its newline,
    is longer than csv's field size limit. Only the last may lack a newline.
    The characters are sought in each quarter of the lines, joined: one
    string scans fast, and a quarter's copy stays below the parse's peak
    memory, which a copy of the whole block would exceed."""
    limit, step = csv.field_size_limit(), len(lines) // 4 + 1
    quarters = ("".join(lines[start:start + step]) for start in range(0, len(lines), step))
    return (max(map(len, lines)) > limit + 1 or len(lines[-1].rstrip("\n")) > limit
            or any(char in text for text in quarters for char in _FALLBACK_CHARS))


def _fast_table(path, label_column=None):
    """What :func:`_read_table` returns, parsed by one ``np.loadtxt`` call
    per block of lines, so the whole text is never held at once.

    A converter on the label column turns each stripped label into its
    code inside the parse. loadtxt rejects a block whose rows differ in
    cell count, and each block's width is checked against the header's.
    Blocks are copied into arrays of the rows :func:`_count_rows` counts.

    Returns None whenever the two readers could disagree: undecodable
    bytes, a character of ``_FALLBACK_CHARS``, a line longer than csv's
    field size limit, no data rows, a row whose cell count differs from
    the header's, a cell loadtxt rejects, a non-finite value, or more
    rows than were counted (the file grew, or a lone CR ends a line).
    The caller then runs ``_read_table``, which gives the result or the
    error with its line and column. A header without ``label_column``
    raises the error ``_read_table`` raises for it.
    """
    rows, names, filled = _count_rows(path), {}, 0
    try:
        with open(path, encoding="utf-8-sig") as handle:
            head = handle.readline()
            if head in ("", "\n") or _unsafe([head]):
                return None
            header = [h.strip() for h in head.rstrip("\n").split(",")]
            label_idx, features = _columns(header, label_column)
            converters = None if label_idx is None else {
                label_idx: lambda cell: names.setdefault(cell.strip(), len(names))}
            patterns = np.empty((rows, len(features)))
            codes = np.empty(rows if converters else 0, dtype=np.int64)
            while lines := handle.readlines(_READ_BLOCK):
                lines = [line for line in lines if line != "\n"]   # csv skips empty lines
                if not lines:
                    continue
                end = filled + len(lines)
                if end > rows or _unsafe(lines):
                    return None
                try:
                    block = np.loadtxt(lines, delimiter=",", comments=None, converters=converters,
                                       ndmin=2, encoding=None)  # str to converters on numpy 1.x
                except ValueError:
                    return None
                if block.shape[1] != len(header) or not np.isfinite(block).all():
                    return None
                patterns[filled:end] = block[:, features]
                if converters:
                    codes[filled:end] = block[:, label_idx]
                filled = end
                lines = block = None   # freed before the next block is read
    except UnicodeDecodeError:
        return None
    if not filled:
        return None
    # In place: no view of either array is alive, and shrinking frees its tail.
    patterns.resize((filled, patterns.shape[1]), refcheck=False)
    codes.resize(min(filled, codes.size), refcheck=False)
    return header, codes, list(names), patterns


def load_csv(path, label_column: str = "label", extra_classes=()) -> LabeledDataset:
    """Load a labeled dataset from a headed CSV file.

    The column named ``label_column`` holds class labels; every other
    column is a feature, in header order. Classes are indexed in order
    of first appearance, with any ``extra_classes`` not present in the
    file appended after (their counts are zero). Labels become codes in
    the ``np.loadtxt`` pass that parses the features and checks row widths.
    ``label_column=None`` is a ``DomainError``; see :func:`load_features`.
    """
    if label_column is None:
        raise DomainError("load_csv needs a label_column; read unlabeled files with load_features")
    _, codes, names, patterns = (_fast_table(path, label_column)
                                 or _read_table(path, label_column))
    names = list(dict.fromkeys([*names, *map(str, extra_classes)])) or ["unlabeled"]
    return LabeledDataset(patterns, codes, tuple(names))


def load_features(path):
    """Load an unlabeled feature CSV. Returns (feature_names, patterns)."""
    header, _, _, patterns = _fast_table(path) or _read_table(path)
    return header, patterns
