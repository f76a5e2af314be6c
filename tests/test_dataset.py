from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gausset import LabeledDataset, SufficientStats, accumulate, load_csv, merge
from gausset import dataset
from gausset.dataset import _fast_table, _read_table, load_features
from gausset.errors import (
    EmptyDimension,
    NonFiniteValue,
    ParseError,
    ShapeMismatch,
)
from gausset.linalg import cholesky, symmetrize

from conftest import traced_peak


def raw_moment_within(patterns, labels, n_classes):
    """S - sum_k f_k f_k^T / T_k from raw sums: the paper's uncentred route."""
    within = patterns.T @ patterns
    for k in range(n_classes):
        f = patterns[labels == k].sum(axis=0)
        if (labels == k).any():
            within -= np.outer(f, f) / (labels == k).sum()
    return within


class TestAccumulate:
    def test_worked_example(self, worked_stats):
        np.testing.assert_array_equal(worked_stats.counts, [2, 1])
        np.testing.assert_array_equal(worked_stats.means, [[2.0, 2.0]])
        np.testing.assert_array_equal(worked_stats.within, [[2.0]])
        assert worked_stats.total == 3

    def test_empty_dataset(self):
        ds = LabeledDataset(np.zeros((0, 2)), np.zeros(0, dtype=int), ("a", "b"))
        stats = accumulate(ds)
        np.testing.assert_array_equal(stats.counts, [0, 0])
        assert not stats.means.any()
        assert not stats.within.any()
        assert stats.total == 0

    def test_single_pattern(self):
        x = np.array([1.5, -2.0])
        stats = accumulate(LabeledDataset(x[None, :], [0], ("only",)))
        np.testing.assert_array_equal(stats.means[:, 0], x)
        np.testing.assert_array_equal(stats.within, np.zeros((2, 2)))
        np.testing.assert_array_equal(stats.counts, [1])

    def test_zero_feature_columns_rejected(self):
        ds = LabeledDataset(np.zeros((0, 0)), np.zeros(0, dtype=int), ("a",))
        with pytest.raises(EmptyDimension):
            accumulate(ds)

    def test_per_class_sums(self):
        rng = np.random.default_rng(0)
        patterns = rng.normal(size=(30, 3))
        labels = rng.integers(0, 4, size=30)
        stats = accumulate(LabeledDataset(patterns, labels, ("a", "b", "c", "d")))
        for k in range(4):
            np.testing.assert_allclose(
                stats.counts[k] * stats.means[:, k],
                patterns[labels == k].sum(axis=0), atol=1e-12
            )

    def test_peak_memory_is_flat_in_the_rows(self):
        # One chunk of about _BLOCK_ENTRIES centred entries at any T. The
        # whole (T, N) centred copy peaked at 1.0x the patterns, so 8x the
        # rows took 8x the memory.
        rng = np.random.default_rng(8)
        peaks = []
        for n_rows in (20000, 160000):
            ds = LabeledDataset(rng.normal(size=(n_rows, 10)), rng.integers(0, 5, n_rows),
                                tuple("abcde"))
            peak, stats = traced_peak(lambda: accumulate(ds))
            assert stats.total == n_rows
            peaks.append(peak)
        assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0]

    @pytest.mark.parametrize("n_rows, one_chunk", [(4096, True), (4097, False)])
    def test_bit_for_bit_up_to_one_chunk(self, n_rows, one_chunk):
        # N = 16: 4096 rows are 65536 entries, one chunk; one row more is two.
        rng = np.random.default_rng(10)
        ds = LabeledDataset(1e6 + rng.normal(size=(n_rows, 16)), rng.integers(0, 3, n_rows),
                            ("a", "b", "c"))
        got, want = accumulate(ds), one_shot_stats(ds)
        np.testing.assert_array_equal(got.counts, want.counts)
        assert got.means.tobytes() == want.means.tobytes()
        if one_chunk:
            assert got.within.tobytes() == want.within.tobytes()
        else:
            assert_stats_close(got, want)

    def test_within_class_scatter_is_psd(self):
        # W equals the raw-moment form S - sum_k f_k f_k^T / T_k, and is
        # PSD: probe with a trace-relative diagonal shift and Cholesky.
        rng = np.random.default_rng(1)
        for trial in range(5):
            patterns = rng.normal(size=(25, 3))
            labels = rng.integers(0, 3, size=25)
            stats = accumulate(LabeledDataset(patterns, labels, ("a", "b", "c")))
            np.testing.assert_allclose(stats.within,
                                       raw_moment_within(patterns, labels, 3),
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_array_equal(stats.within, stats.within.T)
            shift = 1e-8 * np.trace(stats.within)
            cholesky(stats.within + shift * np.eye(3))


class TestMerge:
    def test_zero_is_identity(self, worked_stats):
        zero = SufficientStats.zeros(worked_stats.dim, worked_stats.n_classes)
        merged = merge(worked_stats, zero)
        np.testing.assert_array_equal(merged.counts, worked_stats.counts)
        np.testing.assert_array_equal(merged.means, worked_stats.means)
        np.testing.assert_array_equal(merged.within, worked_stats.within)

    def test_commutative(self):
        rng = np.random.default_rng(2)
        a = accumulate(LabeledDataset(rng.normal(size=(5, 2)),
                                      rng.integers(0, 2, 5), ("a", "b")))
        b = accumulate(LabeledDataset(rng.normal(size=(7, 2)),
                                      rng.integers(0, 2, 7), ("a", "b")))
        ab, ba = merge(a, b), merge(b, a)
        np.testing.assert_array_equal(ab.counts, ba.counts)
        np.testing.assert_array_equal(ab.means, ba.means)
        np.testing.assert_array_equal(ab.within, ba.within)

    def test_merge_of_split_equals_whole(self):
        rng = np.random.default_rng(3)
        patterns = rng.normal(size=(10, 2))
        labels = rng.integers(0, 2, size=10)
        names = ("a", "b")
        whole = accumulate(LabeledDataset(patterns, labels, names))
        part1 = accumulate(LabeledDataset(patterns[:4], labels[:4], names))
        part2 = accumulate(LabeledDataset(patterns[4:], labels[4:], names))
        merged = merge(part1, part2)
        np.testing.assert_array_equal(merged.counts, whole.counts)
        np.testing.assert_allclose(merged.means, whole.means, rtol=1e-12)
        np.testing.assert_allclose(merged.within, whole.within, rtol=1e-12)

    def test_sharded_reduction_matches_whole(self):
        # Any reduction tree over shards must agree up to float reordering.
        rng = np.random.default_rng(4)
        patterns = rng.normal(size=(60, 3))
        labels = rng.integers(0, 3, size=60)
        names = ("a", "b", "c")
        whole = accumulate(LabeledDataset(patterns, labels, names))
        shards = [accumulate(LabeledDataset(patterns[i::4], labels[i::4], names))
                  for i in range(4)]
        merged = merge(merge(shards[0], shards[1]), merge(shards[2], shards[3]))
        np.testing.assert_array_equal(merged.counts, whole.counts)
        np.testing.assert_allclose(merged.means, whole.means, rtol=1e-10)
        np.testing.assert_allclose(merged.within, whole.within, rtol=1e-10)

    def test_empty_class_on_both_sides_keeps_zero_mean(self):
        a = accumulate(LabeledDataset([[1.0], [3.0]], [0, 0], ("a", "ghost")))
        b = accumulate(LabeledDataset([[5.0]], [0], ("a", "ghost")))
        merged = merge(a, b)
        np.testing.assert_array_equal(merged.counts, [3, 0])
        np.testing.assert_array_equal(merged.means, [[3.0, 0.0]])
        np.testing.assert_array_equal(merged.within, [[8.0]])

    def test_shape_mismatch(self, worked_stats):
        with pytest.raises(ShapeMismatch):
            merge(worked_stats, SufficientStats.zeros(2, 2))
        with pytest.raises(ShapeMismatch):
            merge(worked_stats, SufficientStats.zeros(1, 3))


@st.composite
def sharded_datasets(draw):
    """A labelled dataset and its rows cut into three shards, any of them empty.

    Classes sit at separate means with unit noise and no large common
    offset: at an offset c, shard means agree only to about eps * c,
    which limits any merge rule, so the 1e-12 bounds below assume c ~ 1.
    """
    dim = draw(st.integers(1, 4))
    n_classes = draw(st.integers(1, 4))
    n_rows = draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = rng.integers(0, n_classes, size=n_rows)
    patterns = (rng.normal(0.0, 3.0, size=(n_classes, dim))[labels]
                + rng.normal(size=(n_rows, dim)))
    names = tuple(f"c{k}" for k in range(n_classes))
    cuts = np.sort(rng.integers(0, n_rows + 1, size=2))
    return LabeledDataset(patterns, labels, names), np.split(rng.permutation(n_rows), cuts)


def _accumulate_rows(ds, rows):
    return accumulate(LabeledDataset(ds.patterns[rows], ds.labels[rows], ds.class_names))


def assert_stats_close(got, want, rtol=1e-12):
    """Counts equal; means and W within rtol of each array's largest entry."""
    np.testing.assert_array_equal(got.counts, want.counts)
    for g, w in ((got.means, want.means), (got.within, want.within)):
        assert np.abs(g - w).max() <= rtol * np.abs(w).max()


class TestMergeProperties:
    @settings(max_examples=50, deadline=None)
    @given(sharded_datasets())
    def test_commutative_bit_for_bit_and_zero_is_identity(self, case):
        ds, shards = case
        a, b, _ = (_accumulate_rows(ds, rows) for rows in shards)
        ab, ba = merge(a, b), merge(b, a)
        zero = SufficientStats.zeros(ds.dim, ds.n_classes)
        for got, want in ((ab, ba), (merge(a, zero), a), (merge(zero, b), b)):
            np.testing.assert_array_equal(got.counts, want.counts)
            np.testing.assert_array_equal(got.means, want.means)
            np.testing.assert_array_equal(got.within, want.within)

    @settings(max_examples=50, deadline=None)
    @given(sharded_datasets())
    def test_associative(self, case):
        ds, shards = case
        a, b, c = (_accumulate_rows(ds, rows) for rows in shards)
        assert_stats_close(merge(merge(a, b), c), merge(a, merge(b, c)))

    @settings(max_examples=50, deadline=None)
    @given(sharded_datasets())
    def test_row_order_invariant(self, case):
        ds, shards = case
        rows = np.concatenate(shards)
        assert_stats_close(_accumulate_rows(ds, rows), accumulate(ds))

    @settings(max_examples=50, deadline=None)
    @given(sharded_datasets())
    def test_sharded_merge_equals_whole(self, case):
        ds, shards = case
        a, b, c = (_accumulate_rows(ds, rows) for rows in shards)
        whole = accumulate(ds)
        assert_stats_close(merge(merge(a, b), c), whole)
        np.testing.assert_allclose(
            whole.within, raw_moment_within(ds.patterns, ds.labels, ds.n_classes),
            rtol=1e-10, atol=1e-10 * np.abs(ds.patterns).max(initial=1.0) ** 2)


def one_shot_stats(ds):
    """Statistics with the scatter summed as one product over every
    centred row, the form ``accumulate`` takes for a dataset of one chunk."""
    counts = np.bincount(ds.labels, minlength=ds.n_classes)
    sums = np.zeros((ds.n_classes, ds.dim))
    np.add.at(sums, ds.labels, ds.patterns)
    means = sums / np.maximum(counts, 1)[:, None]
    centred = ds.patterns - means[ds.labels]
    return SufficientStats(counts, means.T, symmetrize(centred.T @ centred))


def longdouble_stats(ds, centre=None):
    """Counts, (N, K) means and W in ``np.longdouble`` by two passes: the
    class means, then the scatter of each row about column k of ``centre``
    for its class k (about the means just found if ``centre`` is None)."""
    x = ds.patterns.astype(np.longdouble)
    counts = np.bincount(ds.labels, minlength=ds.n_classes)
    means = np.zeros((ds.n_classes, ds.dim), dtype=np.longdouble)
    for k in np.flatnonzero(counts):
        means[k] = x[ds.labels == k].sum(axis=0) / counts[k]
    centres = means if centre is None else np.asarray(centre, dtype=np.longdouble).T
    centred = x - centres[ds.labels]
    return counts, means.T, centred.T @ centred


@st.composite
def chunked_datasets(draw):
    """(A dataset, entries per chunk cutting it into one chunk or more).

    Up to 60 rows with a common offset up to 1e10; in some examples the
    last class is first seen in the last chunk.
    """
    dim = draw(st.integers(1, 4))
    n_classes = draw(st.integers(1, 4))
    n_rows = draw(st.integers(1, 60))
    entries = draw(st.integers(1, n_rows * dim))
    offset = draw(st.sampled_from([0.0, 1e3, 1e6, 1e8, 1e10]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = rng.integers(0, n_classes, size=n_rows)
    if n_classes > 1 and draw(st.booleans()):
        rows = max(1, entries // dim)
        last = (n_rows - 1) // rows * rows   # the first row of the last chunk
        labels[:last] %= n_classes - 1
        labels[-1] = n_classes - 1
    patterns = (offset + rng.normal(0.0, 3.0, size=(n_classes, dim))[labels]
                + rng.normal(size=(n_rows, dim)))
    names = tuple(f"c{k}" for k in range(n_classes))
    return LabeledDataset(patterns, labels, names), entries


class TestAccumulateProperties:
    @settings(max_examples=200, deadline=None)
    @given(chunked_datasets())
    def test_matches_longdouble_reference(self, case):
        """Means within 1e-12 of their largest entry; W within 1e-12 of its
        largest entry of the scatter about the means returned.

        A float64 mean at offset c is off by about eps * c, which moves a
        one-shot scatter by n (eps * c)^2 (the parallel-axis term): about
        1e-12 of W at c = 1e10 with unit noise. The second pass therefore
        centres on the returned means. Folding chunk statistics through
        ``merge`` fails here: its pairwise term carries each chunk mean's
        rounding to first order.
        """
        ds, entries = case
        with mock.patch.object(dataset, "_BLOCK_ENTRIES", entries):
            got = accumulate(ds)
        counts, means, _ = longdouble_stats(ds)
        within = longdouble_stats(ds, got.means)[2]
        np.testing.assert_array_equal(got.counts, counts)
        for g, w in ((got.means, means), (got.within, within)):
            assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()

    @settings(max_examples=100, deadline=None)
    @given(chunked_datasets())
    def test_one_chunk_is_one_product_bit_for_bit(self, case):
        ds, _ = case   # at most 240 entries: one chunk at the default size
        got, want = accumulate(ds), one_shot_stats(ds)
        np.testing.assert_array_equal(got.counts, want.counts)
        assert got.means.tobytes() == want.means.tobytes()
        assert got.within.tobytes() == want.within.tobytes()


class TestLabeledDataset:
    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.ones((2, 1)), [0, 2], ("a", "b"))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.ones((1, 1)), [0], ("a", "a"))

    def test_nonfinite_pattern_rejected(self):
        with pytest.raises(NonFiniteValue):
            LabeledDataset(np.array([[np.nan]]), [0], ("a",))

    def test_zero_feature_rows_keep_their_count(self):
        assert LabeledDataset(np.zeros((3, 0)), [0, 0, 0], ("a",)).patterns.shape == (3, 0)
        assert LabeledDataset([], [], ("a",)).patterns.shape == (0, 0)

    def test_label_count_mismatch(self):
        with pytest.raises(ShapeMismatch):
            LabeledDataset(np.ones((3, 1)), [0, 0], ("a",))


class TestLoadCsv:
    def test_basic_file(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x0,x1,label\n1,2,a\n3,4,b\n5,6,a\n")
        ds = load_csv(path)
        assert ds.dim == 2
        assert ds.class_names == ("a", "b")
        np.testing.assert_array_equal(ds.labels, [0, 1, 0])
        np.testing.assert_array_equal(ds.patterns, [[1, 2], [3, 4], [5, 6]])

    def test_label_column_position_is_free(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("kind,x0\nu,1.5\nv,2.5\n")
        ds = load_csv(path, label_column="kind")
        assert ds.class_names == ("u", "v")
        np.testing.assert_array_equal(ds.patterns, [[1.5], [2.5]])

    def test_nan_cell_reports_location(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x0,label\n1.0,a\nNaN,a\n")
        with pytest.raises(NonFiniteValue) as excinfo:
            load_csv(path)
        assert excinfo.value.line == 3
        assert excinfo.value.column == "x0"

    def test_unparseable_cell_reports_location(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x0,x1,label\n1.0,oops,a\n")
        with pytest.raises(ParseError) as excinfo:
            load_csv(path)
        assert excinfo.value.line == 2
        assert excinfo.value.column == "x1"

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x0,x1,label\n")
        ds = load_csv(path, extra_classes=("a",))
        assert ds.n_patterns == 0
        assert ds.dim == 2
        assert ds.class_names == ("a",)

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x0,x1\n1,2\n")
        with pytest.raises(ParseError):
            load_csv(path)

    def test_declared_classes_appended_after_seen(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x0,label\n1,b\n2,a\n")
        ds = load_csv(path, extra_classes=("a", "unknown"))
        # First appearance order, then declared-only classes.
        assert ds.class_names == ("b", "a", "unknown")
        stats = accumulate(ds)
        np.testing.assert_array_equal(stats.counts, [1, 1, 0])

    def test_completely_empty_file(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            load_csv(path)

    @pytest.mark.parametrize("row", ["1,2,3,a", "1,a", "1,2"],
                             ids=["extra-cell", "missing-feature", "missing-label"])
    def test_cell_count_mismatch_reports_line(self, tmp_path, row):
        path = tmp_path / "data.csv"
        path.write_text(f"x0,x1,label\n1,2,a\n{row}\n3,4,b\n")
        with pytest.raises(ParseError) as excinfo:
            load_csv(path)
        assert excinfo.value.line == 3

    def test_error_after_multiline_cell_names_physical_line(self, tmp_path):
        # The quoted label spans lines 2-3, so "oops" sits on line 5.
        path = tmp_path / "data.csv"
        path.write_text('x0,label\n1,"a\nb"\n2,c\noops,d\n')
        with pytest.raises(ParseError) as excinfo:
            load_csv(path)
        assert excinfo.value.line == 5
        assert excinfo.value.column == "x0"

    def test_error_in_multiline_record_names_its_first_line(self, tmp_path):
        # "oops" opens a record whose quoted label spans lines 3-4.
        path = tmp_path / "data.csv"
        path.write_text('x0,label\n1,a\noops,"b\nc"\n2,d\n')
        with pytest.raises(ParseError) as excinfo:
            load_csv(path)
        assert excinfo.value.line == 3
        path.write_text('x0,label\n1,a\n2,"b\nc",3\n')
        with pytest.raises(ParseError, match="cells") as excinfo:
            load_csv(path)
        assert excinfo.value.line == 3

    def test_error_after_blank_lines_names_physical_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text('x0,label\n\n"1",a\n\noops,b\n')
        with pytest.raises(ParseError) as excinfo:
            load_csv(path)
        assert excinfo.value.line == 5

    def test_label_only_file_has_no_feature_columns(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("label\na\nb\n")
        ds = load_csv(path)
        assert ds.patterns.shape == (2, 0)
        assert ds.class_names == ("a", "b")
        with pytest.raises(EmptyDimension):
            accumulate(ds)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x0,label\n\n1,a\n\n\n2,b\n\n")
        ds = load_csv(path)
        np.testing.assert_array_equal(ds.patterns, [[1.0], [2.0]])
        assert ds.class_names == ("a", "b")

    def test_whitespace_only_line_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x0,label\n1,a\n  \n2,b\n")
        with pytest.raises(ParseError) as excinfo:
            load_csv(path)
        assert excinfo.value.line == 3

    @pytest.mark.parametrize("text, names", [
        ('"x0",x1,label\n"1.5",2,"a,b"\n-3,"4e1",c\n', ("a,b", "c")),
        ('x0,x1,label\n1.5,2,"a"\n-3,4e1,c\n', ("a", "c")),
    ], ids=["quoted-comma", "quoted-label"])
    def test_quoted_cells(self, tmp_path, text, names):
        path = tmp_path / "data.csv"
        path.write_text(text)
        ds = load_csv(path)
        np.testing.assert_array_equal(ds.patterns, [[1.5, 2.0], [-3.0, 40.0]])
        assert ds.class_names == names

    def test_crlf_loads_like_lf(self, tmp_path):
        text = "x0,x1,label\n0.1,2e-3,a\n\n-7,1_5, b \n"
        lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
        lf.write_bytes(text.encode())
        crlf.write_bytes(text.replace("\n", "\r\n").encode())
        want, got = load_csv(lf), load_csv(crlf)
        assert got.patterns.tobytes() == want.patterns.tobytes()
        np.testing.assert_array_equal(got.labels, want.labels)
        assert got.class_names == want.class_names == ("a", "b")

    def test_lone_cr_ends_a_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"x0,label\r1,a\r2,b\r")
        np.testing.assert_array_equal(load_csv(path).patterns, [[1.0], [2.0]])

    def test_hash_is_not_a_comment(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x0,x1,label\n1,2,a\n3,4 # note,a\n")
        with pytest.raises(ParseError) as excinfo:
            load_csv(path)
        assert (excinfo.value.line, excinfo.value.column) == (3, "x1")

    @pytest.mark.parametrize("cell, value", [("1_0", 10.0), ("\u0661\u0662", 12.0),
                                             (" \u00a02.5\t", 2.5)])
    def test_cells_parse_as_python_float(self, tmp_path, cell, value):
        path = tmp_path / "data.csv"
        path.write_text(f"x0,label\n{cell},a\n", encoding="utf-8")
        np.testing.assert_array_equal(load_csv(path).patterns, [[value]])

    @pytest.mark.parametrize("cell", ["\x1c1", "1\x1f", "0x10", "1d5"])
    def test_cells_python_float_rejects_raise(self, tmp_path, cell):
        path = tmp_path / "data.csv"
        path.write_text(f"x0,x1,label\n1,2,a\n3,{cell},a\n")
        with pytest.raises(ParseError) as excinfo:
            load_csv(path)
        assert (excinfo.value.line, excinfo.value.column) == (3, "x1")

    def test_label_column_in_the_middle(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x0,kind,x1\n1,u,2\n3,v,4\n5,u,6\n")
        ds = load_csv(path, label_column="kind")
        np.testing.assert_array_equal(ds.patterns, [[1, 2], [3, 4], [5, 6]])
        np.testing.assert_array_equal(ds.labels, [0, 1, 0])
        assert ds.class_names == ("u", "v")


class TestLoadFeatures:
    def test_basic(self, tmp_path):
        path = tmp_path / "feat.csv"
        path.write_text("x0,x1\n0.5,1.5\n2.5,3.5\n")
        names, patterns = load_features(path)
        assert names == ["x0", "x1"]
        np.testing.assert_array_equal(patterns, [[0.5, 1.5], [2.5, 3.5]])

    def test_bad_cell(self, tmp_path):
        path = tmp_path / "feat.csv"
        path.write_text("x0\ninf\n")
        with pytest.raises(NonFiniteValue):
            load_features(path)

    @pytest.mark.parametrize("row", ["1,2,3", "1"], ids=["extra-cell", "missing-cell"])
    def test_cell_count_mismatch_reports_line(self, tmp_path, row):
        path = tmp_path / "feat.csv"
        path.write_text(f"x0,x1\n1,2\n{row}\n")
        with pytest.raises(ParseError) as excinfo:
            load_features(path)
        assert excinfo.value.line == 3

    def test_whitespace_only_line_rejected(self, tmp_path):
        path = tmp_path / "feat.csv"
        path.write_text("x0\n1\n\n \n2\n")
        with pytest.raises(ParseError) as excinfo:
            load_features(path)
        assert (excinfo.value.line, excinfo.value.column) == (4, "x0")


FINITE = st.floats(allow_nan=False, allow_infinity=False)
NUMBER_CELLS = st.one_of(
    FINITE.map(repr),
    FINITE.map("{:.17g}".format),
    st.integers(-10**20, 10**20).map(str),
    st.from_regex(r"[-+]?[0-9]{1,25}\.[0-9]{0,25}([eE][-+]?[0-9]{1,3})?", fullmatch=True),
)
# Cells on which csv.reader, float() and np.loadtxt may part ways.
ODD_CELLS = st.sampled_from([
    "", " 2.5\t", "\u00a03", "1_0", "\u0661", '"4.5"', "1 # c", "#1",
    "-inf", "1e400", "0x10", "oops", "\x1c1", "1\x1f", "1\x00", "1,5",
])
LABEL_CELLS = st.sampled_from(["a", "b", " c ", "\u03a9", "a#b", "", '"a,b"', '"b"', "a\x00"])
DEFECTS = ("blank-line", "space-line", "extra-cell", "missing-cell",
           "crlf-once", "lone-cr", "bad-utf8")


@st.composite
def csv_files(draw):
    """(bytes of a headed CSV, whether it has a label column).

    Up to three cells from ``ODD_CELLS`` and up to three line defects from
    ``DEFECTS``, in LF or CRLF line endings.
    """
    labelled = draw(st.booleans())
    n_features = draw(st.integers(0 if labelled else 1, 4))
    label_at = draw(st.integers(0, n_features)) if labelled else None
    rows = [[f"x{i}" for i in range(n_features)]]
    for _ in range(draw(st.integers(0, 6))):
        rows.append([draw(NUMBER_CELLS) for _ in range(n_features)])
    if labelled:
        for row in rows:
            row.insert(label_at, "label" if row is rows[0] else draw(LABEL_CELLS))
    for _ in range(draw(st.integers(0, 3)) if len(rows) > 1 else 0):
        row = rows[draw(st.integers(1, len(rows) - 1))]
        row[draw(st.integers(0, len(row) - 1))] = draw(ODD_CELLS)
    lines = [",".join(row) for row in rows]
    defects = draw(st.lists(st.sampled_from(DEFECTS), max_size=3))
    for defect in defects:
        at = draw(st.integers(1, len(lines)))
        if defect == "blank-line":
            lines.insert(at, "")
        elif defect == "space-line":
            lines.insert(at, draw(st.sampled_from([" ", "\t", "  "])))
        elif at < len(lines) and defect == "extra-cell":
            lines[at] += ",1"
        elif at < len(lines) and defect == "missing-cell":
            lines[at] = lines[at].rpartition(",")[0]
        elif defect in ("crlf-once", "lone-cr"):
            lines[at - 1] += "\r\n" if defect == "crlf-once" else "\r"
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    data = (ending.join(lines) + draw(st.sampled_from(["", ending]))).encode()
    if "bad-utf8" in defects:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data, labelled


def _outcome(read):
    """``read()``'s result, or the type, message, line and column it raised."""
    try:
        return read(), None
    except (ParseError, NonFiniteValue) as exc:
        return None, (type(exc), str(exc), exc.line, exc.column)
    except ValueError as exc:   # UnicodeDecodeError, ShapeMismatch
        return None, (type(exc), str(exc), None, None)


def _fields(ds):
    return ds.patterns, ds.labels.tolist(), ds.class_names


def _reference_dataset(path):
    """``load_csv`` built from ``_read_table`` alone."""
    _, labels, patterns = _read_table(path, "label")
    names = list(dict.fromkeys(labels)) or ["unlabeled"]
    return LabeledDataset(patterns, [names.index(label) for label in labels], tuple(names))


def _same_table(got, want):
    """Whether two ``_fast_table`` results are equal, None included."""
    if got is None or want is None:
        return got is want
    return (got[:2] == want[:2] and got[2].shape == want[2].shape
            and got[2].tobytes() == want[2].tobytes())


class TestReaderProperties:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(csv_files())
    def test_loaders_match_read_table(self, tmp_path_factory, case):
        data, labelled = case
        path = tmp_path_factory.getbasetemp() / "reader_property.csv"
        path.write_bytes(data)
        label_column = "label" if labelled else None
        # Every generated file fits in one default block, so the default
        # reads it whole; blocks of 1 and 7 characters cut it everywhere.
        whole = _fast_table(path, label_column)
        for block in (1, 7, dataset._READ_BLOCK):
            with mock.patch.object(dataset, "_READ_BLOCK", block):
                assert _same_table(_fast_table(path, label_column), whole), block
                if labelled:
                    want, want_error = _outcome(lambda: _fields(_reference_dataset(path)))
                    got, got_error = _outcome(lambda: _fields(load_csv(path)))
                else:
                    want, want_error = _outcome(lambda: _read_table(path)[::-2])
                    got, got_error = _outcome(lambda: load_features(path)[::-1])
            assert got_error == want_error, block
            if want is not None:
                assert got[0].shape == want[0].shape
                assert got[0].tobytes() == want[0].tobytes()
                assert got[1:] == want[1:]


def _rows_text(n_rows, newline="\n"):
    """A headed two-feature CSV of ``n_rows`` rows with labels a and b."""
    rows = [f"{i}.5,{-i}e-3,{'ab'[i % 2]}" for i in range(n_rows)]
    return newline.join(["x0,x1,label", *rows]) + newline


class TestBlockwiseReader:
    """``_fast_table`` parses a block of lines at a time; a block edge can
    fall anywhere in the text without changing the result or its errors."""

    def check_fast_path(self, path, edge):
        """``load_csv`` on the fast path with a block edge at ``edge``
        (characters) equals ``_read_table``'s dataset."""
        with mock.patch.object(dataset, "_READ_BLOCK", edge):
            assert _fast_table(path, "label") is not None
            got = _fields(load_csv(path))
        want = _fields(_reference_dataset(path))
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1:] == want[1:]

    def test_crlf_pair_straddles_a_block_edge(self, tmp_path):
        text = _rows_text(40, "\r\n")
        path = tmp_path / "crlf.csv"
        path.write_bytes(text.encode())
        cr = text.index("\r\n", 100)
        self.check_fast_path(path, cr + 1)   # the edge between \r and \n

    def test_multibyte_label_straddles_a_block_edge(self, tmp_path):
        data = ("x0,label\n" + "1,\u03a9\u03bc\u00e9\n2,b\n" * 20).encode()
        path = tmp_path / "utf8.csv"
        path.write_bytes(data)
        inside = data.index("\u03bc".encode()) + 1   # an edge inside the bytes of mu
        self.check_fast_path(path, inside)
        self.check_fast_path(path, inside - 1)   # between two characters of a label

    @pytest.mark.parametrize("edge", [1, 5, 13, 64])
    def test_rows_straddle_block_edges(self, tmp_path, edge):
        path = tmp_path / "rows.csv"
        path.write_text(_rows_text(50))
        self.check_fast_path(path, edge)

    def test_header_longer_than_a_block(self, tmp_path):
        names = [f"feature_{i}" for i in range(30)]
        path = tmp_path / "wide.csv"
        path.write_text(",".join([*names, "label"]) + "\n"
                        + "".join(",".join(["1.5"] * 30) + f",c{i}\n" for i in range(5)))
        self.check_fast_path(path, 16)

    @pytest.mark.parametrize("edge", [3, 10, 1 << 16])
    def test_no_trailing_newline(self, tmp_path, edge):
        path = tmp_path / "open.csv"
        path.write_text(_rows_text(12).rstrip("\n"))
        self.check_fast_path(path, edge)

    @pytest.mark.parametrize("newline, end", [("\n", "\n"), ("\n", ""),
                                              ("\r\n", "\r\n"), ("\r\n", "")])
    @pytest.mark.parametrize("blanks", [0, 5])
    @pytest.mark.parametrize("edge", [7, 1 << 16])
    def test_row_count_bounds_the_rows(self, tmp_path, newline, end, blanks, edge):
        # Blank lines are counted as rows; the array is trimmed to the rows read.
        lines = _rows_text(40, newline).split(newline)[:-1]
        path = tmp_path / "counted.csv"
        path.write_bytes(((blanks + 1) * newline).join(lines).encode() + end.encode())
        with mock.patch.object(dataset, "_READ_BLOCK", edge):
            assert dataset._count_rows(path) == 40 * (blanks + 1)
            patterns = _fast_table(path, "label")[2]
        assert patterns.shape == (40, 2) and patterns.flags.owndata
        self.check_fast_path(path, edge)

    @pytest.mark.parametrize("edge", [7, 1 << 16])
    def test_rows_added_after_the_count_give_read_table_result(self, tmp_path, edge):
        path = tmp_path / "grown.csv"
        path.write_text(_rows_text(40))
        count = dataset._count_rows

        def count_then_grow(counted):
            rows = count(counted)
            with open(counted, "a", encoding="utf-8") as handle:
                handle.write("9.5,-2e-3,c\n")
            return rows

        with (mock.patch.object(dataset, "_READ_BLOCK", edge),
              mock.patch.object(dataset, "_count_rows", count_then_grow)):
            assert _fast_table(path, "label") is None
            got = _fields(load_csv(path))   # the file grows again under it
        want = _fields(_reference_dataset(path))
        assert got[0].shape == (42, 2) and got[0].tobytes() == want[0].tobytes()
        assert got[1:] == want[1:]

    @pytest.mark.parametrize("late, error", [
        ('"7,5"', ParseError),     # a quote, one of _FALLBACK_CHARS
        ("oops", ParseError),      # a cell loadtxt rejects
        ("1e400", NonFiniteValue),
    ])
    @pytest.mark.parametrize("edge", [64, 1 << 16])
    def test_late_block_failure_gives_read_table_error(self, tmp_path, late, error, edge):
        lines = _rows_text(300).splitlines()
        lines[281] = late + lines[281][lines[281].index(","):]
        path = tmp_path / "late.csv"
        path.write_text("\n".join(lines) + "\n")
        with mock.patch.object(dataset, "_READ_BLOCK", edge):
            assert _fast_table(path, "label") is None
            with pytest.raises(error) as excinfo:
                load_csv(path)
        if error is ParseError:
            assert type(excinfo.value) is ParseError
        assert (excinfo.value.line, excinfo.value.column) == (282, "x0")

    def test_peak_memory_is_near_the_patterns(self, tmp_path):
        # 1.7x the patterns at the default block: the array, filled in place,
        # and one block of text, lines and parsed values. Holding the parsed
        # blocks beside their concatenation peaked at 2.1x, the whole text
        # and its split lines at 6.9x.
        rng = np.random.default_rng(9)
        path = tmp_path / "big.csv"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(",".join(f"x{i}" for i in range(10)) + ",label\n")
            handle.writelines(",".join(map(repr, row)) + f",c{label}\n" for row, label
                              in zip(rng.normal(size=(6000, 10)).tolist(), rng.integers(0, 5, 6000)))
        assert path.stat().st_size >= 1 << 20
        peak, ds = traced_peak(lambda: load_csv(path))
        assert ds.patterns.shape == (6000, 10)
        assert peak <= 1.5 * ds.patterns.nbytes + 4 * dataset._READ_BLOCK
