import csv
import gc
import io
import json
import os
import re
import subprocess
import sys
import warnings
import weakref
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gausset
from gausset import (LabeledDataset, PriorHyper, accumulate, build_model,
                     load_features, montecarlo, posterior, save_model, score_batch)
from gausset.cli import _write_rows, build_parser, main
from gausset.errors import ParseError
from gausset.model_io import load_model
from gausset.montecarlo import sample_dataset, seeded_generator

from conftest import separated_dataset


README = Path(__file__).resolve().parents[1] / "README.md"
SUBCOMMANDS = re.search(r"\{([\w,-]+)\}", build_parser().format_usage()).group(1).split(",")


def write_worked_csv(path):
    path.write_text("x0,label\n1,a\n3,a\n2,b\n")


def run(argv):
    return main([str(a) for a in argv])


def csv_bytes(header, rows):
    """What ``csv.writer`` writes for ``header`` and ``rows``, as UTF-8."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    return text.getvalue().encode("utf-8")


# Class names that csv quotes, or that are easy to mangle: a delimiter, a
# quote, surrounding spaces, non-ASCII, empty, a newline (as a quoted
# multi-line label cell gives) and a number.
UNUSUAL_NAMES = ("a,b", 'q"x', " pad ", "\u03a9", "", "multi\nline", "1")

FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e-05, 9.999999999999999e-06, 1.0000000000000002e-05,
                     1e16, 9999999999999998.0, 1.0000000000000002e16, 1e22]),
    st.floats(min_value=1e-6, max_value=1e-4),
    st.floats(min_value=1e15, max_value=1e17),
    st.integers(-2**53, 2**53).map(float),
)


@st.composite
def row_blocks(draw):
    """(values, names, codes) for ``_write_rows``: 1-4 float columns."""
    n_cols = draw(st.integers(1, 4))
    names = draw(st.lists(st.text(st.characters(codec="utf-8"), max_size=5),
                          min_size=1, max_size=4))
    rows = draw(st.lists(st.lists(FLOATS, min_size=n_cols, max_size=n_cols),
                         max_size=12))
    codes = draw(st.lists(st.integers(0, len(names) - 1),
                          min_size=len(rows), max_size=len(rows)))
    return (np.array(rows, dtype=np.float64).reshape(len(rows), n_cols),
            names, np.array(codes, dtype=np.int64))


class TestFit:
    def test_worked_example_model_file(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        write_worked_csv(data)
        model_path = tmp_path / "model.json"
        assert run(["fit", "--data", data, "--out", model_path, "--r", "1.0"]) == 0
        doc = json.loads(model_path.read_text())
        assert doc["a_star"] == 3.0
        assert doc["class_names"] == ["a", "b"]
        assert doc["b_star"] == [[pytest.approx(20.0 / 3.0, rel=1e-15)]]
        assert doc["c_star"] == [pytest.approx(1.0 / 3.0), pytest.approx(0.5)]
        out = capsys.readouterr().out
        assert "N=1 K=2 T=3" in out

    def test_empty_dataset_with_proper_prior_returns_prior(self, tmp_path):
        data = tmp_path / "empty.csv"
        data.write_text("x0,x1,label\n")
        model_path = tmp_path / "model.json"
        code = run(["fit", "--data", data, "--out", model_path,
                    "--label-col", "label", "--r", "2.0", "--a", "4.0", "--eps", "1.0",
                    "--declare-class", "a", "--declare-class", "b"])
        assert code == 0
        doc = json.loads(model_path.read_text())
        assert doc["a_star"] == 4.0
        assert doc["b_star"] == [[1.0, 0.0], [0.0, 1.0]]
        assert doc["mu_star"] == [[0.0, 0.0], [0.0, 0.0]]
        assert doc["c_star"] == [0.5, 0.5]

    def test_declared_class_gets_prior_column(self, tmp_path):
        data = tmp_path / "data.csv"
        write_worked_csv(data)
        model_path = tmp_path / "model.json"
        assert run(["fit", "--data", data, "--out", model_path, "--r", "4.0",
                    "--declare-class", "unknown"]) == 0
        doc = json.loads(model_path.read_text())
        assert doc["class_names"] == ["a", "b", "unknown"]
        assert doc["mu_star"][2] == [0.0]
        assert doc["c_star"][2] == 0.25  # 1/r

    @pytest.mark.parametrize("r", ["inf", "nan"])
    def test_non_finite_r_exits_2(self, tmp_path, capsys, r):
        data = tmp_path / "data.csv"
        write_worked_csv(data)
        out = tmp_path / "model.json"
        assert run(["fit", "--data", data, "--r", r, "--out", out]) == 2
        assert "must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", [["--a"], ["--eps"]])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_prior_flag_exits_2_naming_it(self, tmp_path, capsys, flag, value):
        data = tmp_path / "data.csv"
        write_worked_csv(data)
        out = tmp_path / "model.json"
        assert run(["fit", "--data", data, *flag, value, "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"{flag[-1]} must be finite, got {value}" in err
        assert "_star" not in err and "Warning" not in err
        assert not out.exists()

    @pytest.mark.parametrize("a", ["0", "5"])
    @pytest.mark.parametrize("eps", ["0", "-1", "-100"])
    def test_non_positive_eps_exits_2_naming_it(self, tmp_path, capsys, a, eps):
        # -1 with a = 5 gave a negative-definite prior scale and exit 0, 0 the
        # improper a > 0, B = 0 prior, and -100 exit 3 for too few patterns.
        data = tmp_path / "data.csv"
        write_worked_csv(data)
        out = tmp_path / "model.json"
        assert run(["fit", "--data", data, "--a", a, "--eps", eps, "--out", out]) == 2
        assert f"--eps must be positive, got {float(eps)}" in capsys.readouterr().err
        assert not out.exists()

    def test_positive_a_with_zero_b_exits_2(self, tmp_path, capsys):
        # a > 0 with B = 0 is neither the non-informative nor a proper prior.
        data = tmp_path / "data.csv"
        write_worked_csv(data)
        out = tmp_path / "model.json"
        assert run(["fit", "--data", data, "--a", "1", "--out", out]) == 2
        assert "a > 0 requires --eps" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("eps", [[], ["--eps", "1"]])
    def test_negative_a_exits_2_naming_a(self, tmp_path, capsys, eps):
        # Without --eps, -1 was blamed on the missing --eps.
        data = tmp_path / "data.csv"
        write_worked_csv(data)
        out = tmp_path / "model.json"
        assert run(["fit", "--data", data, "--a", "-1", *eps, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "degrees of freedom a must be finite and non-negative, got -1.0" in err
        assert "--eps" not in err
        assert not out.exists()

    def test_negative_zero_a_is_the_noninformative_prior(self, tmp_path):
        data = tmp_path / "data.csv"
        write_worked_csv(data)
        plain, signed = tmp_path / "plain.json", tmp_path / "signed.json"
        assert run(["fit", "--data", data, "--out", plain]) == 0
        assert run(["fit", "--data", data, "--a", "-0.0", "--out", signed]) == 0
        assert signed.read_bytes() == plain.read_bytes()

    def test_eps_alone_sets_the_prior_scale(self, tmp_path, worked_stats):
        # --eps once counted only beside a second flag and fitted B = 0 without it.
        data = tmp_path / "data.csv"
        write_worked_csv(data)
        model_path = tmp_path / "model.json"
        assert run(["fit", "--data", data, "--eps", "1e3", "--out", model_path]) == 0
        expected = posterior(worked_stats, PriorHyper(1.0, 0.0, 1e3 * np.eye(1))).b_star
        b_star = json.loads(model_path.read_text())["b_star"]
        assert b_star == expected.tolist()
        assert b_star == [[pytest.approx(1e3 + 20.0 / 3.0, rel=1e-15)]]

    def test_b_flag_is_gone(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        write_worked_csv(data)
        out = tmp_path / "model.json"
        with pytest.raises(SystemExit) as exc:
            run(["fit", "--data", data, "--b", "eps-identity", "--out", out])
        assert exc.value.code == 2
        assert "unrecognized arguments: --b" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("a, eps", [(0.0, 1e-6), (0.0, 1.0), (5.0, 1e-3)])
    def test_eps_writes_the_library_model_of_b_eps_identity(self, tmp_path, a, eps):
        # The bytes of save_model on the posterior under B = eps I.
        data = tmp_path / "data.csv"
        data.write_text("x0,x1,label\n1,0.5,a\n3,-1,a\n2,2,b\n0,1,b\n4,0,c\n")
        out, expected = tmp_path / "model.json", tmp_path / "expected.json"
        assert run(["fit", "--data", data, "--a", a, "--eps", eps, "--out", out]) == 0
        ds = LabeledDataset([[1, 0.5], [3, -1], [2, 2], [0, 1], [4, 0]], [0, 0, 1, 1, 2],
                            ("a", "b", "c"))
        post = posterior(accumulate(ds), PriorHyper(1.0, a, eps * np.eye(2)))
        save_model(build_model(post, class_names=ds.class_names), expected)
        assert out.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("command, module, name", [("fit", "cli", "build_model"),
                                                       ("tune-r", "evidence", "tune_r")])
    def test_patterns_released_once_reduced(self, tmp_path, monkeypatch, command, module, name):
        # Only the statistics are needed past accumulate, so the dataset is
        # gone by the time the model is built or r is tuned.
        data = tmp_path / "data.csv"
        write_worked_csv(data)
        datasets = []

        def load_csv(*args, **kwargs):
            ds = gausset.dataset.load_csv(*args, **kwargs)
            datasets.append(weakref.ref(ds))
            return ds

        owner = getattr(gausset, module)
        reduced = getattr(owner, name)

        def after_reduction(*args, **kwargs):
            assert datasets and datasets[0]() is None
            return reduced(*args, **kwargs)

        monkeypatch.setattr(gausset.cli, "load_csv", load_csv)
        monkeypatch.setattr(owner, name, after_reduction)
        argv = ["--out", tmp_path / "model.json"] if command == "fit" else []
        assert run([command, "--data", data, *argv]) == 0

    def test_missing_file_is_input_error(self, tmp_path):
        assert run(["fit", "--data", tmp_path / "nope.csv",
                    "--out", tmp_path / "m.json"]) == 2

    def test_bad_cell_is_input_error(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("x0,label\noops,a\n")
        assert run(["fit", "--data", data, "--out", tmp_path / "m.json"]) == 2

    def test_cell_over_the_field_size_limit_exits_2(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text(f"x0,label\n1,a\n{'0' * csv.field_size_limit()}5,a\n")
        out = tmp_path / "m.json"
        assert run(["fit", "--data", data, "--out", out]) == 2
        assert "field larger than field limit" in capsys.readouterr().err
        assert not out.exists()

    def test_degenerate_fit_exits_3_without_nan(self, tmp_path, capsys):
        # Two collinear 2-D points leave a rank-one scatter for any r.
        data = tmp_path / "data.csv"
        data.write_text("x0,x1,label\n1,1,a\n2,2,a\n")
        code = run(["fit", "--data", data, "--out", tmp_path / "m.json"])
        captured = capsys.readouterr()
        assert code == 3
        assert "degenera" in captured.err.lower()
        assert "nan" not in (captured.out + captured.err).lower()
        assert not (tmp_path / "m.json").exists()


class TestClassify:
    def fit_worked(self, tmp_path):
        data = tmp_path / "data.csv"
        write_worked_csv(data)
        model_path = tmp_path / "model.json"
        assert run(["fit", "--data", data, "--out", model_path, "--r", "1.0"]) == 0
        return model_path

    def test_equidistant_point_splits_evenly(self, tmp_path):
        # Symmetric two-class model scored at the midpoint.
        data = tmp_path / "train.csv"
        data.write_text("x0,label\n-1,a\n-3,a\n1,b\n3,b\n")
        model_path = tmp_path / "model.json"
        assert run(["fit", "--data", data, "--out", model_path, "--r", "0.5"]) == 0
        queries = tmp_path / "queries.csv"
        queries.write_text("x0\n0.0\n")
        scored = tmp_path / "scored.csv"
        assert run(["classify", "--model", model_path, "--data", queries,
                    "--out", scored]) == 0
        with open(scored, newline="", encoding="utf-8") as handle:
            row = next(csv.DictReader(handle))
        assert float(row["posterior_a"]) == pytest.approx(0.5, abs=1e-12)
        assert float(row["posterior_b"]) == pytest.approx(0.5, abs=1e-12)

    def test_posterior_rows_sum_to_one(self, tmp_path):
        model_path = self.fit_worked(tmp_path)
        queries = tmp_path / "queries.csv"
        queries.write_text("x0\n" + "\n".join(str(v) for v in
                                              np.linspace(-5, 5, 20)) + "\n")
        scored = tmp_path / "scored.csv"
        assert run(["classify", "--model", model_path, "--data", queries,
                    "--out", scored]) == 0
        with open(scored, newline="", encoding="utf-8") as handle:
            for row in csv.DictReader(handle):
                total = float(row["posterior_a"]) + float(row["posterior_b"])
                assert total == pytest.approx(1.0, abs=1e-12)
                assert row["action"] in ("a", "b")

    def test_training_accuracy_beats_chance_on_separated_data(self, tmp_path):
        synth = tmp_path / "synth.csv"
        assert run(["gen-synth", "--out", synth, "--dim", "2", "--classes", "3",
                    "--per-class", "30", "--r-true", "0.01", "--seed", "5"]) == 0
        model_path = tmp_path / "model.json"
        assert run(["fit", "--data", synth, "--out", model_path, "--r", "1.0"]) == 0
        features = tmp_path / "features.csv"
        labels = []
        with open(synth, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        with open(features, "w", encoding="utf-8") as handle:
            handle.write("x0,x1\n")
            for row in rows:
                handle.write(f"{row['x0']},{row['x1']}\n")
                labels.append(row["label"])
        scored = tmp_path / "scored.csv"
        assert run(["classify", "--model", model_path, "--data", features,
                    "--out", scored]) == 0
        with open(scored, newline="", encoding="utf-8") as handle:
            decisions = [row["action"] for row in csv.DictReader(handle)]
        accuracy = np.mean([d == t for d, t in zip(decisions, labels)])
        assert accuracy > 0.6  # chance is 1/3

    def test_dim_mismatch_exits_2(self, tmp_path):
        model_path = self.fit_worked(tmp_path)
        queries = tmp_path / "queries.csv"
        queries.write_text("x0,x1\n1,2\n")
        assert run(["classify", "--model", model_path, "--data", queries,
                    "--out", tmp_path / "s.csv"]) == 2

    def test_explicit_class_prior(self, tmp_path):
        model_path = self.fit_worked(tmp_path)
        queries = tmp_path / "queries.csv"
        queries.write_text("x0\n2.0\n")
        scored = tmp_path / "scored.csv"
        assert run(["classify", "--model", model_path, "--data", queries,
                    "--out", scored, "--prior", "1,0"]) == 0
        with open(scored, newline="", encoding="utf-8") as handle:
            row = next(csv.DictReader(handle))
        assert float(row["posterior_a"]) == 1.0
        assert row["action"] == "a"

    def test_prior_weights_are_scaled_to_sum_to_one(self, tmp_path):
        # Unlike a library ClassPrior, the comma list need not sum to 1.
        model_path = self.fit_worked(tmp_path)
        queries = tmp_path / "queries.csv"
        queries.write_text("x0\n0.5\n2.0\n4.0\n")
        written = {}
        for spec in ("3,1", "0.75,0.25", "uniform"):
            scored = tmp_path / f"{spec}.csv"
            assert run(["classify", "--model", model_path, "--data", queries,
                        "--out", scored, "--prior", spec]) == 0
            written[spec] = scored.read_bytes()
        assert written["3,1"] == written["0.75,0.25"] != written["uniform"]

    def test_unparsable_class_prior_exits_2(self, tmp_path, capsys):
        model_path = self.fit_worked(tmp_path)
        queries = tmp_path / "queries.csv"
        queries.write_text("x0\n2.0\n")
        scored = tmp_path / "scored.csv"
        assert run(["classify", "--model", model_path, "--data", queries,
                    "--out", scored, "--prior", "1,half"]) == 2
        assert "cannot parse class prior '1,half'" in capsys.readouterr().err
        assert not scored.exists()

    def test_model_file_dim_disagreeing_with_its_means_exits_2(self, tmp_path, capsys):
        model_path = self.fit_worked(tmp_path)
        doc = json.loads(model_path.read_text())
        model_path.write_text(json.dumps(doc | {"dim": 2}))
        queries = tmp_path / "queries.csv"
        queries.write_text("x0\n2.0\n")
        assert run(["classify", "--model", model_path, "--data", queries,
                    "--out", tmp_path / "s.csv"]) == 2
        assert "does not match dim=2" in capsys.readouterr().err

    def test_row_too_far_out_exits_2_naming_it(self, tmp_path, capsys):
        model_path = self.fit_worked(tmp_path)
        queries = tmp_path / "queries.csv"
        queries.write_text("x0\n2.0\n1e200\n")
        scored = tmp_path / "scored.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["classify", "--model", model_path, "--data", queries,
                        "--out", scored]) == 2
        assert "pattern 1 is too far from every class" in capsys.readouterr().err
        assert not scored.exists()

    def test_far_row_within_range_scores(self, tmp_path):
        model_path = self.fit_worked(tmp_path)
        queries = tmp_path / "queries.csv"
        queries.write_text("x0\n1e150\n")
        scored = tmp_path / "scored.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["classify", "--model", model_path, "--data", queries,
                        "--out", scored]) == 0
        with open(scored, newline="", encoding="utf-8") as handle:
            row = next(csv.DictReader(handle))
        assert all(np.isfinite(float(value)) for key, value in row.items() if key != "action")

    def test_bytes_match_csv_writer_for_unusual_names(self, tmp_path):
        rng = np.random.default_rng(13)
        k = len(UNUSUAL_NAMES)
        angles = 2.0 * np.pi * np.arange(k) / k
        centres = 10.0 * np.column_stack([np.cos(angles), np.sin(angles)])
        labels = np.repeat(np.arange(k), 20)
        ds = LabeledDataset(centres[labels] + rng.normal(size=(labels.size, 2)),
                            labels, UNUSUAL_NAMES)
        model_path = tmp_path / "model.json"
        save_model(build_model(posterior(accumulate(ds), PriorHyper.noninformative(1.0)),
                               class_names=UNUSUAL_NAMES), model_path)
        queries = tmp_path / "queries.csv"
        query_x = np.vstack([centres, rng.normal(0.0, 8.0, size=(40, 2))])
        queries.write_text("x0,x1\n" + "".join(f"{a!r},{b!r}\n"
                                                for a, b in query_x.tolist()))
        scored = tmp_path / "scored.csv"
        assert run(["classify", "--model", model_path, "--data", queries,
                    "--out", scored]) == 0

        model, _ = load_model(model_path)
        log_unnorm, posteriors, actions = score_batch(
            model, load_features(queries)[1], np.full(k, 1.0 / k))
        assert set(actions.tolist()) == set(range(k))
        header = ([f"logpred_{n}" for n in UNUSUAL_NAMES]
                  + [f"posterior_{n}" for n in UNUSUAL_NAMES] + ["action"])
        rows = [[*scores.tolist(), *probs.tolist(), UNUSUAL_NAMES[action]]
                for scores, probs, action in zip(log_unnorm, posteriors, actions)]
        assert scored.read_bytes() == csv_bytes(header, rows)

    def test_header_only_query_file_gives_header_line(self, tmp_path):
        model_path = self.fit_worked(tmp_path)
        queries = tmp_path / "queries.csv"
        queries.write_text("x0\n")
        scored = tmp_path / "scored.csv"
        assert run(["classify", "--model", model_path, "--data", queries,
                    "--out", scored]) == 0
        assert scored.read_bytes() == (
            b"logpred_a,logpred_b,posterior_a,posterior_b,action\r\n")


class TestWriteRows:
    @settings(max_examples=200, deadline=None)
    @given(row_blocks())
    def test_text_equals_csv_writer(self, tmp_path_factory, case):
        values, names, codes = case
        path = tmp_path_factory.getbasetemp() / "write_rows_property.csv"
        header = [f"c{i}" for i in range(values.shape[1])] + ["name"]
        _write_rows(path, header, values, names, codes)
        rows = [[*row, names[code]] for row, code in zip(values.tolist(), codes.tolist())]
        assert path.read_bytes() == csv_bytes(header, rows)


class TestTuneR:
    def test_degenerate_data_exits_3(self, tmp_path):
        data = tmp_path / "tiny.csv"
        data.write_text("x0,x1,label\n1,2,a\n")
        assert run(["tune-r", "--data", data]) == 3

    @pytest.mark.parametrize("seed", range(6))
    def test_far_separated_class_means_exit_0(self, tmp_path, capsys, seed):
        # These files made tune-r exit 2 with numpy's "Matrix is not
        # positive definite"; fit succeeded on them.
        ds = separated_dataset(seed)
        data = tmp_path / "separated.csv"
        _write_rows(data, ["x0", "x1", "label"], ds.patterns, ds.class_names, ds.labels)
        curve_path = tmp_path / "curve.csv"
        assert run(["tune-r", "--data", data, "--grid", "13", "--out", curve_path]) == 0
        assert "tuned r = " in capsys.readouterr().out
        with open(curve_path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))[1:]
        assert len(rows) == 13 and all(np.isfinite(float(value)) for _, value in rows)

    def test_reports_finite_r_and_matching_grid_mode(self, tmp_path, capsys):
        synth = tmp_path / "synth.csv"
        assert run(["gen-synth", "--out", synth, "--dim", "2", "--classes", "6",
                    "--per-class", "8", "--r-true", "1.0", "--seed", "11"]) == 0
        curve_path = tmp_path / "curve.csv"
        code = run(["tune-r", "--data", synth, "--r-min", "1e-3",
                    "--r-max", "1e3", "--grid", "400", "--out", curve_path])
        assert code == 0
        out = capsys.readouterr().out
        tuned = float(out.split("tuned r = ")[1].split()[0])
        mode = float(out.split("grid mode r = ")[1].split()[0])
        cell = np.log(1e6) / 399
        assert abs(np.log(tuned) - np.log(mode)) <= cell
        with open(curve_path, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 400

    def test_worked_dataset_reports_boundary_or_interior(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        write_worked_csv(data)
        assert run(["tune-r", "--data", data, "--r-min", "1e-2",
                    "--r-max", "1e2"]) == 0
        tuned = float(capsys.readouterr().out.split("tuned r = ")[1].split()[0])
        assert 1e-2 <= tuned <= 1e2

    def test_writes_grid(self, tmp_path):
        data = tmp_path / "data.csv"
        write_worked_csv(data)
        curve_path = tmp_path / "curve.csv"
        assert run(["tune-r", "--data", data, "--r-min", "0.1",
                    "--r-max", "10", "--grid", "25", "--out", curve_path]) == 0
        with open(curve_path, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 25
        assert all(row["log_evidence"] for row in rows)

    def test_tol_flag_is_gone(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        write_worked_csv(data)
        with pytest.raises(SystemExit) as exc:
            run(["tune-r", "--data", data, "--tol", "1e-6"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err

    @pytest.mark.parametrize("bound", [["--r-max", "inf"], ["--r-min", "inf"],
                                       ["--r-max", "nan"]])
    def test_non_finite_range_exits_2(self, tmp_path, capsys, bound):
        # Numpy warnings are errors in this suite, so a warning would fail it.
        data = tmp_path / "data.csv"
        write_worked_csv(data)
        assert run(["tune-r", "--data", data, *bound]) == 2
        captured = capsys.readouterr()
        assert "r_max < inf" in captured.err and "tuned r" not in captured.out

    @pytest.mark.parametrize("grid", [None, "0", "-3"])
    def test_curve_flags_checked_before_reading(self, tmp_path, capsys, grid):
        # The data file does not exist, so only a check made before reading
        # it can report --grid.
        curve_path = tmp_path / "curve.csv"
        argv = ["tune-r", "--data", tmp_path / "missing.csv", "--out", curve_path]
        if grid is not None:
            argv += ["--grid", grid]
        assert run(argv) == 2
        assert "--grid" in capsys.readouterr().err
        assert not curve_path.exists()


class TestVerify:
    def test_default_run_passes(self, tmp_path, capsys):
        assert run(["verify", "--samples", "20000"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        report = json.loads(out.strip().splitlines()[-1])
        assert report["all_pass"]
        for probe in report["probes"]:
            assert set(probe) == {"probe", "closed_form", "mc_estimate",
                                  "std_error", "pass"}

    def test_negative_seed_is_an_aborted_verification(self, capsys):
        assert run(["verify", "--seed", "-1", "--samples", "10"]) == 1
        out = capsys.readouterr().out
        assert "verification aborted" in out
        report = json.loads(out.strip().splitlines()[-1])
        assert report["probes"] == [] and report["all_pass"] is False
        assert "seed" in report["error"] and "-1" in report["error"]

    def test_corrupted_model_exits_1(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        write_worked_csv(data)
        model_path = tmp_path / "model.json"
        assert run(["fit", "--data", data, "--out", model_path]) == 0
        doc = json.loads(model_path.read_text())
        doc["b_star"] = [[-v for v in row] for row in doc["b_star"]]
        model_path.write_text(json.dumps(doc))
        assert run(["verify", "--model", model_path, "--samples", "500"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_intact_model_passes(self, tmp_path):
        data = tmp_path / "data.csv"
        write_worked_csv(data)
        model_path = tmp_path / "model.json"
        assert run(["fit", "--data", data, "--out", model_path]) == 0
        assert run(["verify", "--model", model_path, "--samples", "20000"]) == 0

    def test_model_probes_report_their_ess(self, tmp_path, capsys):
        # Each model probe's line and JSON entry carry its effective sample
        # size; the default suite's entries do not (test_default_run_passes).
        data = tmp_path / "data.csv"
        write_worked_csv(data)
        model_path = tmp_path / "model.json"
        assert run(["fit", "--data", data, "--out", model_path]) == 0
        capsys.readouterr()
        assert run(["verify", "--model", model_path, "--samples", "2000"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        report = json.loads(lines[-1])
        assert len(lines) == len(report["probes"]) + 1 == 3
        for line, probe in zip(lines, report["probes"]):
            assert set(probe) == {"probe", "closed_form", "mc_estimate", "std_error",
                                  "pass", "ess"}
            assert 1.0 <= probe["ess"] <= 2000
            assert line.endswith(f" ess={probe['ess']:.1f}")

    def test_single_sample_cannot_pass(self, tmp_path, capsys):
        # One sample has an infinite standard error, which would accept
        # any estimate under the three-standard-error rule.
        data = tmp_path / "data.csv"
        write_worked_csv(data)
        model_path = tmp_path / "model.json"
        assert run(["fit", "--data", data, "--out", model_path]) == 0
        capsys.readouterr()
        assert run(["verify", "--model", model_path, "--samples", "1"]) == 1
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        predictive = [p for p in report["probes"]
                      if p["probe"].startswith("model-predictive")]
        assert predictive and not any(p["pass"] for p in predictive)

    def test_report_is_strict_json(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        write_worked_csv(data)
        model_path = tmp_path / "model.json"
        assert run(["fit", "--data", data, "--out", model_path]) == 0
        capsys.readouterr()
        assert run(["verify", "--model", model_path, "--samples", "1"]) == 1

        def reject(token):
            raise ValueError(f"{token} is not RFC 8259 JSON")

        last = capsys.readouterr().out.strip().splitlines()[-1]
        report = json.loads(last, parse_constant=reject)
        predictive = [p for p in report["probes"]
                      if p["probe"].startswith("model-predictive")]
        assert predictive and all(p["std_error"] is None for p in predictive)

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_sample_count_below_one_aborts(self, capsys, recwarn, samples):
        assert run(["verify", "--samples", samples]) == 1
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert report["probes"] == [] and report["all_pass"] is False
        assert "sample" in report["error"]
        assert not recwarn.list

    def test_allocation_failure_is_an_aborted_verification(self, tmp_path, capsys,
                                                          monkeypatch):
        # Stands in for a --samples too large to allocate, which would
        # raise numpy's MemoryError from the Bartlett log-determinant, the
        # one draw verify --model makes. Unpatched, this count would try to
        # allocate 24 GB, so the spy asserts that it is the function called.
        data = tmp_path / "data.csv"
        write_worked_csv(data)
        model_path = tmp_path / "model.json"
        assert run(["fit", "--data", data, "--out", model_path]) == 0
        capsys.readouterr()
        calls = []

        def out_of_memory(*args):
            calls.append(args[1:])
            raise MemoryError("Unable to allocate 447. GiB for an array")

        monkeypatch.setattr(montecarlo, "_bartlett_log_det", out_of_memory)
        assert run(["verify", "--model", model_path, "--samples", "3000000000"]) == 1
        assert calls == [(3.0, 1, 3000000000)]
        out = capsys.readouterr().out
        assert out.startswith("FAIL verification aborted: Unable to allocate")
        report = json.loads(out.strip().splitlines()[-1])
        assert report == {"probes": [], "all_pass": False,
                          "error": "Unable to allocate 447. GiB for an array"}

    def test_tiny_sample_count_reports_wider_error(self, tmp_path, capsys):
        assert run(["verify", "--samples", "100", "--seed", "20260808"]) in (0, 1)
        small = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert run(["verify", "--samples", "20000", "--seed", "20260808"]) == 0
        large = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        se_small = [p["std_error"] for p in small["probes"]
                    if p["probe"].startswith("mc-predictive")]
        se_large = [p["std_error"] for p in large["probes"]
                    if p["probe"].startswith("mc-predictive")]
        assert all(s > l for s, l in zip(se_small, se_large))


class TestNonFiniteModel:
    # json reads NaN and Infinity, so a model file can carry them.
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["r", "a_star", "mu_star", "c_star", "b_star"])
    def test_rejected_by_load_classify_and_verify(self, tmp_path, capsys, field, value):
        data = tmp_path / "data.csv"
        write_worked_csv(data)
        model_path = tmp_path / "model.json"
        assert run(["fit", "--data", data, "--out", model_path]) == 0
        doc = json.loads(model_path.read_text())
        if field in ("r", "a_star"):
            doc[field] = value
        elif field == "c_star":
            doc[field][0] = value
        else:
            doc[field][0][0] = value
        model_path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=field):
            load_model(model_path)
        queries = tmp_path / "queries.csv"
        queries.write_text("x0\n0.5\n")
        assert run(["classify", "--model", model_path, "--data", queries,
                    "--out", tmp_path / "scored.csv"]) == 2
        capsys.readouterr()
        assert run(["verify", "--model", model_path, "--samples", "500"]) == 1
        out = capsys.readouterr().out
        assert "verification aborted" in out
        report = json.loads(out.strip().splitlines()[-1])
        assert report["all_pass"] is False and report["probes"] == []


class TestNonPositiveCStarModel:
    @pytest.mark.parametrize("value", [0.0, -0.25])
    def test_verify_reports_and_classify_rejects(self, tmp_path, capsys, value):
        # A model verify cannot load fails verification: exit 1 and a
        # strict-JSON report. classify rejects it as bad input (exit 2).
        data = tmp_path / "data.csv"
        write_worked_csv(data)
        model_path = tmp_path / "model.json"
        assert run(["fit", "--data", data, "--out", model_path]) == 0
        doc = json.loads(model_path.read_text())
        doc["c_star"][0] = value
        model_path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="c\\*"):
            load_model(model_path)
        capsys.readouterr()
        assert run(["verify", "--model", model_path, "--samples", "500"]) == 1

        def reject(token):
            raise ValueError(f"{token} is not RFC 8259 JSON")

        last = capsys.readouterr().out.strip().splitlines()[-1]
        report = json.loads(last, parse_constant=reject)
        assert report["all_pass"] is False and report["probes"] == []
        assert "c*" in report["error"]
        queries = tmp_path / "queries.csv"
        queries.write_text("x0\n0.5\n")
        assert run(["classify", "--model", model_path, "--data", queries,
                    "--out", tmp_path / "scored.csv"]) == 2


class TestMalformedModel:
    """Model files that parse but describe no valid model: a classify input
    error (exit 2), and a failed verification with its report (exit 1)."""

    @staticmethod
    def fitted_doc(tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("x0,x1,label\n1,0,a\n3,1,a\n2,4,b\n0,3,b\n1,1,a\n")
        model_path = tmp_path / "model.json"
        assert run(["fit", "--data", data, "--out", model_path]) == 0
        return model_path, json.loads(model_path.read_text())

    @pytest.mark.parametrize("field", ["b_star", "class_names"])
    def test_rejected_by_load_classify_and_verify(self, tmp_path, capsys, field):
        model_path, doc = self.fitted_doc(tmp_path)
        if field == "b_star":
            doc["b_star"][0][1] += 0.25
            message = "model field b_star is not symmetric"
        else:
            doc["class_names"] = ["a", "a"]
            message = "model field class_names repeats a name"
        model_path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=message):
            load_model(model_path)
        queries = tmp_path / "queries.csv"
        queries.write_text("x0,x1\n0.5,0.5\n")
        scored = tmp_path / "scored.csv"
        capsys.readouterr()
        assert run(["classify", "--model", model_path, "--data", queries,
                    "--out", scored]) == 2
        assert message in capsys.readouterr().err
        assert not scored.exists()
        assert run(["verify", "--model", model_path, "--samples", "500"]) == 1
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert report["all_pass"] is False and report["probes"] == []
        assert message in report["error"]

    def test_no_finite_score_under_the_class_prior_exits_2(self, tmp_path, capsys):
        # Class b's q overflows at x = 1.3e154 and the prior leaves only b.
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps({
            "version": 1, "dim": 1, "class_names": ["a", "b"], "r": 1.0, "a_star": 3.0,
            "mu_star": [[0.0], [-2e153]], "c_star": [0.5, 0.5], "b_star": [[1.0]]}))
        queries = tmp_path / "queries.csv"
        queries.write_text("x0\n0.0\n1.3e154\n")
        scored = tmp_path / "scored.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["classify", "--model", model_path, "--data", queries,
                        "--out", scored, "--prior", "0,1"]) == 2
        assert "row 1 has no finite score" in capsys.readouterr().err
        assert not scored.exists()


class TestGenSynth:
    def test_empty_class_in_sidecar_only(self, tmp_path):
        out = tmp_path / "synth.csv"
        assert run(["gen-synth", "--out", out, "--dim", "2", "--classes", "3",
                    "--per-class", "4,0,4", "--seed", "1"]) == 0
        truth = json.loads((tmp_path / "synth.csv.truth.json").read_text())
        assert truth["counts"]["class_1"] == 0
        assert len(truth["means"]) == 3
        with open(out, newline="", encoding="utf-8") as handle:
            labels = {row["label"] for row in csv.DictReader(handle)}
        assert labels == {"class_0", "class_2"}

    def test_sample_mean_near_truth(self, tmp_path):
        out = tmp_path / "synth.csv"
        assert run(["gen-synth", "--out", out, "--dim", "1", "--classes", "1",
                    "--per-class", "400", "--seed", "2"]) == 0
        truth = json.loads((tmp_path / "synth.csv.truth.json").read_text())
        with open(out, newline="", encoding="utf-8") as handle:
            values = [float(row["x0"]) for row in csv.DictReader(handle)]
        assert abs(np.mean(values) - truth["means"]["class_0"][0]) <= 4 / np.sqrt(400)

    def test_deterministic_given_seed(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            assert run(["gen-synth", "--out", out, "--dim", "2", "--classes", "2",
                        "--per-class", "5", "--seed", "33"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_bytes_match_csv_writer_on_the_same_draw(self, tmp_path):
        # 1100 rows: more than one block of the row writer.
        out = tmp_path / "synth.csv"
        assert run(["gen-synth", "--out", out, "--dim", "3", "--classes", "2",
                    "--per-class", "700,400", "--r-true", "0.5",
                    "--lambda-scale", "2.0", "--seed", "9"]) == 0
        ds, _ = sample_dataset(seeded_generator(9), 3, [700, 400], 0.5,
                               precision=2.0 * np.eye(3))
        rows = [[*x.tolist(), ds.class_names[k]] for x, k in zip(ds.patterns, ds.labels)]
        assert out.read_bytes() == csv_bytes(["x0", "x1", "x2", "label"], rows)

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        assert run(["gen-synth", "--out", tmp_path / "x.csv", "--dim", "2",
                    "--classes", "2", "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert "seed must be a non-negative integer, got -1" in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("flag, value", [("--dim", "-1"), ("--dim", "0"),
                                             ("--classes", "0"), ("--classes", "-2")])
    def test_size_below_one_exits_2_naming_it(self, tmp_path, capsys, flag, value):
        out = tmp_path / "x.csv"
        sizes = {"--dim": "2", "--classes": "2", flag: value}
        assert run(["gen-synth", "--out", out, *chain.from_iterable(sizes.items())]) == 2
        assert f"{flag} must be >= 1, got {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_count_spec(self, tmp_path):
        assert run(["gen-synth", "--out", tmp_path / "x.csv", "--dim", "2",
                    "--classes", "3", "--per-class", "1,2", "--seed", "0"]) == 2

    @pytest.mark.parametrize("value", ["inf", "nan", "0", "-1"])
    def test_bad_lambda_scale_exits_2_naming_it(self, tmp_path, capsys, value):
        # Warnings are errors under pytest, so a passing run also shows the
        # flag is checked before inf * 0 can warn in np.eye.
        out = tmp_path / "x.csv"
        assert run(["gen-synth", "--out", out, "--dim", "2", "--classes", "2",
                    "--lambda-scale", value]) == 2
        err = capsys.readouterr().err
        assert f"--lambda-scale must be finite and positive, got {float(value)}" in err
        assert not out.exists()


    @pytest.mark.parametrize("value", ["inf", "nan", "0", "-1"])
    def test_bad_r_true_exits_2_and_writes_nothing(self, tmp_path, capsys, value):
        # An infinite r_true would go into the sidecar as the non-JSON Infinity.
        out = tmp_path / "x.csv"
        assert run(["gen-synth", "--out", out, "--dim", "2", "--classes", "2",
                    "--r-true", value]) == 2
        err = capsys.readouterr().err
        assert f"r_true must be finite and positive, got {float(value)}" in err
        assert not out.exists()
        assert not (tmp_path / "x.csv.truth.json").exists()


class TestModelRoundTripThroughCli:
    def test_fit_save_load_classify_is_bit_identical(self, tmp_path):
        from gausset import (ClassPrior, PriorHyper, accumulate, build_model,
                             load_csv, load_model, posterior, score_batch)
        data = tmp_path / "train.csv"
        rng = np.random.default_rng(70)
        with open(data, "w", encoding="utf-8") as handle:
            handle.write("x0,x1,label\n")
            for _ in range(50):
                k = rng.integers(0, 2)
                x = rng.normal(2.0 * k, 1.0, size=2)
                handle.write(f"{float(x[0])!r},{float(x[1])!r},c{k}\n")
        model_path = tmp_path / "model.json"
        assert run(["fit", "--data", data, "--out", model_path, "--r", "0.7"]) == 0

        ds = load_csv(data)
        post = posterior(accumulate(ds), PriorHyper.noninformative(0.7))
        in_memory = build_model(post, class_names=ds.class_names)
        loaded, _ = load_model(model_path)

        queries = rng.normal(1.0, 2.0, size=(40, 2))
        prior = ClassPrior.uniform(2)
        for mem, disk in zip(score_batch(in_memory, queries, prior),
                             score_batch(loaded, queries, prior)):
            np.testing.assert_array_equal(mem, disk)


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_readme_command_line_names_every_flag(command, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    flags = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", capsys.readouterr().out)) - {"--help"}
    section = README.read_text(encoding="utf-8").split("\n## Command line\n")[1]
    section = section.split("\n## ")[0]
    assert flags
    assert [flag for flag in sorted(flags)
            if not re.search(rf"(?<![\w-]){flag}(?![\w-])", section)] == []


def run_python(args, cwd):
    """Run ``python args`` in a fresh interpreter that imports this
    checkout's gausset."""
    env = dict(os.environ, PYTHONPATH=str(Path(gausset.__file__).parents[1]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)


def write_entry_inputs(directory):
    write_worked_csv(directory / "data.csv")
    (directory / "header.csv").write_text("x0,label\n")
    (directory / "query.csv").write_text("x0\n1.5\n")


@pytest.mark.parametrize("code, argv", [
    (0, ["fit", "--data", "data.csv", "--out", "model.json"]),
    (1, ["verify", "--samples", "1"]),
    (2, ["fit", "--data", "missing.csv", "--out", "model.json"]),
    (3, ["fit", "--data", "header.csv", "--out", "model.json"]),
])
def test_program_exits_as_main_returns(code, argv, tmp_path, monkeypatch, capsys):
    # The process runs cli.py's own `sys.exit(main())` guard.
    write_entry_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert run(argv) == code
    captured = capsys.readouterr()
    program = run_python(["-m", "gausset.cli", *argv], tmp_path)
    assert program.returncode == code
    assert program.stdout == captured.out
    assert program.stderr.splitlines()[-1:] == captured.err.splitlines()[-1:]


class TestGcFreeze:
    """Only a process that the CLI owns freezes its heap, so that
    interpreter shutdown skips the full collections over it."""

    def test_in_process_main_freezes_nothing(self, tmp_path, monkeypatch):
        write_entry_inputs(tmp_path)
        monkeypatch.chdir(tmp_path)
        before = gc.get_freeze_count()
        for argv in (["fit", "--data", "data.csv", "--out", "model.json"],
                     ["classify", "--model", "model.json", "--data", "query.csv",
                      "--out", "scored.csv"],
                     ["tune-r", "--data", "data.csv"],
                     ["verify", "--samples", "1"],
                     ["gen-synth", "--out", "synth.csv", "--dim", "1", "--classes", "2"],
                     ["fit", "--data", "header.csv", "--out", "model.json"]):
            run(argv)
            assert gc.get_freeze_count() == before, argv

    def test_import_freezes_nothing(self, tmp_path):
        code = "import gc, gausset, gausset.cli; print(gc.get_freeze_count())"
        assert run_python(["-c", code], tmp_path).stdout.strip() == "0"

    def test_main_as_the_program_freezes(self, tmp_path):
        # What the `gausset` console script runs: main() reading sys.argv.
        code = ("import gc, sys; from gausset.cli import main; "
                "sys.argv = ['gausset', 'gen-synth', '--out', 'synth.csv', "
                "'--dim', '1', '--classes', '2']; "
                "code = main(); print(code, gc.get_freeze_count() > 0)")
        out = run_python(["-c", code], tmp_path).stdout
        assert out.splitlines()[-1] == "0 True"
