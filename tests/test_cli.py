import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausset import (LabeledDataset, PriorHyper, accumulate, build_model,
                     load_features, posterior, save_model, score_batch)
from gausset.cli import _write_rows, main
from gausset.errors import ParseError
from gausset.model_io import load_model
from gausset.montecarlo import sample_dataset, seeded_generator


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
                    "--label-col", "label", "--r", "2.0", "--a", "4.0",
                    "--b", "eps-identity", "--eps", "1.0",
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

    @pytest.mark.parametrize("flag", [["--a"], ["--b", "eps-identity", "--eps"]])
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

    def test_missing_file_is_input_error(self, tmp_path):
        assert run(["fit", "--data", tmp_path / "nope.csv",
                    "--out", tmp_path / "m.json"]) == 2

    def test_bad_cell_is_input_error(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("x0,label\noops,a\n")
        assert run(["fit", "--data", data, "--out", tmp_path / "m.json"]) == 2

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

    def test_non_positive_tol_exits_2(self, tmp_path, deadline):
        data = tmp_path / "data.csv"
        write_worked_csv(data)
        assert run(["tune-r", "--data", data, "--tol", "0"]) == 2

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

    def test_bad_count_spec(self, tmp_path):
        assert run(["gen-synth", "--out", tmp_path / "x.csv", "--dim", "2",
                    "--classes", "3", "--per-class", "1,2", "--seed", "0"]) == 2


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
