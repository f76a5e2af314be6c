import json

import numpy as np
import pytest

from gausset import (
    ClassPrior,
    LabeledDataset,
    PosteriorMNW,
    PriorHyper,
    accumulate,
    build_model,
    class_posterior,
    load_model,
    log_predictive,
    log_predictive_unnormalized,
    posterior,
    save_model,
    score_batch,
)
from gausset.errors import DegenerateScatter, ParseError
from gausset.predictive import PredictiveModel


class TestRoundTrip:
    def test_fields_bit_exact(self, worked_posterior, tmp_path):
        model = build_model(worked_posterior, class_names=("a", "b"))
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded, r = load_model(path)
        assert r == 1.0
        assert loaded.class_names == model.class_names
        np.testing.assert_array_equal(loaded.mu_star, model.mu_star)
        np.testing.assert_array_equal(loaded.c_star, model.c_star)
        np.testing.assert_array_equal(loaded.b_star, model.b_star)
        assert loaded.a_star == model.a_star
        np.testing.assert_array_equal(loaded.log_norm, model.log_norm)
        np.testing.assert_array_equal(loaded.chol_b_star.lower,
                                      model.chol_b_star.lower)

    def test_non_string_class_names_survive(self, worked_posterior, tmp_path):
        # Saved as JSON numbers, integer names once gave a file load_model refused.
        path = tmp_path / "model.json"
        save_model(build_model(worked_posterior, class_names=(0, 1)), path)
        assert json.loads(path.read_text())["class_names"] == ["0", "1"]
        assert load_model(path)[0].class_names == ("0", "1")

    def test_scoring_bit_identical_after_reload(self, worked_posterior, tmp_path):
        model = build_model(worked_posterior, class_names=("a", "b"))
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded, _ = load_model(path)
        rng = np.random.default_rng(60)
        patterns = rng.normal(0.0, 2.0, size=(25, 1))
        prior = ClassPrior.uniform(2)
        for before, after in zip(score_batch(model, patterns, prior),
                                 score_batch(loaded, patterns, prior)):
            np.testing.assert_array_equal(before, after)

    @pytest.mark.parametrize("source", ["data", "hand-built"])
    def test_single_rows_bit_identical_after_reload(self, tmp_path, source):
        # load_model rebuilds every constant single-pattern scoring reads. A
        # hand-built posterior holds its means in row-major order, which
        # once summed the scoring centre in another order than a reload did.
        rng = np.random.default_rng(64)
        dim, n_classes = 3, 4
        if source == "data":
            ds = LabeledDataset(5.0 + rng.normal(size=(40, dim)),
                                rng.integers(0, n_classes, 40), tuple("abcd"))
            post = posterior(accumulate(ds), PriorHyper.noninformative(0.5))
        else:
            post = PosteriorMNW(rng.normal(5.0, 2.0, size=(dim, n_classes)),
                                rng.uniform(0.5, 20.0, size=n_classes), dim + 2.5,
                                np.eye(dim) + 0.3, source_r=0.5)
        model = build_model(post)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded, _ = load_model(path)
        prior = ClassPrior([0.1, 0.0, 0.6, 0.3])
        for x in rng.normal(5.0, 3.0, size=(10, dim)):
            assert (class_posterior(loaded, x, prior).tobytes()
                    == class_posterior(model, x, prior).tobytes())
            for k in range(n_classes):
                assert log_predictive(loaded, x, k) == log_predictive(model, x, k)
                assert (log_predictive_unnormalized(loaded, x, k)
                        == log_predictive_unnormalized(model, x, k))

    def test_awkward_floats_survive(self, tmp_path):
        # Shortest-repr decimal serialization must round-trip exactly.
        mu = np.array([[1.0 / 3.0, np.pi], [np.e, 2.0 ** -45]])
        c = np.array([1.0 / 7.0, 0.1 + 0.2])
        b = np.array([[1.000000000000001, 1e-13], [1e-13, 0.3333333333333333]])
        model = PredictiveModel(("u", "v"), mu, c, 9.000000000000002, 1.0 / 9.0, b)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded, r = load_model(path)
        assert r == 1.0 / 9.0
        np.testing.assert_array_equal(loaded.mu_star, mu)
        np.testing.assert_array_equal(loaded.c_star, c)
        np.testing.assert_array_equal(loaded.b_star, b)
        assert loaded.a_star == 9.000000000000002

    @pytest.mark.parametrize("dim", [1, 3])
    def test_file_is_compact_json(self, tmp_path, dim):
        rng = np.random.default_rng(dim)
        b = np.eye(dim) + 0.1
        model = PredictiveModel(("u", "v"), rng.normal(size=(dim, 2)),
                                np.array([0.5, 0.25]), dim + 4.0, 1.0, b)
        path = tmp_path / "model.json"
        save_model(model, path)
        text = path.read_text()
        assert text == json.dumps(json.loads(text)) + "\n"
        assert list(json.loads(text))[-1] == "b_star"


class TestLoadValidation:
    def write_doc(self, tmp_path, mutate):
        doc = {
            "version": 1,
            "dim": 1,
            "class_names": ["a"],
            "r": 1.0,
            "a_star": 3.0,
            "mu_star": [[0.5]],
            "c_star": [0.25],
            "b_star": [[2.0]],
        }
        mutate(doc)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        return path

    def test_not_json(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("definitely not json {")
        with pytest.raises(ParseError):
            load_model(path)

    def test_wrong_version(self, tmp_path):
        with pytest.raises(ParseError):
            load_model(self.write_doc(tmp_path, lambda d: d.update(version=99)))

    def test_missing_field(self, tmp_path):
        def drop(doc):
            del doc["b_star"]
        with pytest.raises(ParseError):
            load_model(self.write_doc(tmp_path, drop))

    def test_shape_mismatch(self, tmp_path):
        with pytest.raises(ParseError):
            load_model(self.write_doc(
                tmp_path, lambda d: d.update(mu_star=[[0.5], [0.7]])
            ))

    def test_dim_disagreeing_with_the_means(self, tmp_path):
        with pytest.raises(ParseError, match="does not match dim=2"):
            load_model(self.write_doc(tmp_path, lambda d: d.update(dim=2)))

    def test_sign_flipped_scale_matrix(self, tmp_path):
        with pytest.raises(DegenerateScatter):
            load_model(self.write_doc(
                tmp_path, lambda d: d.update(b_star=[[-2.0]])
            ))

    @pytest.mark.parametrize("field, value, found", [
        ("dim", 20.7, "float"),                     # was read as 20
        ("dim", True, "bool"),
        ("version", True, "bool"),                  # was equal to 1
        ("version", 1.0, "float"),
        ("a_star", "20000", "str"),                 # was converted
        ("r", False, "bool"),
        ("c_star", [True], "bool"),                 # was read as 1.0
        ("mu_star", [["0.5"]], "str"),
        ("b_star", [[2.0, None]], "NoneType"),
        ("b_star", [2.0], "float"),                 # a number where a row belongs
        ("class_names", [7], "int"),                # was read as "7"
        ("class_names", "a", "str"),
    ])
    def test_wrong_json_type_names_the_field(self, tmp_path, field, value, found):
        with pytest.raises(ParseError, match=f"^model field {field} holds {found}, expected"):
            load_model(self.write_doc(tmp_path, lambda d: d.update({field: value})))
