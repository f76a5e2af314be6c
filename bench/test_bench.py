"""Self-tests of the benchmark: reference, generator, failure accounting, spans.

Run from the repository root:

    python3 -m pytest -q bench
"""

import json
import sys

import numpy as np
import pytest

import data
import reference
import run
import spans

sys.path.insert(0, str(run.SRC))

import gausset  # noqa: E402
from gausset import cli, linalg  # noqa: E402

TINY = data.Shape(dim=3, n_classes=2, train_per_class=20, n_query=12, grid=7, samples=500)


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setitem(run.WORKLOADS, "tiny", run.Workload(TINY, online_calls=12))
    return run.Bench("tiny", 5, tmp_path)


def inprocess(tracer=None):
    return lambda argv: run.run_cli_inprocess(argv, tracer)


def test_reference_matches_library_on_worked_example():
    # Class "a" holds {1, 3}, class "b" holds {2}; at r = 1 the hand values
    # are a* = 3, mu* = (4/3, 1), c* = (1/3, 1/2) and B* = 20/3.
    x = np.array([[1.0], [3.0], [2.0]])
    y = np.array([0, 0, 1])
    stats = reference.RefStats.from_data(x, y, ("a", "b"))
    ref = stats.model(1.0)
    assert ref.a_star == 3.0
    np.testing.assert_allclose(ref.mu_star[:, 0], [4.0 / 3.0, 1.0], rtol=1e-15)
    np.testing.assert_allclose(ref.c_star, [1.0 / 3.0, 0.5], rtol=1e-15)
    np.testing.assert_allclose(ref.b_star, [[20.0 / 3.0]], rtol=1e-15)

    lib_stats = gausset.accumulate(gausset.LabeledDataset(x, y, ("a", "b")))
    model = gausset.build_model(
        gausset.posterior(lib_stats, gausset.PriorHyper.noninformative(1.0)))
    probes = np.array([[-4.0], [0.0], [1.5], [2.0], [9.0]])
    lib_scores = [[gausset.log_predictive_unnormalized(model, p, k) for k in range(2)]
                  for p in probes]
    np.testing.assert_allclose(ref.log_scores(probes), lib_scores, rtol=1e-13)
    for r in (0.01, 1.0, 7.5, 300.0):
        assert stats.log_evidence(r) == pytest.approx(
            gausset.log_evidence_noninformative(lib_stats, r), rel=1e-13)


def test_generator_is_byte_identical_for_a_seed(tmp_path):
    names = ("train.csv", "query.csv", "query_truth.csv")
    data.generate(TINY, 9, tmp_path / "a")
    data.generate(TINY, 9, tmp_path / "b")
    data.generate(TINY, 10, tmp_path / "c")
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert (tmp_path / "a" / "train.csv").read_bytes() != (
        tmp_path / "c" / "train.csv").read_bytes()


def test_clean_pass_has_no_failures(tiny):
    tiny.run_pass(inprocess())
    assert tiny.tally.problems == []
    assert sum(tiny.tally.failed.values()) == 0
    assert tiny.tally.correct
    assert tiny.tally.attempted["online"] == 12


def test_corrupted_classify_csv_counts_as_failed(tiny):
    execute = inprocess()

    def corrupting(argv):
        result = execute(argv)
        if argv[0] == "classify":
            path = argv[argv.index("--out") + 1]
            lines = path.read_text().splitlines()
            cells = lines[3].split(",")
            cells[0] = repr(float(cells[0]) + 1e-3)
            lines[3] = ",".join(cells)
            path.write_text("\n".join(lines) + "\n")
        return result

    tiny.run_pass(corrupting)
    assert tiny.tally.failed == {"classify": 1, "fit": 0, "tune_r": 0, "verify": 0,
                                 "online": 0}
    assert not tiny.tally.correct
    assert "log score" in tiny.tally.problems[0]


FAILED_PROBE = json.dumps({"probes": [{"probe": "p", "pass": False}], "all_pass": False})
ABORTED = json.dumps({"probes": [], "all_pass": False, "error": "bad model"})


def test_verify_failure_marks_outputs_wrong(tiny):
    tiny.check_verify(run.Run(1, 0.1, None, FAILED_PROBE, ""))
    assert tiny.tally.failed["verify"] == 1
    assert not tiny.tally.correct


def test_known_verify_defect_is_counted_apart(tiny, monkeypatch):
    monkeypatch.setattr(run, "KNOWN_DEFECTS", {("tiny", "verify")})
    tiny.check_verify(run.Run(1, 0.1, None, FAILED_PROBE, ""))
    assert tiny.tally.known["verify"] == 1 and tiny.tally.failed["verify"] == 0
    assert tiny.tally.correct
    # An aborted verification or a crash is not the known defect.
    tiny.check_verify(run.Run(1, 0.1, None, ABORTED, ""))
    tiny.check_verify(run.Run(1, 0.1, None, "", "Traceback"))
    assert tiny.tally.known["verify"] == 1 and tiny.tally.failed["verify"] == 2
    assert not tiny.tally.correct


def test_inprocess_library_fault_is_a_failed_operation(monkeypatch):
    def broken(*_args, **_kwargs):
        raise np.linalg.LinAlgError("boom")

    monkeypatch.setattr(cli, "main", broken)
    result = run.run_cli_inprocess(["fit"], None)
    assert result.code == 1 and "LinAlgError: boom" in result.stderr


def test_calibration_scales_each_sample_by_its_neighbours():
    ref, exp = run.CAL_REF_S, run.CAL_EXPONENT
    timeline = [("cal", ref), ("fit_s", 1.0), ("cal", 2 * ref), ("fit_s", 1.0),
                ("cal", 2 * ref), ("score_one_us", 300.0), ("cal", 3 * ref)]
    scaled = run.calibrated(timeline)
    assert scaled["fit_s"] == pytest.approx([1.5 ** -exp, 2.0 ** -exp])
    assert scaled["score_one_us"] == pytest.approx([300.0 * 2.5 ** -exp])


def test_launcher_reports_the_childs_own_peak_rss(tmp_path):
    ballast = np.ones(100 * 2**20 // 8)   # lift this process's peak by 100 MiB
    with run.Launcher() as launcher:
        small = launcher.run(["-c", "pass"], tmp_path)
        big = launcher.run(["-c", "b = bytearray(200 * 2**20)"], tmp_path)
        failing = launcher.run(["-c", "raise SystemExit(3)"], tmp_path)
    assert ballast.sum() > 0 and small.code == 0 and failing.code == 3
    assert small.rss_mb < 50 < 200 < big.rss_mb
    assert small.wall_s > 0


def test_traced_pass_reports_every_per_layer_metric(tiny):
    originals = (linalg.cholesky, cli.load_csv)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        # cli's own imported name and the defining module share one wrapper.
        assert cli.load_csv is gausset.dataset.load_csv is not originals[1]
        tiny.run_pass(inprocess(tracer))
    assert (linalg.cholesky, cli.load_csv) == originals
    metrics = run.layer_metrics(tracer)
    declared = set(run.load_declared("per_layer")) - {"trace.overhead_s"}
    assert declared <= set(metrics)
    assert metrics["dataset.cells"] == 2 * TINY.dim * TINY.n_classes * TINY.train_per_class \
        + TINY.dim * TINY.n_query
    assert metrics["predictive.class_posterior_us"] > 0
    assert metrics["montecarlo.samples"] == 3 * TINY.samples
    assert metrics["evidence.curve_points"] == TINY.grid
    assert all(metrics[f"cli.{c}_self_s"] > 0 for c in run.COMMANDS)
