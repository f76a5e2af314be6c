"""gausset benchmark: CLI pipeline timings and in-process scoring latency.

Run from the repository root, with nothing installed:

    python3 bench/run.py --workload tall --seed 1 --seconds 36 --trace 0

Each pass of a run imports gausset in fresh interpreters, runs fit,
classify, tune-r and verify, then makes closed-loop class_posterior calls
one pattern at a time. Workloads (BENCHMARK.json says why each exists):

    tall    N=20, K=10 trained classes + 1 declared empty, 20k training
            rows, 5k query rows, 2k closed-loop calls per pass
    wide    N=200, K=6 + 1, 600 training rows, 300 query rows, 2k calls
    online  the tall data with 5k closed-loop calls per pass

``--trace 0`` runs each CLI command as a fresh process and takes its wall
time and peak RSS from wait4 (launcher.py); the in-process caller is
timed per call. Each time is scaled to a reference host speed by a
calibration kernel timed on either side of it (see CAL_EXPONENT); the raw
medians are printed too, as ``*_wall_s``.
``--trace 1`` runs the same commands in this process through
``gausset.cli.main``, alternating untraced and traced passes; the per-layer
metrics come from spans around public library functions (spans.py) and
the tracing overhead is the traced pass's time minus the untraced one's.

Every output is checked against an independent numpy/scipy reference
(reference.py). The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os
import sys

# Pinned before numpy loads its BLAS, here and in every child process.
THREAD_VARS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_VARS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import data  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
from launcher import CHILD_TIMEOUT_S  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

FIT_R = 1.0
VERIFY_SEED = 20260808
SETUP_PER_PASS = 2   # spread over the run rather than bunched at its start
# On a 2-core cloud VM the speed of a CPU drifts by up to +-25% within
# seconds, and a run's median moves with it. Each time sample is therefore
# scaled by (CAL_REF_S / cal) ** CAL_EXPONENT, where cal is the mean time of
# calibration_s() just before and just after the sample. Over several
# hundred samples a command's log time moved 0.5 to 0.85 times as much as
# the kernel's (process start, page faults and file I/O slow less than the
# kernel's pure CPU work), hence the exponent below 1. CAL_REF_S is about
# the kernel's time on that VM, so scaled values stay near seconds.
CAL_REF_S = 0.035
CAL_EXPONENT = 0.65
# verify holds about three S x N x N float64 tensors at its peak, so one
# tensor may take at most this share of MemAvailable before it is refused.
FACTOR_MEM_SHARE = 0.125
LAYERS = ("dataset", "linalg", "inference", "predictive", "evidence",
          "model_io", "montecarlo", "cli")
COMMANDS = ("fit", "classify", "tune_r", "verify")
# Failures the program has today, as (workload, operation kind). Such a step
# still runs, is timed, and is printed with the error rate, but it is kept
# out of the gated attempted/failed counts. verify --model on wide completes,
# but Monte-Carlo estimates near 1e-3 of the closed form fail 3 of 4 probes.
KNOWN_DEFECTS = {("wide", "verify")}


@dataclass(frozen=True)
class Workload:
    shape: data.Shape
    online_calls: int      # class_posterior calls per pass


WORKLOADS = {
    "tall": Workload(data.TALL, online_calls=2000),
    "wide": Workload(data.WIDE, online_calls=2000),
    "online": Workload(data.TALL, online_calls=5000),
}


def calibration_s() -> float:
    """Time of a fixed mix of interpreter loops, float parsing and small
    numpy calls, the kinds of work the library's commands do."""
    start = time.perf_counter()
    for _ in range(5):
        a = np.arange(64.0)
        total = 0.0
        for i in range(4000):
            total += float(a[i & 63]) * 1.0001
        text = ",".join(repr(i * 0.1) for i in range(4000))
        total += sum(float(c) for c in text.split(","))
        m = np.eye(8) + 0.1
        for _ in range(200):
            total += float(np.linalg.solve(m, a[:8])[0])
    return time.perf_counter() - start


def calibrated(timeline) -> dict:
    """The time samples of ``timeline``, a list of (name, value) in the
    order taken with ("cal", seconds) entries between them, each scaled
    by the calibrations on either side of it."""
    cals = [(i, value) for i, (name, value) in enumerate(timeline) if name == "cal"]
    scaled = defaultdict(list)
    for i, (name, value) in enumerate(timeline):
        if name != "cal":
            around = [c for j, c in cals if j < i][-1:] + [c for j, c in cals if j > i][:1]
            scaled[name].append(value * (CAL_REF_S / statistics.fmean(around)) ** CAL_EXPONENT)
    return scaled


class Tally:
    """Operations attempted and failed, per kind.

    A failed output check or a non-zero exit fails the operation and turns
    ``correct`` false. A failure listed in KNOWN_DEFECTS is counted apart,
    in ``known``, and leaves ``correct`` alone.
    """

    def __init__(self):
        self.attempted = Counter()
        self.failed = Counter()
        self.known = Counter()
        self.correct = True
        self.problems = []

    def record(self, kind, problems=(), attempts=1, failures=None):
        self.attempted[kind] += attempts
        self.failed[kind] += (1 if problems else 0) if failures is None else failures
        if problems:
            self.problems.extend(f"{kind}: {p}" for p in problems)
            self.correct = False

    def record_known(self, kind, problems):
        self.known[kind] += 1
        self.problems.extend(f"{kind} (known defect): {p}" for p in problems)


@dataclass
class Run:
    code: int
    wall_s: float
    rss_mb: float | None
    stdout: str
    stderr: str


def child_env() -> dict:
    env = dict(os.environ, **THREAD_VARS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


class Launcher:
    """Client of launcher.py, which starts each child process and reports
    its wall time and peak RSS. Stops the launcher when the block ends."""

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(), text=True)
        return self

    def __exit__(self, *exc_info):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def run(self, argv, work: Path) -> Run:
        """One fresh ``python3 *argv`` process in ``work``."""
        out, err = work / "child.out", work / "child.err"
        request = {"argv": [sys.executable, *map(str, argv)], "cwd": str(work),
                   "stdout": str(out), "stderr": str(err)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return Run(reply["code"], reply["wall_s"], reply["rss_kb"] / 1024.0,
                   out.read_text(encoding="utf-8", errors="replace"),
                   err.read_text(encoding="utf-8", errors="replace"))


def run_cli_inprocess(argv, tracer) -> Run:
    from gausset import cli

    out, err = io.StringIO(), io.StringIO()
    span = (tracer.span(f"cli.{argv[0].replace('-', '_')}") if tracer
            else contextlib.nullcontext())
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
        try:
            code = cli.main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a library fault is one failed operation, as in a child
            traceback.print_exc()
            code = 1
    return Run(code, time.perf_counter() - start, None, out.getvalue(), err.getvalue())


def mem_available_bytes() -> int:
    with open("/proc/meminfo", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) * 1024
    raise OSError("no MemAvailable in /proc/meminfo")


def factor_bytes(shape: data.Shape) -> int:
    """Computed size of verify's (S, N, N) float64 Bartlett tensor."""
    return shape.samples * shape.dim * shape.dim * 8


class Bench:
    """One benchmark run: inputs, references, tallies and samples."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.workload = WORKLOADS[name]
        self.shape = self.workload.shape
        self.work = work
        self.model_path = work / "model.json"
        self.inputs = data.generate(self.shape, seed, work)
        stats = reference.RefStats.from_data(self.inputs.train_x, self.inputs.train_y,
                                             self.inputs.class_names)
        self.ref_stats = stats
        self.ref_model = stats.model(FIT_R)
        self.ref_scores = self.ref_model.log_scores(self.inputs.query_x)
        self.grid = reference.curve_grid(self.shape.grid)
        self.ref_curve = np.array([stats.log_evidence(r) for r in self.grid])
        self.tally = Tally()
        self.samples = defaultdict(list)   # peak RSS per command
        self.timeline = []                 # time samples and calibrations, in order
        self.latencies_us = []
        self.online_model = None
        self.online_offset = 0

    def calibrate(self):
        self.timeline.append(("cal", calibration_s()))

    def _timed(self, metric, run: Run):
        self.timeline.append((f"{metric}_s", run.wall_s))
        if run.rss_mb is not None and metric != "tune_r":
            self.samples[f"{metric}_rss_mb"].append(run.rss_mb)

    @staticmethod
    def _exit_problems(run: Run):
        if run.code == 0:
            return []
        tail = (run.stderr.strip().splitlines() or [""])[-1]
        return [f"exit code {run.code}: {tail}"]

    def setup(self, launcher: Launcher):
        for _ in range(SETUP_PER_PASS):
            run = launcher.run(["-c", "import gausset"], self.work)
            self.timeline.append(("setup_s", run.wall_s))
            self.tally.record("setup", self._exit_problems(run))

    def fit(self, execute):
        self.model_path.unlink(missing_ok=True)
        run = execute(["fit", "--data", self.inputs.train_csv, "--out", self.model_path,
                       "--r", repr(FIT_R), "--declare-class", data.EMPTY_CLASS])
        self._timed("fit", run)
        self.tally.record("fit", self._exit_problems(run)
                          or reference.check_model(self.model_path, self.ref_model, FIT_R))

    def classify(self, execute):
        scored = self.work / "scored.csv"
        scored.unlink(missing_ok=True)
        run = execute(["classify", "--model", self.model_path,
                       "--data", self.inputs.query_csv, "--out", scored])
        self._timed("classify", run)
        self.tally.record("classify", self._exit_problems(run)
                          or reference.check_scored(scored, self.ref_model,
                                                    self.ref_scores))

    def tune_r(self, execute):
        curve = self.work / "curve.csv"
        curve.unlink(missing_ok=True)
        run = execute(["tune-r", "--data", self.inputs.train_csv,
                       "--grid", self.shape.grid, "--out", curve])
        self._timed("tune_r", run)
        self.tally.record("tune_r", self._exit_problems(run)
                          or reference.check_curve(curve, self.grid, self.ref_curve)
                          + reference.check_tuned(run.stdout, self.ref_stats,
                                                  self.ref_curve))

    def verify(self, execute):
        limit = FACTOR_MEM_SHARE * mem_available_bytes()
        if factor_bytes(self.shape) > limit:
            self.tally.record("verify", [f"refused: factor_bytes "
                                         f"{factor_bytes(self.shape)} exceeds {limit:.0f}"])
            return
        run = execute(["verify", "--model", self.model_path,
                       "--samples", self.shape.samples, "--seed", VERIFY_SEED])
        self._timed("verify", run)
        self.check_verify(run)

    def check_verify(self, run: Run):
        report = reference.parse_verify(run.stdout)
        if report is None:
            self.tally.record("verify", self._exit_problems(run) or ["no report"])
            return
        failing = [p["probe"] for p in report.get("probes", []) if not p.get("pass")]
        if run.code == 0 and report["all_pass"]:
            self.tally.record("verify")
        # The known defect is a verification that ran its probes and failed
        # some; an aborted one (no probes, an error) is not.
        elif failing and "error" not in report and (self.name, "verify") in KNOWN_DEFECTS:
            self.tally.record_known("verify", [f"exit code {run.code}, "
                                               f"failing probes {failing}"])
        else:
            self.tally.record("verify", [f"exit code {run.code}, failing probes {failing}, "
                                         f"error {report.get('error')}"])

    def online_pass(self, calls: int):
        """One in-process caller: class_posterior + decide, one pattern at a time."""
        from gausset import model_io, predictive
        from gausset.errors import GaussetError

        if self.online_model is None:
            try:
                self.online_model, _ = model_io.load_model(self.model_path)
            except (GaussetError, OSError) as exc:
                self.tally.record("online", [f"model load failed: {exc}"], attempts=calls,
                                  failures=calls)
                return
        model = self.online_model
        names = list(model.class_names)
        order = [self.inputs.class_names.index(n) for n in names]
        prior = predictive.ClassPrior.uniform(model.n_classes)
        costs = predictive.zero_one_costs(model.n_classes)
        class_posterior, decide = predictive.class_posterior, predictive.decide
        rows = self.inputs.query_x
        index = (self.online_offset + np.arange(calls)) % rows.shape[0]
        self.online_offset = int(index[-1]) + 1
        probs = np.full((calls, model.n_classes), np.nan)
        actions = [""] * calls
        clock = time.perf_counter_ns
        latencies_us = []
        for j, i in enumerate(index.tolist()):
            x = rows[i]
            start = clock()
            try:
                p = class_posterior(model, x, prior)
                a = decide(p, costs)
            except (GaussetError, ValueError) as exc:
                p, a = exc, None
            latencies_us.append((clock() - start) / 1e3)
            if a is None:
                actions[j] = f"error: {p}"
            else:
                probs[j], actions[j] = p, names[a]
        self.latencies_us.extend(latencies_us)
        self.timeline.append(("score_one_us", statistics.fmean(latencies_us)))
        ref_probs = reference.posteriors(self.ref_scores[index][:, order])
        bad = np.flatnonzero(reference.bad_rows(names, probs, actions, ref_probs))
        problems = [reference.describe_row("online", int(bad[0]), names, probs, actions,
                                           ref_probs)] if bad.size else []
        self.tally.record("online", problems, attempts=calls, failures=int(bad.size))

    def run_pass(self, execute):
        """Each CLI command, checked, then a share of the closed-loop calls;
        spreading the calls over the pass samples more moments of a machine
        whose speed drifts."""
        share = self.workload.online_calls // len(COMMANDS)
        for command in (self.fit, self.classify, self.tune_r, self.verify):
            self.calibrate()
            command(execute)
            self.calibrate()
            self.online_pass(share)

    def measure(self, seconds: float, launcher: Launcher):
        """Untraced run: fresh processes for the CLI, per-call online latency."""
        deadline = time.perf_counter() + seconds

        def execute(argv):
            return launcher.run(["-m", "gausset.cli", *argv], self.work)

        while True:
            start = time.perf_counter()
            self.calibrate()
            self.setup(launcher)
            self.run_pass(execute)
            now = time.perf_counter()
            if now + (now - start) > deadline:
                self.calibrate()
                return

    def end_to_end(self) -> dict:
        metrics = {}
        for name, values in sorted(self.samples.items()):
            metrics[name] = (statistics.median(values), "MB", len(values))
        raw = defaultdict(list)
        for name, value in self.timeline:
            raw[name].append(value)
        for name, values in sorted(calibrated(self.timeline).items()):
            if name.endswith("_s"):
                metrics[name] = (statistics.median(values), "s", len(values))
                metrics[name[:-2] + "_wall_s"] = (statistics.median(raw[name]), "s",
                                                  len(values))
        lat = self.latencies_us
        if lat:
            # The mean, not the median: a closed-loop caller's throughput is
            # 1 / mean latency, and on a host whose speed switches between two
            # states the median jumps between them while the mean moves
            # smoothly. Every pass makes the same number of calls, so the
            # mean of the per-pass means is the mean over all calls.
            shares = calibrated(self.timeline)["score_one_us"]
            metrics["score_one_us"] = (statistics.fmean(shares), "us", len(lat))
            metrics["score_one_wall_us"] = (statistics.fmean(lat), "us", len(lat))
            metrics["score_one_median_us"] = (statistics.median(lat), "us", len(lat))
            metrics["score_one_p99_us"] = (float(np.quantile(lat, 0.99)), "us", len(lat))
        return metrics

    def measure_traced(self, seconds: float):
        """Traced run: in-process passes, untraced and traced in turn."""
        import gausset.cli  # noqa: F401  (not inside the first timed pass)

        deadline = time.perf_counter() + seconds
        per_pass = defaultdict(list)
        pairs = 0
        while True:
            start = time.perf_counter()
            # Alternate which side runs first, so warm-up lands on both.
            if pairs % 2 == 0:
                untraced = self._inprocess_pass(None)
            tracer = spans.Tracer()
            with spans.installed(tracer):
                traced = self._inprocess_pass(tracer)
            if pairs % 2 == 1:
                untraced = self._inprocess_pass(None)
            for name, value in layer_metrics(tracer).items():
                per_pass[name].append(value)
            per_pass["trace.overhead_s"].append(traced - untraced)
            pairs += 1
            now = time.perf_counter()
            if now + (now - start) > deadline:
                break
        return {name: statistics.median(values) for name, values in per_pass.items()}, pairs

    def _inprocess_pass(self, tracer) -> float:
        start = time.perf_counter()
        self.run_pass(lambda argv: run_cli_inprocess(argv, tracer))
        return time.perf_counter() - start

    def environment(self, seed: int) -> dict:
        import scipy

        try:
            blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
            blas = f"{blas['name']} {blas['version']}"
        except (TypeError, KeyError):
            blas = "unknown"
        inputs = self.inputs
        return {
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "pinned_cpu": sorted(os.sched_getaffinity(0)),
            "blas": blas, "blas_threads": THREAD_VARS,
            "seed": seed, "verify_seed": VERIFY_SEED,
            "train": list(inputs.train_x.shape), "query": list(inputs.query_x.shape),
            "classes": len(inputs.class_names), "grid": self.shape.grid,
            "samples": self.shape.samples, "factor_bytes": factor_bytes(self.shape),
            "calibration": {"ref_s": CAL_REF_S, "exponent": CAL_EXPONENT},
        }


# Inclusive span time reported for each per-layer ``_s`` metric.
SPAN_TIMES = {
    "dataset.load_csv_s": "dataset.load_csv",
    "dataset.load_features_s": "dataset.load_features",
    "dataset.accumulate_s": "dataset.accumulate",
    "linalg.cholesky_s": "linalg.cholesky",
    "linalg.quadform_s": "linalg.quadform",
    "inference.posterior_s": "inference.posterior",
    "predictive.build_model_s": "predictive.build_model",
    "predictive.score_batch_s": "predictive.score_batch",
    "evidence.tune_r_s": "evidence.tune_r",
    "evidence.curve_s": "evidence.evidence_curve",
    "evidence.write_curve_s": "evidence.write_curve_csv",
    "model_io.save_s": "model_io.save_model",
    "model_io.load_s": "model_io.load_model",
    "montecarlo.run_verification_s": "montecarlo.run_verification",
    "montecarlo.mc_predictive_s": "montecarlo.mc_predictive",
}


def layer_metrics(tr: spans.Tracer) -> dict:
    """Per-layer metrics of one traced pass."""
    m = {metric: tr.total_s(span) for metric, span in SPAN_TIMES.items()}
    m["linalg.cholesky_calls"] = len(tr.durations_s("linalg.cholesky"))
    m["linalg.quadform_calls"] = len(tr.durations_s("linalg.quadform"))
    m["dataset.cells"] = tr.counts["dataset.cells"]
    m["dataset.cells_per_s"] = m["dataset.cells"] / (
        m["dataset.load_csv_s"] + m["dataset.load_features_s"])
    m["predictive.rows_per_s"] = tr.counts["predictive.rows"] / m["predictive.score_batch_s"]
    m["predictive.class_posterior_us"] = tr.median_us("predictive.class_posterior")
    m["evidence.tune_r_probes"] = tr.count_under("evidence.log_evidence_noninformative",
                                                 "evidence.tune_r")
    m["evidence.curve_points"] = tr.counts["evidence.curve_points"]
    m["model_io.file_bytes"] = tr.counts["model_io.file_bytes"]
    m["montecarlo.samples"] = tr.counts["montecarlo.samples"]
    m["montecarlo.factor_bytes"] = tr.counts["montecarlo.factor_bytes"]
    own = tr.self_times_s()
    for command in COMMANDS:
        m[f"cli.{command}_self_s"] = own.get(f"cli.{command}", 0.0)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in own.items() if k.split(".")[0] == layer)
    return m


def load_declared(section: str) -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return {m["name"]: m for m in json.load(handle)[section]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gausset" / "__init__.py").is_file():
        print(f"error: no gausset sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One CPU for this process and every child: the host's vCPUs drift in
    # speed independently, and a process that migrates mixes their states.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    declared = load_declared("per_layer" if args.trace else "end_to_end")

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        bench = Bench(args.workload, args.seed, work)
        print("env " + json.dumps(bench.environment(args.seed)))
        if args.trace:
            values, pairs = bench.measure_traced(args.seconds)
            rows = {name: (value, declared[name]["unit"], pairs)
                    for name, value in values.items() if name in declared}
        else:
            with Launcher() as launcher:
                bench.measure(args.seconds, launcher)
            rows = bench.end_to_end()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    tally = bench.tally
    attempted, failed = sum(tally.attempted.values()), sum(tally.failed.values())
    known = sum(tally.known.values())
    for name, (value, unit, n) in rows.items():
        print(f"{args.workload:7s} {name:34s} {value:14.6g} {unit:10s} n={n}")
    for kind in tally.attempted:
        print(f"{args.workload:7s} error_rate[{kind}] {tally.failed[kind]}/"
              f"{tally.attempted[kind]}")
    for kind, count in tally.known.items():
        rss = bench.samples.get(f"{kind}_rss_mb")
        print(f"{args.workload:7s} KNOWN DEFECT {kind} failed {count}/{count} "
              f"(not in the gated counts), factor_bytes {factor_bytes(bench.shape)}"
              + (f", rss {statistics.median(rss):.1f} MB" if rss else ""))
    # error_rate counts the known defects; the JSON's attempted/failed do not.
    print(f"{args.workload:7s} error_rate {(failed + known) / (attempted + known):.6g} "
          f"ratio ({failed + known}/{attempted + known})")
    for problem in tally.problems[:10]:
        print(f"FAIL {problem}")
    missing = sorted(set(declared) - set(rows))
    if missing:
        print(f"missing metrics: {missing}")
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit, _) in rows.items() if name in declared}
    print(json.dumps({"correct": tally.correct and not missing, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
