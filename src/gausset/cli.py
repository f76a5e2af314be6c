"""Command-line front end.

Subcommands: fit, classify, tune-r, verify, gen-synth. ``tune-r --grid N
--out curve.csv`` also writes the evidence curve.
Exit codes: 0 success, 1 verification failure, 2 input error,
3 numerical degeneracy.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import math
import sys

import numpy as np

from . import evidence, model_io, montecarlo
from .dataset import accumulate, load_csv, load_features
from .errors import (
    DegenerateScatter,
    DomainError,
    GaussetError,
    InsufficientDof,
    NotPositiveDefinite,
)
from .inference import PriorHyper, posterior
from .predictive import build_model, score_batch

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_DEGENERATE = 3

_DEGENERATE_ERRORS = (DegenerateScatter, NotPositiveDefinite, InsufficientDof)
# After _DEGENERATE_ERRORS, every other library error is an input error.
_INPUT_ERRORS = (GaussetError, OSError, ValueError)
_WRITE_BLOCK = 1024  # rows _write_rows turns into Python floats at once


def _build_prior(args, dim: int) -> PriorHyper:
    for flag, value in (("--a", args.a), ("--eps", args.eps)):
        if value is not None and not math.isfinite(value):
            raise DomainError(f"{flag} must be finite, got {value}")
    if args.eps is None:
        if args.a > 0.0:
            raise DomainError("a > 0 requires --eps to stay proper")
        return PriorHyper(args.r, args.a)   # PriorHyper rejects a < 0
    if not args.eps > 0.0:
        raise DomainError(f"--eps must be positive, got {args.eps}")
    return PriorHyper(r=args.r, a=args.a, b=args.eps * np.eye(dim))


def _parse_class_prior(spec: str, n_classes: int):
    if spec == "uniform":
        return np.full(n_classes, 1.0 / n_classes)
    try:
        return np.array([float(p) for p in spec.split(",")])
    except ValueError:
        raise DomainError(f"cannot parse class prior {spec!r}") from None


def _write_rows(path, header, values, names, codes) -> None:
    """Write ``header``, then row i of ``values`` and ``names[codes[i]]``.

    Same bytes as ``csv.writer`` for rows of one float or more: floats in
    shortest ``repr``, each name quoted once by ``csv.writer`` on the row
    ``[0, name]`` (as inside any longer row), a block of rows at a time.
    """
    ends = []
    for name in names:
        cell = io.StringIO()
        csv.writer(cell).writerow([0, name])
        ends.append(cell.getvalue()[1:])  # the comma, the name, the terminator
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerow(header)
        for start in range(0, len(values), _WRITE_BLOCK):
            block = slice(start, start + _WRITE_BLOCK)
            handle.writelines(",".join(map(repr, row)) + ends[code] for row, code
                              in zip(values[block].tolist(), codes[block].tolist()))


def cmd_fit(args) -> int:
    ds = load_csv(args.data, label_column=args.label_col,
                  extra_classes=args.declare_class)
    stats = accumulate(ds)
    prior = _build_prior(args, stats.dim)
    post = posterior(stats, prior)
    model = build_model(post, class_names=ds.class_names)
    # By keyword: the bench's save_model span reads the path from it.
    model_io.save_model(model, path=args.out)
    print(f"fit: N={stats.dim} K={stats.n_classes} T={stats.total} "
          f"a_star={model.a_star!r} logdet_b_star={model.logdet_b_star!r}")
    print(f"model written to {args.out}")
    return EXIT_OK


def cmd_classify(args) -> int:
    model, _ = model_io.load_model(args.model)
    _, patterns = load_features(args.data)
    prior = _parse_class_prior(args.prior, model.n_classes)
    log_unnorm, posteriors, actions = score_batch(model, patterns, prior)
    values = np.hstack([log_unnorm, posteriors])
    del patterns, log_unnorm, posteriors  # only the output is held while it is written
    header = ([f"logpred_{n}" for n in model.class_names]
              + [f"posterior_{n}" for n in model.class_names]
              + ["action"])
    _write_rows(args.out, header, values, model.class_names, actions)
    print(f"scored {len(actions)} rows into {args.out}")
    return EXIT_OK


def cmd_tune_r(args) -> int:
    if args.grid < 0:
        raise DomainError(f"--grid must be >= 0, got {args.grid}")
    if args.out and not args.grid:
        raise DomainError("--out writes the evidence curve and needs --grid N >= 1")
    ds = load_csv(args.data, label_column=args.label_col,
                  extra_classes=args.declare_class)
    stats = accumulate(ds)
    tuned = evidence.tune_r(stats, args.r_min, args.r_max)
    print(f"tuned r = {tuned!r} "
          f"(log evidence {evidence.log_evidence_noninformative(stats, tuned)!r})")
    if args.grid:
        grid = np.geomspace(args.r_min, args.r_max, args.grid)
        curve = evidence.evidence_curve(stats, grid)
        if args.out:
            evidence.write_curve_csv(curve, args.out)
            print(f"evidence curve written to {args.out}")
        print(f"grid mode r = {curve.mode!r}")
    return EXIT_OK


def cmd_verify(args) -> int:
    # Any failure while verifying, including a model file that cannot even
    # be loaded or a sample count too large to allocate, is a verification
    # failure (exit 1), not an input error.
    try:
        model = model_io.load_model(args.model)[0] if args.model else None
        report = montecarlo.run_verification(args.seed, args.samples, model=model)
    except (GaussetError, OSError, MemoryError) as exc:
        error = str(exc) or type(exc).__name__
        print(f"FAIL verification aborted: {error}")
        print(json.dumps({"probes": [], "all_pass": False, "error": error}))
        return EXIT_VERIFY_FAILED
    for probe in report["probes"]:
        status = "PASS" if probe["pass"] else "FAIL"
        ess = f" ess={probe['ess']:.1f}" if "ess" in probe else ""
        print(f"{status} {probe['probe']}: closed_form={probe['closed_form']:.6g} "
              f"mc_estimate={probe['mc_estimate']:.6g} "
              f"std_error={probe['std_error']:.3g}{ess}")
    # RFC 8259 JSON has no Infinity or NaN, so those values go out as null.
    probes = [{key: None if isinstance(value, float) and not np.isfinite(value) else value
               for key, value in probe.items()} for probe in report["probes"]]
    print(json.dumps({**report, "probes": probes}, allow_nan=False))
    return EXIT_OK if report["all_pass"] else EXIT_VERIFY_FAILED


def cmd_gen_synth(args) -> int:
    counts = [int(c) for c in args.per_class.split(",")]
    if len(counts) == 1:
        counts = counts * args.classes
    if len(counts) != args.classes:
        raise DomainError(
            f"--per-class gives {len(counts)} counts for {args.classes} classes"
        )
    if not (math.isfinite(args.lambda_scale) and args.lambda_scale > 0.0):
        raise DomainError(f"--lambda-scale must be finite and positive, "
                          f"got {args.lambda_scale}")
    rng = montecarlo.seeded_generator(args.seed)
    precision = args.lambda_scale * np.eye(args.dim)
    ds, means = montecarlo.sample_dataset(rng, args.dim, counts, args.r_true,
                                          precision=precision)
    _write_rows(args.out, [f"x{i}" for i in range(args.dim)] + ["label"],
                ds.patterns, ds.class_names, ds.labels)
    sidecar = {
        "r_true": args.r_true,
        "seed": args.seed,
        "counts": dict(zip(ds.class_names, counts)),
        "means": {name: means[:, k].tolist() for k, name in enumerate(ds.class_names)},
        "precision": [row.tolist() for row in precision],
    }
    truth_path = str(args.out) + ".truth.json"
    with open(truth_path, "w", encoding="utf-8") as handle:
        json.dump(sidecar, handle, indent=1)
        handle.write("\n")
    print(f"wrote {ds.n_patterns} rows to {args.out}, ground truth to {truth_path}")
    return EXIT_OK


def _add_prior_flags(parser):
    parser.add_argument("--r", type=float, default=1.0,
                        help="mean-shrinkage precision (default 1.0)")
    parser.add_argument("--a", type=float, default=0.0,
                        help="prior degrees of freedom (default 0)")
    parser.add_argument("--eps", type=float, help="prior scale B = eps * I, eps > 0 "
                        "(without it B = 0 and --a must be 0)")


def _add_data_flags(parser):
    parser.add_argument("--data", required=True, help="input CSV path")
    parser.add_argument("--label-col", default="label",
                        help="name of the label column (default 'label')")
    parser.add_argument("--declare-class", action="append", default=[],
                        metavar="NAME",
                        help="declare a class that may have no data (repeatable)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gausset",
        description="Bayesian Gaussian classifier with shared covariance, "
                    "openset classes and evidence-tuned shrinkage.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a model from labeled CSV data")
    _add_data_flags(p)
    _add_prior_flags(p)
    p.add_argument("--out", required=True, help="output model file (JSON)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("classify", help="score an unlabeled CSV with a model")
    p.add_argument("--model", required=True, help="model file from fit")
    p.add_argument("--data", required=True, help="unlabeled feature CSV")
    p.add_argument("--out", required=True, help="output scored CSV")
    p.add_argument("--prior", default="uniform",
                   help="class prior: 'uniform' or comma list (default uniform)")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("tune-r", help="maximize the evidence over r")
    _add_data_flags(p)
    p.add_argument("--r-min", type=float, default=1e-3)
    p.add_argument("--r-max", type=float, default=1e3)
    p.add_argument("--grid", type=int, default=0,
                   help="also evaluate an N-point log grid")
    p.add_argument("--out", help="curve CSV path when --grid is given")
    p.set_defaults(func=cmd_tune_r)

    p = sub.add_parser("verify", help="run the Monte-Carlo oracle suite")
    p.add_argument("--seed", type=int, default=20260808)
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--model", help="check a fitted model file instead")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen-synth", help="sample a dataset from the model")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--per-class", default="10",
                   help="patterns per class: one int or a comma list")
    p.add_argument("--r-true", type=float, default=1.0)
    p.add_argument("--lambda-scale", type=float, default=1.0,
                   help="within-class precision is this times the identity")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen_synth)

    return parser


def main(argv=None) -> int:
    if argv is None:
        # This command owns the process: freeze the imported heap so the
        # full collections at interpreter shutdown skip it (about 20 ms).
        # An in-process main([...]) leaves its caller's GC alone.
        gc.freeze()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _DEGENERATE_ERRORS as exc:
        print(f"error (numerical degeneracy): {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except _INPUT_ERRORS as exc:
        print(f"error (input): {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
