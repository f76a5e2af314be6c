"""Seeded benchmark inputs: a labelled training CSV, a query CSV and the
query rows' true labels.

The data follow the model's generative story with identity within-class
precision: each class mean is Normal(0, I) and each pattern is
Normal(mean, I). Training rows come from the trained classes only. Query
rows come from those and from one more class, declared at fit time but
absent from training, so openset scoring is exercised.

Only plain numpy is used (never ``gausset gen-synth`` or
``sample_dataset``), so a change to the library's random streams cannot
change what the benchmark feeds it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

EMPTY_CLASS = "unknown"


@dataclass(frozen=True)
class Shape:
    """Input sizes and command settings of one workload."""

    dim: int
    n_classes: int         # trained classes; EMPTY_CLASS comes on top
    train_per_class: int
    n_query: int
    grid: int              # tune-r --grid
    samples: int           # verify --samples


# Ingest and per-row scoring dominate; every N x N factorisation is 20 x 20.
TALL = Shape(dim=20, n_classes=10, train_per_class=2000, n_query=5000,
             grid=100, samples=20000)
# N x N factorisations dominate. T = 600 >= N + K keeps the within-class
# scatter nonsingular; S stays small because verify holds S x N x N tensors.
WIDE = Shape(dim=200, n_classes=6, train_per_class=100, n_query=300,
             grid=400, samples=200)


@dataclass(frozen=True)
class Inputs:
    """Generated arrays and the files written from them.

    Labels are indices into ``class_names``, whose last entry is
    ``EMPTY_CLASS``. The CSV cells are written with 17 significant digits,
    so the program parses exactly the floats held here.
    """

    class_names: tuple
    train_x: np.ndarray
    train_y: np.ndarray
    query_x: np.ndarray
    query_y: np.ndarray
    train_csv: Path
    query_csv: Path
    truth_csv: Path


def _write_rows(path: Path, header, rows: np.ndarray, labels=None) -> None:
    fmt = ",".join(["%.17g"] * rows.shape[1])
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(header) + "\n")
        if labels is None:
            handle.writelines(fmt % tuple(row) + "\n" for row in rows.tolist())
        else:
            fmt += ",%s\n"
            handle.writelines(fmt % (*row, label)
                              for row, label in zip(rows.tolist(), labels))


def generate(shape: Shape, seed: int, out_dir: Path) -> Inputs:
    """Draw one workload's inputs from ``seed`` and write them to ``out_dir``."""
    rng = np.random.Generator(np.random.PCG64(seed))
    names = tuple(f"c{k}" for k in range(shape.n_classes)) + (EMPTY_CLASS,)
    means = rng.standard_normal((len(names), shape.dim))
    train_y = rng.permutation(np.repeat(np.arange(shape.n_classes),
                                        shape.train_per_class))
    train_x = means[train_y] + rng.standard_normal((train_y.size, shape.dim))
    query_y = rng.integers(0, len(names), size=shape.n_query)
    query_x = means[query_y] + rng.standard_normal((shape.n_query, shape.dim))

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    features = [f"x{i}" for i in range(shape.dim)]
    inputs = Inputs(names, train_x, train_y, query_x, query_y,
                    out_dir / "train.csv", out_dir / "query.csv",
                    out_dir / "query_truth.csv")
    _write_rows(inputs.train_csv, features + ["label"], train_x,
                [names[k] for k in train_y])
    _write_rows(inputs.query_csv, features, query_x)
    with open(inputs.truth_csv, "w", encoding="utf-8", newline="") as handle:
        handle.write("label\n")
        handle.writelines(names[k] + "\n" for k in query_y)
    return inputs
