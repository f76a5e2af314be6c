"""Model persistence: one compact JSON file, bit-exact float round trips.

Floats are written with Python's shortest-round-trip decimal repr
(at most 17 significant digits), so read(write(model)) reproduces every
parameter bit for bit and scoring after a reload is identical to
scoring in memory.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ParseError
from .predictive import PredictiveModel

FORMAT_VERSION = 1


def save_model(model: PredictiveModel, path) -> None:
    """Write a predictive model to JSON."""
    doc = {
        "version": FORMAT_VERSION,
        "dim": model.dim,
        "class_names": list(model.class_names),
        "r": model.r,
        "a_star": float(model.a_star),
        "mu_star": [model.mu_star[:, k].tolist() for k in range(model.n_classes)],
        "c_star": model.c_star.tolist(),
    }
    with open(path, "w", encoding="utf-8") as handle:
        # The text of json.dumps(doc | {"b_star": rows}). json.dumps takes
        # json's C encoder (json.dump does not), but that encoder holds one
        # string per float until it returns, so B* goes one row per call.
        handle.write(json.dumps(doc)[:-1] + ', "b_star": [')
        for i, row in enumerate(model.b_star):
            handle.write((", " if i else "") + json.dumps(row.tolist()))
        handle.write("]}\n")


def load_model(path):
    """Read a model file. Returns ``(model, r)``.

    The model's constructor derives the Cholesky factor, log normalizers
    and scoring centre from the stored parameters, as for a fresh build,
    so the loaded model scores bit-identically.
    """
    with open(path, encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ParseError(f"model file is not valid JSON: {exc}") from exc
    try:
        version = doc["version"]
        if version != FORMAT_VERSION:
            raise ParseError(f"unsupported model file version {version!r}")
        dim = int(doc["dim"])
        class_names = tuple(str(n) for n in doc["class_names"])
        r = float(doc["r"])
        a_star = float(doc["a_star"])
        mu_star = np.asarray(doc["mu_star"], dtype=np.float64).T
        c_star = np.asarray(doc["c_star"], dtype=np.float64)
        b_star = np.asarray(doc["b_star"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"model file is missing or malforms a field: {exc}") from exc
    if mu_star.size == 0 or mu_star.shape != (dim, len(class_names)):
        raise ParseError(
            f"mean matrix shape {mu_star.shape} does not match dim={dim}, "
            f"K={len(class_names)}"
        )
    if b_star.shape != (dim, dim) or c_star.shape != (len(class_names),):
        raise ParseError("scale matrix or c* vector has the wrong shape")
    # json reads NaN and Infinity; none of them may reach the scorer.
    for name, value in (("r", r), ("a_star", a_star), ("mu_star", mu_star),
                        ("c_star", c_star), ("b_star", b_star)):
        if not np.all(np.isfinite(value)):
            raise ParseError(f"model field {name} holds a non-finite value")
    return PredictiveModel(class_names, mu_star, c_star, a_star, r, b_star), r
