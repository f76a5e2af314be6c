"""Model persistence: one compact JSON file, bit-exact float round trips.

Floats are written with Python's shortest-round-trip decimal repr
(at most 17 significant digits), so read(write(model)) reproduces every
parameter bit for bit and scoring after a reload is identical to
scoring in memory.
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np

from .errors import DomainError, ParseError, ShapeMismatch
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


_NUMBER = (int, float)   # what json gives for a number; bool is neither


def _typed(doc, name, kinds, depth=0):
    """``doc[name]``, a ParseError naming the field unless it is lists
    nested ``depth`` deep whose entries each have a type in ``kinds``."""
    level = [doc[name]]
    for want in [(list,)] * depth + [kinds]:
        found = set(map(type, level)).difference(want)
        if found:
            raise ParseError(f"model field {name} holds {found.pop().__name__}, "
                             f"expected {' or '.join(kind.__name__ for kind in want)}")
        if want is not kinds:
            level = list(chain.from_iterable(level))
    return doc[name]


def load_model(path):
    """Read a model file. Returns ``(model, r)``.

    The model's constructor validates the stored parameters and derives
    the rest from them, as for a fresh build, so the loaded model scores
    bit-identically. Its ``DomainError`` or ``ShapeMismatch`` becomes a
    :class:`ParseError` with the same message; other errors pass through.
    """
    with open(path, encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ParseError(f"model file is not valid JSON: {exc}") from exc
    try:
        version = _typed(doc, "version", (int,))
        if version != FORMAT_VERSION:
            raise ParseError(f"unsupported model file version {version!r}")
        dim = _typed(doc, "dim", (int,))
        class_names = tuple(_typed(doc, "class_names", (str,), depth=1))
        r = float(_typed(doc, "r", _NUMBER))
        a_star = float(_typed(doc, "a_star", _NUMBER))
        mu_star = np.asarray(_typed(doc, "mu_star", _NUMBER, depth=2), dtype=np.float64).T
        c_star = np.asarray(_typed(doc, "c_star", _NUMBER, depth=1), dtype=np.float64)
        b_star = np.asarray(_typed(doc, "b_star", _NUMBER, depth=2), dtype=np.float64)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"model file is missing or malforms a field: {exc}") from exc
    if mu_star.shape[:1] != (dim,):
        raise ParseError(f"mean matrix shape {mu_star.shape} does not match dim={dim}")
    try:
        return PredictiveModel(class_names, mu_star, c_star, a_star, r, b_star), r
    except (DomainError, ShapeMismatch) as exc:
        raise ParseError(str(exc)) from exc
