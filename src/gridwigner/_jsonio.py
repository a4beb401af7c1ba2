"""JSON files of the state, kernel and grid formats.

Writers send each table through the C encoder of :func:`json.dumps` one
row at a time, so a file is byte-identical to ``json.dump`` of the same
nested lists but is never held in memory as one string.  Readers accept
JSON numbers only: strings, booleans and nulls are rejected, not coerced.
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np


def write_json(path, obj: dict) -> None:
    """Write ``obj`` in key order; an ndarray value is a table written by rows.

    A complex table is written as ``[re, im]`` pairs.
    """
    with open(path, "w") as fh:
        fh.write("{")
        for i, (key, value) in enumerate(obj.items()):
            fh.write(f"{', ' if i else ''}{json.dumps(key)}: ")
            if not isinstance(value, np.ndarray):
                fh.write(json.dumps(value))
                continue
            if np.iscomplexobj(value):
                value = np.stack([value.real, value.imag], -1)
            fh.write("[")
            for j, row in enumerate(value):
                fh.write(f"{', ' if j else ''}{json.dumps(row.tolist())}")
            fh.write("]")
        fh.write("}")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def integer(value, what: str) -> int:
    """A JSON integer field; booleans and floats are rejected."""
    if type(value) is not int:
        raise ValueError(f"{what} must be a JSON integer, got {value!r}")
    return value


def number(value, what: str) -> float:
    """A JSON number field as a float; booleans and strings are rejected."""
    return float(number_table([[value]], 2, what)[0, 0])


def number_table(rows, ndim: int, what: str) -> np.ndarray:
    """Float array from ``ndim`` levels of nested JSON lists of numbers."""
    shape = [len(rows)]
    entries = rows
    for _ in range(ndim - 1):
        lengths = set(map(len, entries))
        if len(lengths) > 1:
            raise ValueError(f"{what} is not a rectangular table")
        shape.append(lengths.pop() if lengths else 0)
        entries = list(chain.from_iterable(entries))
    # np.array would coerce "0.5" and True; a type scan catches them even among floats
    odd = set(map(type, entries)) - {int, float}
    if odd:
        names = ", ".join(sorted(t.__name__ for t in odd))
        raise ValueError(f"{what} has entries that are not JSON numbers ({names})")
    try:
        return np.array(entries, dtype=float).reshape(shape)
    except OverflowError as exc:
        raise ValueError(f"{what}: {exc}") from exc


def complex_table(rows, dim: int, what: str) -> np.ndarray:
    """``dim x dim`` complex array from a table of ``[re, im]`` pairs."""
    pairs = number_table(rows, 3, what)
    if pairs.shape != (dim, dim, 2):
        raise ValueError(f"{what} does not match its dim field")
    return pairs.view(complex)[..., 0]
