"""JSON files of the state, kernel and grid formats, the CSV grid and
convergence tables, and the one opener of every output file.

Every writer of the package, JSON and CSV, opens its file with
:func:`open_out`, which rewrites a file in place: the old blocks are
reused and only the tail beyond the new text is trimmed.  Writers write a
table one row at a time (all lines of a CSV grid row at once), so a file is
never held in memory as one string.  A JSON file is byte-identical to
``json.dump`` of the same nested lists, each row the text :func:`json.dumps`
gives it; a CSV value is its ``%.17g`` text, a level or size its ``%d``.
A finite JSON table of ``VECTOR_MIN`` floats or more, and a finite CSV grid of ``CSV_MIN``
values or more, go through :mod:`._floattext`, which formats a block of rows at a time in
numpy to the same bytes, holding that block (a Hermitian state also the cells it mirrors, up to
one table); other tables, and every convergence table, through ``json.dumps`` or a ``%`` template.

A file is read as UTF-8 whatever the locale (a BOM is refused, line ends read as in
text mode).  A table of ``READ_MIN`` floats or more in the writer's layout, under the
one key of scalar pairs without escapes, is read by :mod:`._floattext` and the pairs by
``json.loads``; any other file by ``json.loads`` whole, to the same floats bit for bit
and the same errors.  Readers accept JSON numbers only: strings, booleans and nulls
are rejected, not coerced.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from itertools import chain
from stat import S_ISREG

import numpy as np

#: Float count from which a finite JSON table is formatted by :mod:`._floattext`, count
#: of values a ``%`` template would format from which a CSV grid is, and float count from
#: which a table is read by it: below them the fixed cost of a block outweighs the
#: per-value saving (README, "Cost").
VECTOR_MIN = 768
CSV_MIN = 1024
READ_MIN = 2048


@contextmanager
def open_out(path):
    """A text handle that rewrites ``path`` from offset 0, creating it if needed.

    The file is opened without ``O_TRUNC`` and cut at the final position on
    exit, also when the writer raises: a regular file then holds the text
    written so far and nothing of its old content, as after ``open(path,
    "w")``, but its blocks are not freed and allocated again.  A target that
    is not a regular file (``/dev/null``, a FIFO) is written and not cut.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w") as fh:
        try:
            yield fh
        finally:
            if S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()


def _table_rows(value: np.ndarray):
    """The text of each row of a table, a complex entry written as its ``[re, im]`` pair."""
    table = value
    if np.iscomplexobj(value):
        table = np.ascontiguousarray(value)
        table = table.view(table.real.dtype).reshape(table.shape + (2,))
    if table.size >= VECTOR_MIN and table.dtype == np.float64 and np.isfinite(table).all():
        from . import _floattext

        return _floattext.json_rows(table)
    return (json.dumps(row.tolist()) for row in table)


def write_json(path, obj: dict) -> None:
    """Write ``obj`` in key order; an ndarray value is a table written by rows."""
    with open_out(path) as fh:
        fh.write("{")
        for i, (key, value) in enumerate(obj.items()):
            fh.write(f"{', ' if i else ''}{json.dumps(key)}: ")
            if not isinstance(value, np.ndarray):
                fh.write(json.dumps(value))
                continue
            fh.write("[")
            for j, row in enumerate(_table_rows(value)):
                fh.write(f"{', ' if j else ''}{row}")
            fh.write("]")
        fh.write("}")


def _percent_grid_rows(phis: np.ndarray, values: np.ndarray):
    """The lines of each grid row by one ``%`` template, its level and angle written into it."""
    args = [0] * (2 * values.shape[1])  # n, value, n, value, ...
    args[::2] = range(values.shape[1])
    for m, (phi, row) in enumerate(zip(phis.tolist(), values.tolist())):
        args[1::2] = row
        yield "%d,%%d,%.17g,%%.17g\n" % (m, phi) * len(row) % tuple(args)


def write_grid_csv(path, phis: np.ndarray, values: np.ndarray) -> None:
    """Write a grid as CSV lines ``m,n,phi,value``, one write per grid row ``m``."""
    texts = _percent_grid_rows(phis, values)
    # the values a % template formats: level and value per line, level and angle per row
    if 2 * values.size + 2 * len(values) >= CSV_MIN and np.isfinite(values).all():
        from . import _floattext

        texts = _floattext.grid_csv_rows(phis, values)
    with open_out(path) as fh:
        fh.write("m,n,phi,value\n")
        for text in texts:
            fh.write(text)


def write_report_csv(path, rows) -> None:
    """Write convergence rows ``(N, n, phi_grid, scaled_value, target, abs_error)``, one write per line."""
    with open_out(path) as fh:
        fh.write("N,n,phi_grid,scaled_value,target,abs_error\n")
        for row in rows:
            fh.write("%d,%d,%.17g,%.17g,%.17g,%.17g\n" % row)


def read_json(path, key: str, ndim: int):
    """The JSON object (no other top level) in the file at ``path``; its table under ``key``, ``ndim``
    lists deep, comes as a float64 array where :mod:`._floattext` reads it (module docstring)."""
    with open(path, "rb") as fh:
        data = fh.read()
    head = json.dumps(key).encode() + b": " + b"[" * ndim
    start, stop = data.find(head) + len(head) - ndim, data.rfind(b"]" * ndim) + ndim
    buf = np.frombuffer(data, np.uint8)  # commas counted 64 KiB at a time: 6x bytes.count's speed
    n = 1 + sum(np.count_nonzero(buf[at:min(at + 2**16, stop)] == 44) for at in range(start, stop, 2**16))
    if data[:1] == b"{" and stop >= start >= len(head) - ndim and n >= READ_MIN:
        header = data[:start] + b"0" + data[stop:]
        try:
            pairs = json.loads(header.decode("utf-8"), object_pairs_hook=list)
        except ValueError:
            pairs = []
        if (b"\\" not in header and [name for name, _ in pairs].count(key) == 1
                and not any(isinstance(v, list) for _, v in pairs) and dict(pairs)[key] == 0):
            from . import _floattext

            table = _floattext.read_table(data, start, stop, ndim, n)
            if table is not None:
                return {**dict(pairs), key: table}
    text = data.decode("utf-8")
    obj = json.loads(text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text)
    if not isinstance(obj, dict):
        raise ValueError(f"the file's top level must be a JSON object, got {type(obj).__name__}")
    return obj


def integer(value, what: str) -> int:
    """A JSON integer field; booleans and floats are rejected."""
    if type(value) is not int:
        raise ValueError(f"{what} must be a JSON integer, got {value!r}")
    return value


def number(value, what: str) -> float:
    """A JSON number field as a float; booleans and strings are rejected."""
    return float(number_table([[value]], 2, what)[0, 0])


def number_table(rows, ndim: int, what: str) -> np.ndarray:
    """Float array from ``ndim`` levels of nested JSON lists of numbers; a float64 array of
    ``ndim`` dimensions, as :func:`read_json` reads a table, is returned as it is."""
    if isinstance(rows, np.ndarray) and rows.dtype == np.float64 and rows.ndim == ndim:
        return rows
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
        table = np.array(entries, dtype=float)
    except OverflowError as exc:
        raise ValueError(f"{what}: {exc}") from exc
    table.shape = shape  # in place: the table owns its memory, so a grid holds it without a copy
    return table


def complex_table(rows, dim: int, what: str) -> np.ndarray:
    """``dim x dim`` complex array from a table of ``[re, im]`` pairs."""
    pairs = number_table(rows, 3, what)
    if pairs.shape != (dim, dim, 2):
        raise ValueError(f"{what} does not match its dim field")
    return pairs.view(complex)[..., 0]
