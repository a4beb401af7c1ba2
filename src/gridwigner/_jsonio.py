"""JSON files of the state, kernel and grid formats, and the one opener of
every output file.

Every writer of the package, JSON and CSV, opens its file with
:func:`open_out`, which rewrites a file in place: the old blocks are
reused and only the tail beyond the new text is trimmed.  JSON writers
send each table through the C encoder of :func:`json.dumps` one row at a
time, so a file is byte-identical to ``json.dump`` of the same nested
lists but is never held in memory as one string.  A complex table that is
exactly Hermitian off its diagonal formats each conjugate pair once.
Readers accept JSON numbers only: strings, booleans and nulls are
rejected, not coerced.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from itertools import chain
from stat import S_ISREG

import numpy as np

_SIGN = np.uint64(1 << 63)


def _pair_rows(table: np.ndarray):
    """Row texts of a complex square table of ``[re, im]`` pairs.

    Each row is the text ``json.dumps`` gives it.  When every off-diagonal
    entry is finite and the bitwise conjugate of its mirror, only the upper
    triangle and the diagonal are formatted: a lower entry takes its
    mirror's strings with the sign of the imaginary part flipped, and the
    strings kept for a row are dropped once it is written.  Any other table
    is formatted entry by entry.
    """
    pairs = np.stack([table.real, table.imag], -1)
    bits = pairs.view(np.uint64)
    re, im = bits[..., 0], bits[..., 1]
    mirror = (re == re.T) & (im == im.T ^ _SIGN) & np.isfinite(table)
    np.fill_diagonal(mirror, True)
    if not mirror.all():
        yield from (json.dumps(row.tolist()) for row in pairs)
        return
    kept = [[] for _ in range(len(table))]  # kept[i]: "re, -im" of (j, i) for j < i
    for i, row in enumerate(pairs):
        text = json.dumps(row[i:].tolist())
        # "a, b], [c, -d" -> ["a, -b", "c, d"]: flip the sign after every ", ",
        # which also turns the separators "], [" into "], -["
        conj = text[2:-2].replace(", -", "\0").replace(", ", ", -").replace("\0", ", ")
        list(map(list.append, kept[i + 1:], conj.split("], -[")[1:]))
        lower, kept[i] = kept[i], None
        yield f"[[{'], ['.join(lower)}], {text[1:]}" if i else text


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


def write_json(path, obj: dict) -> None:
    """Write ``obj`` in key order; an ndarray value is a table written by rows.

    A complex table is square and written as ``[re, im]`` pairs by
    :func:`_pair_rows`.
    """
    with open_out(path) as fh:
        fh.write("{")
        for i, (key, value) in enumerate(obj.items()):
            fh.write(f"{', ' if i else ''}{json.dumps(key)}: ")
            if not isinstance(value, np.ndarray):
                fh.write(json.dumps(value))
                continue
            if np.iscomplexobj(value):
                rows = _pair_rows(value)
            else:
                rows = (json.dumps(row.tolist()) for row in value)
            fh.write("[")
            for j, row in enumerate(rows):
                fh.write(f"{', ' if j else ''}{row}")
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
