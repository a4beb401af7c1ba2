"""The numpy route of the JSON reader against ``json.loads`` and ``number_table``.

``_jsonio.read_json`` decodes a large table in the writer's layout with
``_floattext.read_table``, and every other file with ``json.loads``.  Both routes
must give the same table, bit for bit, or the same exception with the same
message.  Hypothesis writes tables of random float64 bit patterns with
``write_json`` at depths 2 and 3, around the crossover ``READ_MIN`` and across
the reader's blocks; hand-made files cover the layouts and tokens the numpy
route refuses.  The CLI is fuzzed with large files with one byte changed or the
text cut short.  Each route is forced by setting ``READ_MIN``: to 1 for the
numpy route wherever it applies, and beyond any table for the ``json`` route.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gridwigner as gw
from gridwigner import _floattext, _jsonio
from gridwigner.cli import main

NEVER = 10**12  # a READ_MIN no table reaches: every file goes through json.loads
EDGE_BITS = [0, 2**63, 1, 2**52 - 1, 2**52, 0x7FEFFFFFFFFFFFFF, 0x7FF0000000000000, 0x7FF8000000000000]
EDGE_FLOATS = [5e-324, 1.7976931348623157e308, 1e16, 1e-5, 1e22, 2.0**53, 123.0, 1e-4, 9.999999999999999e-05]


def outcome(read, *args):
    """What ``read(*args)`` gives: ``("ok", value)`` or the exception's type and message."""
    try:
        return "ok", read(*args)
    except Exception as exc:  # noqa: BLE001 -- both routes must fail alike
        return type(exc), str(exc)


def table_of(path, key, ndim):
    obj = _jsonio.read_json(path, key, ndim)
    return obj, _jsonio.number_table(obj[key], ndim, "table")


def same(a, b):
    """Two outcomes of :func:`table_of` agree: equal headers and tables equal to the bit."""
    if a[0] != "ok" or b[0] != "ok":
        return a == b
    (obj_a, table_a), (obj_b, table_b) = a[1], b[1]
    rest = [{k: v for k, v in obj.items() if not isinstance(v, (list, np.ndarray))} for obj in (obj_a, obj_b)]
    return rest[0] == rest[1] and table_a.shape == table_b.shape and table_a.tobytes() == table_b.tobytes()


def both_routes(monkeypatch, path, key, ndim, read_min=1):
    """The outcomes of the numpy route (for tables of ``read_min`` floats or more) and of
    the json route, and whether the numpy route read the table."""
    read = []
    original = _floattext.read_table

    def spy(*args):
        read.append(original(*args))
        return read[-1]

    monkeypatch.setattr(_floattext, "read_table", spy)
    monkeypatch.setattr(_jsonio, "READ_MIN", read_min)
    fast = outcome(table_of, path, key, ndim)
    monkeypatch.setattr(_jsonio, "READ_MIN", NEVER)
    slow = outcome(table_of, path, key, ndim)
    return fast, slow, bool(read) and read[-1] is not None


@st.composite
def bit_tables(draw, ndim):
    """A float64 table of depth ``ndim`` (the last axis 2 at depth 3, as a complex table
    is written): raw bit patterns mixed with edge values and integers."""
    rows = draw(st.one_of(st.integers(1, 12), st.sampled_from([31, 32, 45, 46])))
    cols = draw(st.integers(1, 12)) if rows < 20 else rows
    shape = (rows, cols, 2) if ndim == 3 else (rows, cols)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["bits", "normal", "tiny", "integers"]))
    if kind == "bits":
        table = rng.integers(0, 2**64, shape, dtype=np.uint64, endpoint=False).view(np.float64)
    elif kind == "integers":
        table = rng.integers(-(2**60), 2**60, shape).astype(np.float64) / 2.0 ** rng.integers(0, 4, shape)
    else:
        table = rng.standard_normal(shape) * (1e-310 if kind == "tiny" else 10.0 ** rng.integers(-20, 20, shape))
    for i in draw(st.lists(st.integers(0, table.size - 1), max_size=6)):
        table.flat[i] = draw(st.one_of(st.sampled_from(EDGE_FLOATS), st.sampled_from(EDGE_BITS).map(
            lambda b: float(np.uint64(b).view(np.float64)))))
    if draw(st.booleans()):  # every sign bit flipped
        table = (table.view(np.uint64) ^ np.uint64(2**63)).view(np.float64)
    return table


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3]).flatmap(lambda n: st.tuples(st.just(n), bit_tables(n))),
       st.sampled_from([4, 16, 64, 4096]), st.sampled_from([1, _jsonio.READ_MIN]))
def test_written_tables_read_alike_on_both_routes(depth_table, block, read_min):
    """A table ``write_json`` wrote reads the same on both routes, at depths 2 and 3, with
    the numpy route's passes over 64 bytes to 64 KiB of text, from 1 float or the crossover."""
    ndim, table = depth_table
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        path = Path(tmp) / "t.json"
        mp.setattr(_floattext, "BLOCK", block)
        _jsonio.write_json(path, {"dim": len(table), "kernel": "k", "values": table, "epsilon": -0.0})
        fast, slow, read = both_routes(mp, path, "values", ndim, read_min)
    assert fast[0] == "ok" and same(fast, slow), (fast, slow)
    assert read == (np.isfinite(table).all() and table.size >= read_min)


def test_the_crossover_decides_the_route(monkeypatch, tmp_path):
    """A table of ``READ_MIN`` floats or more takes the numpy route, a smaller one json.loads."""
    seen = []
    original = _floattext.read_table
    monkeypatch.setattr(_floattext, "read_table", lambda *args: seen.append(args) or original(*args))
    at = math.isqrt(_jsonio.READ_MIN // 2)
    assert 2 * (at - 1) ** 2 < _jsonio.READ_MIN <= 2 * at**2
    for d in (at - 1, at, at + 1):
        rho = gw.random_density(d, np.random.default_rng(d))
        gw.save_density_json(rho, tmp_path / "s.json")
        seen.clear()
        assert gw.load_density_json(tmp_path / "s.json").tobytes() == rho.tobytes()
        assert bool(seen) == (2 * d * d >= _jsonio.READ_MIN)


ROW = "[1.5, -2.25e-07, 3.0]"


def grid_text(rows=(ROW,) * 3, head='"dim": 3, "phi0": 0.5, "kernel": "custom", ', tail=""):
    return "{" + head + '"values": [' + ", ".join(rows) + "]" + tail + "}"


HAND_MADE = {
    "writer layout": grid_text(),
    "no spaces": grid_text(rows=("[1.5,-2.25e-07,3.0]",) * 3),
    "newlines": json.dumps({"dim": 3, "values": [[1.5, 2.5, 3.5]] * 3}, indent=2),
    "tabs": grid_text().replace(", ", ",\t"),
    "1E5": grid_text(rows=("[1E5, 1e+05, 1.5E-3]",) * 3),
    "exponent with many digits": grid_text(rows=("[1e0000000005, 1.5e-0000000000000004, 2e+000]",) * 3),
    "huge exponent": grid_text(rows=("[1e400, -1e400, 1e-400]",) * 3),
    # q * log2(10) in 64-bit fixed point wraps near these exponents
    "wrapping exponent": grid_text(rows=("[1e20201781, -1e40403562, 1e80807124]", "[1e-20201781, 1e60606343, 3.0]", ROW)),
    "-0": grid_text(rows=("[-0, 0, -0.0]",) * 3),
    "integers": grid_text(rows=("[1, -2, 12345678901234567]",) * 3),
    "01": grid_text(rows=("[01, 2.0, 3.0]",) * 3),
    "-01": grid_text(rows=("[-01.5, 2.0, 3.0]",) * 3),
    ".5": grid_text(rows=("[.5, 2.0, 3.0]",) * 3),
    "1.": grid_text(rows=("[1., 2.0, 3.0]",) * 3),
    "+1": grid_text(rows=("[+1, 2.0, 3.0]",) * 3),
    "1e": grid_text(rows=("[1e, 2.0, 3.0]",) * 3),
    "1e+": grid_text(rows=("[1e+, 2.0, 3.0]",) * 3),
    "two points": grid_text(rows=("[1.2.3, 2.0, 3.0]",) * 3),
    "two exponents": grid_text(rows=("[1e2e3, 2.0, 3.0]",) * 3),
    "point after exponent": grid_text(rows=("[1e2.5, 2.0, 3.0]",) * 3),
    "inner minus": grid_text(rows=("[1-2, 2.0, 3.0]",) * 3),
    "two minus": grid_text(rows=("[--2, 2.0, 3.0]",) * 3),
    "lone minus": grid_text(rows=("[-, 2.0, 3.0]",) * 3),
    "empty entry": grid_text(rows=("[1.0, , 3.0]",) * 3),
    "NaN": grid_text(rows=("[NaN, 2.0, 3.0]",) * 3),
    "Infinity": grid_text(rows=("[Infinity, -Infinity, 3.0]",) * 3),
    "10**400": grid_text(rows=("[1" + "0" * 400 + ", 2.0, 3.0]",) * 3),
    "25-digit integer": grid_text(rows=("[1234567890123456789012345, 2.0, 3.0]",) * 3),
    "20-digit integer": grid_text(rows=("[12345678901234567890, 2.0, 3.0]",) * 3),
    "25-digit significand": grid_text(rows=("[0.1234567890123456789012345, 1.234567890123456789012345e-5, 3.0]",) * 3),
    "long zeros": grid_text(rows=("[0.0000000000000000000000000000001, 1.0000000000000000000000000000000, 3.0]",) * 3),
    "9-digit whole": grid_text(rows=("[123456789.5, 1234567890123456.0, 3.0]",) * 3),
    "subnormal and tie": grid_text(rows=("[5e-324, 2.4703282292062327e-324, 9007199254740993]",) * 3),
    "string": grid_text(rows=('[1.5, "2.5", 3.0]',) * 3),
    "booleans": grid_text(rows=("[true, false, 3.0]",) * 3),
    "null": grid_text(rows=("[null, 2.0, 3.0]",) * 3),
    "ragged": grid_text(rows=(ROW, "[1.0, 2.0]", ROW)),
    "ragged last": grid_text(rows=(ROW, ROW, "[1.0, 2.0, 3.0, 4.0]")),
    "wrong depth": grid_text(rows=("[[1.5, 2.0], [3.0, 4.0]]",) * 3),
    "shallow": '{"dim": 3, "values": [1.5, 2.5, 3.5]}',
    "short header": '{"values": [[1.25, 2.5, 3.75, 4.125], [5.5, 6.625, 7.875, 8.0625]]}',
    "inner space": grid_text(rows=("[1 5, 2.0, 3.0]",) * 3),
    "inner letter": grid_text(rows=("[1x5, 2.0, 3.0]",) * 3),
    "brace for bracket": grid_text(rows=(ROW, ROW[:-1] + "}", ROW)),
    "rounds up to 2**60": grid_text(rows=("[0.1152921504606846975e19, 0.9223372036854775807e19, 1.152921504606846975e5]",) * 3),
    "nested lists": grid_text(rows=("[[1.5], 2.0, 3.0]",) * 3),
    "duplicate key after": grid_text(tail=', "values": 5'),
    "duplicate key before": grid_text(head='"values": 5, "dim": 3, '),
    "missing key": grid_text().replace('"values"', '"valuez"'),
    "[ in a header string": grid_text(head='"dim": 3, "kernel": "a[b]], [[c", '),
    "]] in a header string after": grid_text(tail=', "note": "x]]"'),
    "escaped key in a string": grid_text(head='"dim": 3, "note": "\\"values\\": [[1.0]]", '),
    "escaped key": grid_text().replace('"values"', '"\\u0076alues"'),
    "nested header object": grid_text(head='"dim": 3, "meta": {"a": 1}, '),
    "header list": grid_text(head='"dim": 3, "meta": [1, 2], '),
    "non-ASCII header": grid_text(head='"dim": 3, "kernel": "ψ", '),
    "trailing garbage": grid_text() + "x",
    "trailing comma": grid_text(rows=(ROW,) * 3 + ("",)),
    "BOM": "﻿" + grid_text(),
    "top-level list": "[" + ", ".join((ROW,) * 3) + "]",
    "CRLF inside": grid_text(head='"dim": 3,\r\n"kernel": "custom",\r\n "x": ,'),
    "placeholder value": grid_text(head='"dim": 0, ', tail=', "v": 0'),
    "empty rows": grid_text(rows=("[]",) * 3),
}


@pytest.mark.parametrize("name", HAND_MADE)
def test_hand_made_files_read_alike_on_both_routes(name, monkeypatch, tmp_path):
    path = tmp_path / "g.json"
    path.write_bytes(HAND_MADE[name].encode())
    fast, slow, _ = both_routes(monkeypatch, path, "values", 2)
    assert same(fast, slow), (fast, slow)


@pytest.mark.parametrize("name", ["writer layout", "1E5", "-0", "integers", "exponent with many digits",
                                  "huge exponent", "wrapping exponent", "9-digit whole", "subnormal and tie", "rounds up to 2**60",
                                  "non-ASCII header", "[ in a header string"])
def test_the_numpy_route_reads_the_writers_layout(name, monkeypatch, tmp_path):
    """These files are read by the numpy route itself, not handed to json.loads."""
    path = tmp_path / "g.json"
    path.write_bytes(HAND_MADE[name].encode())
    assert both_routes(monkeypatch, path, "values", 2)[2]


def test_every_loader_reads_alike_on_both_routes(monkeypatch, tmp_path):
    rng = np.random.default_rng(33)
    d = 33
    rho = gw.random_density(d, rng)
    kernel = gw.symmetric_kernel(d // 2)
    files = {
        gw.load_density_json: (gw.save_density_json, rho),
        gw.load_kernel: (gw.save_kernel, kernel),
        gw.load_wigner: (gw.wigner_to_json, gw.wigner_grid(gw.PhaseGrid(d, 0.37), kernel, rho)),
        gw.load_halfgrid: (gw.halfgrid_to_json, gw.leonhardt_wigner(16, 0.37, gw.random_density(32, rng))),
    }
    read = []
    original = _floattext.read_table
    monkeypatch.setattr(_floattext, "read_table", lambda *args: read.append(original(*args)) or read[-1])
    for load, (write, obj) in files.items():
        write(obj, tmp_path / "f.json")
        monkeypatch.setattr(_jsonio, "READ_MIN", 1)
        fast = load(tmp_path / "f.json")
        assert read.pop() is not None  # the numpy route read the table
        monkeypatch.setattr(_jsonio, "READ_MIN", NEVER)
        slow = load(tmp_path / "f.json")
        table = (lambda x: getattr(x, "values", x))
        assert table(fast).tobytes() == table(slow).tobytes() and table(fast).tobytes() == table(obj).tobytes()


@st.composite
def damaged_files(draw):
    """A large state, kernel or grid file of the writer with one byte changed, or cut."""
    kind = draw(st.sampled_from(["state", "grid", "half"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "state":
        d = 32
        obj, write = gw.random_density(d, rng), gw.save_density_json
    elif kind == "grid":
        d = 47
        obj, write = gw.wigner_grid(gw.PhaseGrid(d, 0.37), gw.wootters_kernel(d // 2), gw.random_density(d, rng)), gw.wigner_to_json
    else:
        obj, write = gw.leonhardt_wigner(12, 0.37, gw.random_density(24, rng)), gw.halfgrid_to_json
    with tempfile.TemporaryDirectory() as tmp:
        write(obj, Path(tmp) / "f.json")
        data = bytearray((Path(tmp) / "f.json").read_bytes())
    at = draw(st.integers(0, len(data) - 1))
    if draw(st.booleans()):
        data = data[:at]
    else:
        data[at] = draw(st.sampled_from(b' ,.-+eE0159[]{}":\n\\x\x00\xff'))
    return kind, bytes(data)


@settings(max_examples=60, deadline=None)
@given(damaged_files())
def test_damaged_large_files_exit_with_a_documented_code(kind_data):
    kind, data = kind_data
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.json"
        path.write_bytes(data)
        out = str(Path(tmp) / "out.json")
        if kind == "state":
            argv = ["wigner", "--dim", "32", "--kernel", "almost-symmetric", "--state", "file", str(path), "--out", out]
        else:
            argv = ["reconstruct", "--grid", str(path), "--out", out]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3, 4, 5), (code, err.getvalue())
    lines = err.getvalue().splitlines()
    assert len([line for line in lines if line.startswith("error: ")]) == (code != 0), lines
    assert all(line.startswith(("error: ", "warning: ")) for line in lines) and "Traceback" not in err.getvalue()


#: Peak ``tracemalloc`` bytes of a load at d = 257 on the numpy route, as a share of
#: the json route's peak for the same file.
READER_WORKING_SET = 1.0


@pytest.mark.parametrize("load, write", [("load_density_json", "save_density_json"), ("load_wigner", "wigner_to_json")])
def test_the_numpy_route_holds_no_more_than_json_loads(load, write, monkeypatch, tmp_path):
    d, rng = 257, np.random.default_rng(257)
    rho = gw.random_density(d, rng)
    obj = rho if load == "load_density_json" else gw.wigner_grid(gw.PhaseGrid(d, 0.37), gw.symmetric_kernel(128), rho)
    getattr(gw, write)(obj, tmp_path / "f.json")
    peaks = {}
    for read_min in (NEVER, _jsonio.READ_MIN):
        monkeypatch.setattr(_jsonio, "READ_MIN", read_min)
        getattr(gw, load)(tmp_path / "f.json")
        tracemalloc.start()
        try:
            getattr(gw, load)(tmp_path / "f.json")
            peaks[read_min] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[_jsonio.READ_MIN] <= READER_WORKING_SET * peaks[NEVER], peaks


def _python(code, **env):
    env = {**os.environ, "PYTHONPATH": str(Path(gw.__file__).parents[1]), **env}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)


def test_importing_the_package_leaves_the_block_text_module_out():
    out = _python("import sys, gridwigner; print('gridwigner._floattext' in sys.modules)")
    assert out.returncode == 0 and out.stdout.strip() == "False", out.stderr


def test_files_are_read_as_utf8_whatever_the_locale(tmp_path):
    """A valid UTF-8 file with a non-ASCII string field reads under the C locale too."""
    path = tmp_path / "s.json"
    path.write_bytes('{"dim": 1, "note": "ρ été", "matrix": [[[1.0, 0.0]]]}'.encode())
    code = f"import gridwigner as gw; print(gw.load_density_json({str(path)!r}).tolist())"
    out = _python(code, LC_ALL="C", LANG="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", PYTHONIOENCODING="utf-8")
    assert out.returncode == 0 and out.stdout.strip() == "[[(1+0j)]]", out.stderr
