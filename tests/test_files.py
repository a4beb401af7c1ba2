"""The file layer: streaming writers against the ``json.dump`` and per-value
CSV oracles, exact round trips, in-place rewrites of existing files, and
loaders that accept JSON numbers only.

Tables have side 1 to 40, or a side that puts their float count just below
``_jsonio.VECTOR_MIN``, at or just above it, or over a block of
``_floattext``, so the JSON writers take both routes; CSV grids are drawn
likewise around ``_jsonio.CSV_MIN``, counted in the values their ``%`` template
formats.  Convergence reports have one route, a ``%`` template per line.  Tables carry the float edge values ``-0.0``, ``5e-324``, ``1e308`` and
``1e-300`` at random places; the exactly Hermitian state tables also carry
``nan`` and ``inf``, in conjugate pairs and singly.
"""

import dataclasses
import importlib
import json
import math
import os
import stat
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gridwigner as gw
import oracles
from conftest import WRITING, writing_commands
from gridwigner import _floattext, _jsonio

EDGES = (-0.0, 5e-324, 1e308, 1e-300, -1e308, 0.0)
SETTINGS = settings(max_examples=40, deadline=None)

angles = st.one_of(st.floats(-10, 10), st.sampled_from(EDGES))


def sides(floats_per_entry):
    """Sides 1 to 40, and the sides of square tables whose float count is just below
    the crossover to the block formatter, at or just above it, and over one block."""
    at = math.ceil(math.sqrt(_jsonio.VECTOR_MIN / floats_per_entry))
    assert (at - 1) ** 2 * floats_per_entry < _jsonio.VECTOR_MIN <= at**2 * floats_per_entry
    over = math.ceil(math.sqrt(_floattext.BLOCK / floats_per_entry)) + 1
    return st.one_of(st.integers(1, 40), st.sampled_from([at - 1, at, at + 1, over]))


@st.composite
def tables(draw, side=None):
    """A real ``side x side`` table: scaled normals with edge values planted."""
    d = draw(sides(1)) if side is None else side
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.standard_normal((d, d)) * draw(st.sampled_from([1.0, 1e-300, 1e300]))
    planted = draw(st.lists(st.tuples(st.integers(0, d * d - 1), st.sampled_from(EDGES)), max_size=8))
    for i, v in planted:
        values.flat[i] = v
    return values


@st.composite
def complex_tables(draw):
    d = draw(sides(2))
    return draw(tables(side=d)) + 1j * draw(tables(side=d))


def _bytes_match(write, oracle, obj):
    with tempfile.TemporaryDirectory() as tmp:
        new, old = Path(tmp) / "new", Path(tmp) / "old"
        write(obj, new)
        oracle(obj, old)
        assert new.read_bytes() == old.read_bytes()


@SETTINGS
@given(complex_tables())
def test_state_writer_matches_json_dump(table):
    _bytes_match(gw.save_density_json, oracles.save_density_json, table)


PLANTS = EDGES + (math.nan, math.inf, -math.inf)


@st.composite
def hermitian_tables(draw):
    """An exactly Hermitian table: the lower triangle is the bitwise conjugate of
    the upper one and the diagonal is real.  Edge and non-finite values are
    planted in conjugate pairs and singly, and one mirror entry may be moved by
    one ulp."""
    table = draw(complex_tables())
    d = table.shape[0]
    for a in range(1, d):
        table[a, :a] = table[:a, a].conj()
    np.fill_diagonal(table.imag, 0.0)
    index = st.integers(0, d - 1)
    plant = st.tuples(index, index, st.sampled_from(PLANTS), st.sampled_from(PLANTS))
    for i, j, re, im in draw(st.lists(plant, max_size=6)):
        table[i, j] = complex(re, im)
        table[j, i] = np.conj(table[i, j])
    for i, j, re, im in draw(st.lists(plant, max_size=3)):
        table[i, j] = complex(re, im)
    if d > 1 and draw(st.booleans()):
        i = draw(st.integers(1, d - 1))
        j = draw(st.integers(0, i - 1))
        part = table[i:, j:].real if draw(st.booleans()) else table[i:, j:].imag
        part[0, 0] = np.nextafter(part[0, 0], draw(st.sampled_from([-math.inf, math.inf])))
    return table


@settings(max_examples=80, deadline=None)
@given(hermitian_tables())
def test_state_writer_matches_json_dump_on_hermitian_tables(table):
    _bytes_match(gw.save_density_json, oracles.save_density_json, table)


@pytest.mark.parametrize("shape", [(2, 3), (2, 2, 2), (0, 0), (3,), ()])
def test_state_writer_refuses_a_table_its_loader_would_refuse(tmp_path, shape):
    """A table that is not a non-empty square matrix is refused before the file is opened:
    an existing target keeps its bytes and a missing one is not made."""
    kept, missing = tmp_path / "kept.json", tmp_path / "missing.json"
    kept.write_bytes(b'{"dim": 1, "matrix": [[[1.0, 0.0]]]}')
    for path in (kept, missing):
        with pytest.raises(ValueError, match="non-empty square matrix"):
            gw.save_density_json(np.zeros(shape, complex), path)
    assert kept.read_bytes() == b'{"dim": 1, "matrix": [[[1.0, 0.0]]]}' and not missing.exists()


@SETTINGS
@given(complex_tables())
def test_kernel_writer_matches_json_dump(table):
    _bytes_match(gw.save_kernel, oracles.save_kernel, gw.Kernel(table))


@SETTINGS
@given(
    tables(), angles, st.one_of(st.none(), angles), st.sampled_from(["symmetric", "custom", "sümmetrisch"]),
    st.lists(st.tuples(st.integers(0, 2**16), st.sampled_from(PLANTS)), max_size=6),
)
def test_grid_writers_match_json_dump_and_csv_loop(values, phi0, eps, label, planted):
    w = gw.WignerGrid(gw.PhaseGrid(values.shape[0], phi0), label, values, eps)
    # the writers format whatever the table holds, also values the constructor refuses
    for i, v in planted:
        w.values.flat[i % w.values.size] = v
    _bytes_match(gw.wigner_to_json, oracles.wigner_to_json, w)
    _bytes_match(gw.wigner_to_csv, oracles.wigner_to_csv, w)


def csv_sides():
    """Sides of square grids whose CSV template formats just fewer values than the
    limit (``2 d**2 + 2 d``: level and value per line, level and angle per row), at
    or just above it, and more rows than one block holds."""
    at = next(d for d in range(1, 100) if 2 * d * d + 2 * d >= _jsonio.CSV_MIN)
    over = math.isqrt(_floattext.BLOCK) + 2
    return st.sampled_from([at - 1, at, at + 1, over])


@SETTINGS
@given(csv_sides().flatmap(tables), angles, st.lists(st.tuples(st.integers(0, 2**16), st.sampled_from(PLANTS)), max_size=3))
def test_grid_csv_matches_the_per_value_loop_across_the_limit(values, phi0, planted):
    w = gw.WignerGrid(gw.PhaseGrid(values.shape[0], phi0), "custom", values)
    for i, v in planted:
        w.values.flat[i % w.values.size] = v
    _bytes_match(gw.wigner_to_csv, oracles.wigner_to_csv, w)


def _report(rows, seed, big_n=False):
    """A convergence report of ``rows`` random rows; one N beyond int64 if ``big_n``."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 2**53, rows)
    values = rng.standard_normal((rows, 3)) * 10.0 ** rng.integers(-20, 20, (rows, 3))
    table = [
        gw.ConvergenceRow(int(N), 2 * int(N), int(N) % 97, float(phi), float(v), float(t))
        for N, (phi, v, t) in zip(sizes, values)
    ]
    if big_n and table:
        table[0] = gw.ConvergenceRow(10**20, 2 * 10**20, 3, 0.7, 0.25, 0.25)
    return gw.ConvergenceReport("symmetric", 0, 0.5, table)


@pytest.mark.parametrize("big_n", [False, True])
def test_convergence_csv_matches_the_per_row_f_string_across_the_limit(big_n):
    at = -(-_jsonio.CSV_MIN // 6)  # six values per row
    for rows in (0, 1, at - 1, at, at + 1, _floattext.BLOCK // 6 + 5):
        _bytes_match(gw.ConvergenceReport.to_csv, oracles.convergence_to_csv, _report(rows, rows, big_n))


def test_integer_columns_read_as_g17_below_2_53():
    """Below 2**53 ``%d`` of each N and n is the ``%.17g`` text of its float, and a
    report gives the bytes of ``%d``."""
    report = _report(2 * _jsonio.CSV_MIN, 53)
    edges = [0, 1, 9, 10, 99, 10**15, 10**15 + 1, 2**53 - 2, 2**53 - 1]
    table = [*report.rows, *(gw.ConvergenceRow(N, N, N, 0.5, 0.25, 0.25) for N in edges)]
    for r in table:
        assert "%d" % r.N == "%.17g" % float(r.N) and "%d" % r.n == "%.17g" % float(r.n)
    _bytes_match(gw.ConvergenceReport.to_csv, oracles.convergence_to_csv, gw.ConvergenceReport("wootters", 1, 0.5, table))


@SETTINGS
@given(st.integers(1, 10).flatmap(lambda n: tables(side=4 * n)), angles)
def test_halfgrid_writer_matches_json_dump(values, phi0):
    w = gw.HalfIntegerWignerGrid(values.shape[0] // 4, phi0, values)
    _bytes_match(gw.halfgrid_to_json, oracles.halfgrid_to_json, w)


def _round_trip(write, read, obj):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.json"
        write(obj, path)
        return read(path)


def _same(a, b):
    """Equal to the bit, signs of zeros included."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == np.ascontiguousarray(b).tobytes()


@SETTINGS
@given(st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_state_round_trip_is_exact(d, seed):
    rho = gw.random_density(d, np.random.default_rng(seed))
    assert _same(rho, _round_trip(gw.save_density_json, gw.load_density_json, rho))


@SETTINGS
@given(complex_tables())
def test_kernel_round_trip_is_exact(table):
    kernel = gw.Kernel(table)
    assert _same(kernel.values, _round_trip(gw.save_kernel, gw.load_kernel, kernel).values)


@SETTINGS
@given(tables(), angles, st.one_of(st.none(), angles))
def test_grid_round_trip_is_exact(values, phi0, eps):
    w = gw.WignerGrid(gw.PhaseGrid(values.shape[0], phi0), "custom", values, eps)
    back = _round_trip(gw.wigner_to_json, gw.load_wigner, w)
    assert _same(w.values, back.values) and back.kernel_label == "custom"
    assert math.copysign(1, back.grid.phi0) == math.copysign(1, phi0) and back.grid.phi0 == phi0
    assert back.epsilon == eps and (eps is None or math.copysign(1, back.epsilon) == math.copysign(1, eps))


@SETTINGS
@given(st.integers(1, 10).flatmap(lambda n: tables(side=4 * n)), angles)
def test_halfgrid_round_trip_is_exact(values, phi0):
    w = gw.HalfIntegerWignerGrid(values.shape[0] // 4, phi0, values)
    back = _round_trip(gw.halfgrid_to_json, gw.load_halfgrid, w)
    assert _same(w.values, back.values) and back.n_half == w.n_half
    assert math.copysign(1, back.phi0) == math.copysign(1, phi0) and back.phi0 == phi0


@pytest.mark.parametrize(
    "angle", [np.float16(0.3), np.float32(0.3), np.float32(-0.0), np.int64(2), 3], ids=["f16", "f32", "f32 -0", "i64", "int"]
)
def test_grid_angles_are_held_and_written_as_python_floats(angle):
    """``phi0`` and ``epsilon`` of a numpy or integer type are held as the Python float of
    their value, so the grid files write them as JSON numbers and read them back."""
    w = gw.WignerGrid(gw.PhaseGrid(3, angle), "custom", np.eye(3) / 3, angle)
    half = gw.HalfIntegerWignerGrid(1, angle, np.full((4, 4), 1 / 16))
    assert {type(w.grid.phi0), type(w.epsilon), type(half.phi0)} == {float}
    back, back_half = _round_trip(gw.wigner_to_json, gw.load_wigner, w), _round_trip(gw.halfgrid_to_json, gw.load_halfgrid, half)
    for value in (back.grid.phi0, back.epsilon, back_half.phi0):
        assert value == float(angle) and math.copysign(1, value) == math.copysign(1, float(angle))


NON_REAL_ANGLES = {
    "phi0 True": lambda: gw.PhaseGrid(3, True),
    "phi0 numpy True": lambda: gw.PhaseGrid(3, np.True_),
    "phi0 complex": lambda: gw.PhaseGrid(3, 0.3 + 0j),
    "phi0 string": lambda: gw.PhaseGrid(3, "0.3"),
    "half phi0 True": lambda: gw.HalfIntegerWignerGrid(1, True, np.zeros((4, 4))),
    "epsilon True": lambda: gw.WignerGrid(gw.PhaseGrid(3), "custom", np.zeros((3, 3)), True),
}


@pytest.mark.parametrize("make", NON_REAL_ANGLES.values(), ids=NON_REAL_ANGLES.keys())
def test_grid_angles_refuse_booleans_and_non_reals(make):
    with pytest.raises(ValueError, match="must be a real number"):
        make()


def test_a_read_table_owns_its_memory():
    for rows, ndim in [([[1, 2.5], [3, -0.0]], 2), ([[[1, 2]], [[3, 4]]], 3), ([[]], 2)]:
        table = _jsonio.number_table(rows, ndim, "table")
        assert table.flags.owndata and table.flags.c_contiguous and table.tolist() == rows


def test_a_loaded_grid_holds_the_readers_own_array(tmp_path, monkeypatch):
    """The grid loaders hold the table ``number_table`` read as it is, with no second copy."""
    read = []

    def reading(*args):
        read.append(_jsonio.number_table(*args))
        return read[-1]

    monkeypatch.setattr(importlib.import_module("gridwigner.wigner"), "number_table", reading)  # the one grid decoder
    rng = np.random.default_rng(5)
    gw.wigner_to_json(gw.wigner_grid(gw.PhaseGrid(5, 0.37), gw.symmetric_kernel(2), gw.random_density(5, rng)), tmp_path / "w.json")
    assert gw.load_wigner(tmp_path / "w.json").values is read[-1]
    gw.halfgrid_to_json(gw.leonhardt_wigner(2, 0.37, gw.random_density(4, rng)), tmp_path / "h.json")
    assert gw.load_halfgrid(tmp_path / "h.json").values is read[-1]


def test_writers_emit_no_whole_file_string(tmp_path, monkeypatch):
    """A table is written row by row: no ``write`` call carries more than one row's text."""
    sizes = []

    class Recorder:
        def __init__(self, fh):
            self.fh = fh

        def write(self, text):
            sizes.append(len(text))
            return self.fh.write(text)

        def __getattr__(self, name):
            return getattr(self.fh, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    monkeypatch.setattr(_jsonio, "open", lambda *a, **k: Recorder(open(*a, **k)), raising=False)
    rng = np.random.default_rng(1)
    kernel = gw.symmetric_kernel(3)
    state = gw.reconstruct(gw.wigner_grid(gw.PhaseGrid(7), kernel, gw.random_density(7, rng)), kernel)
    path = tmp_path / "f.json"
    for write, key, obj in [
        (gw.save_density_json, "matrix", state),  # a complex table: rows of [re, im] pairs
        (gw.save_kernel, "values", gw.Kernel(rng.standard_normal((6, 6)) + 1j)),
        (gw.wigner_to_json, "values", gw.WignerGrid(gw.PhaseGrid(6), "custom", rng.standard_normal((6, 6)))),
    ]:
        sizes.clear()
        write(obj, path)
        text = path.read_text()
        rows = json.loads(text)[key]
        assert sum(sizes) == len(text) and len(sizes) > len(rows) >= 6
        assert max(sizes) <= len(", ") + max(len(json.dumps(row)) for row in rows)


def test_block_formatted_tables_are_written_row_by_row(tmp_path, monkeypatch):
    """Above the crossover too: each table goes through the block formatter and
    no ``write`` call carries more than one row's text."""
    sizes, formatted = [], []

    class Recorder:
        def __init__(self, fh):
            self.fh = fh

        def write(self, text):
            sizes.append(len(text))
            return self.fh.write(text)

        def __getattr__(self, name):
            return getattr(self.fh, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    block_rows = _floattext.json_rows
    monkeypatch.setattr(_floattext, "json_rows", lambda table: formatted.append(table.shape) or block_rows(table))
    monkeypatch.setattr(_jsonio, "open", lambda *a, **k: Recorder(open(*a, **k)), raising=False)
    rng = np.random.default_rng(2)
    kernel = gw.symmetric_kernel(20)
    state = gw.reconstruct(gw.wigner_grid(gw.PhaseGrid(41), kernel, gw.random_density(41, rng)), kernel)
    path = tmp_path / "f.json"
    for write, key, obj in [
        (gw.save_density_json, "matrix", state),
        (gw.save_kernel, "values", gw.Kernel(rng.standard_normal((33, 33)) + 1j)),
        (gw.wigner_to_json, "values", gw.WignerGrid(gw.PhaseGrid(70), "custom", rng.standard_normal((70, 70)))),
    ]:
        sizes.clear()
        write(obj, path)
        text = path.read_text()
        rows = json.loads(text)[key]
        assert sum(sizes) == len(text) and len(sizes) > len(rows)
        assert max(sizes) <= len(", ") + max(len(json.dumps(row)) for row in rows)
    assert formatted == [(41, 41, 2), (33, 33, 2), (70, 70)]


def test_block_formatted_csv_tables_are_written_row_by_row(tmp_path, monkeypatch):
    """The CSV twin of the test above: a grid goes through the block formatter, a
    convergence report does not, and no ``write`` call carries more than the lines of
    one grid row (one line of the report)."""
    sizes, formatted = [], []

    class Recorder:
        def __init__(self, fh):
            self.fh = fh

        def write(self, text):
            sizes.append(len(text))
            return self.fh.write(text)

        def __getattr__(self, name):
            return getattr(self.fh, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    block_rows = _floattext.grid_csv_rows
    monkeypatch.setattr(_floattext, "grid_csv_rows", lambda phis, values: formatted.append(values.shape) or block_rows(phis, values))
    monkeypatch.setattr(_jsonio, "open", lambda *a, **k: Recorder(open(*a, **k)), raising=False)
    grid = gw.WignerGrid(gw.PhaseGrid(70, 0.37), "custom", np.random.default_rng(3).standard_normal((70, 70)))
    path = tmp_path / "f.csv"
    for write, obj, per_row in [(gw.wigner_to_csv, grid, 70), (gw.ConvergenceReport.to_csv, _report(300, 4), 1)]:
        sizes.clear()
        write(obj, path)
        text = path.read_text()
        lines = text.splitlines(keepends=True)[1:]
        rows = ["".join(lines[i:i + per_row]) for i in range(0, len(lines), per_row)]
        assert sum(sizes) == len(text) and len(sizes) == 1 + len(rows)
        assert max(sizes) <= max(map(len, rows))
    assert formatted == [(70, 70)]


# --- every writer rewrites its file in place ---------------------------------


def _routes():
    """Every writer route with a small object: ``{name: (write, obj)}``."""
    rng = np.random.default_rng(5)
    kernel = gw.symmetric_kernel(2)
    grid = gw.WignerGrid(gw.PhaseGrid(5, 0.37), "symmetric", rng.standard_normal((5, 5)))
    return {
        "state": (gw.save_density_json, gw.reconstruct(gw.wigner_grid(gw.PhaseGrid(5), kernel, gw.random_density(5, rng)), kernel)),
        "kernel": (gw.save_kernel, kernel),
        "grid-json": (gw.wigner_to_json, grid),
        "half-grid": (gw.halfgrid_to_json, gw.HalfIntegerWignerGrid(2, 0.37, rng.standard_normal((8, 8)))),
        "grid-csv": (gw.wigner_to_csv, grid),
        "converge-csv": (gw.ConvergenceReport.to_csv, gw.continuum_study(gw.superposition01(), "symmetric", 0, 0.5, [5, 10, 20])),
    }


ROUTES = _routes()


@pytest.mark.parametrize("route", ROUTES)
def test_overwriting_a_file_gives_the_bytes_of_a_fresh_write(tmp_path, route):
    write, obj = ROUTES[route]
    fresh = tmp_path / "fresh"
    write(obj, fresh)
    expected = fresh.read_bytes()
    for old in (b"#" * (3 * len(expected) + 4097), b"#" * (len(expected) // 2), expected + b"\n"):
        path = tmp_path / "old"
        path.write_bytes(old)
        write(obj, path)
        assert path.read_bytes() == expected


@pytest.mark.parametrize("route", ROUTES)
def test_writers_never_truncate_on_open(tmp_path, monkeypatch, route):
    flags = []
    real_open = os.open

    def recording(path, flag, *args, **kwargs):
        flags.append(flag)
        return real_open(path, flag, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording)
    write, obj = ROUTES[route]
    path = tmp_path / "f"
    path.write_bytes(b"#" * 100_000)
    write(obj, path)
    assert flags == [os.O_WRONLY | os.O_CREAT]
    assert b"#" not in path.read_bytes()


class Boom(Exception):
    pass


@pytest.mark.parametrize("route", ROUTES)
def test_a_writer_failing_midway_leaves_no_old_tail(tmp_path, monkeypatch, route):
    """As after ``open(path, "w")``: the text written so far, nothing of the old file."""
    write, obj = ROUTES[route]
    fresh = tmp_path / "fresh"
    write(obj, fresh)
    expected = fresh.read_bytes()

    class FailsOnThirdWrite:
        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def write(self, text):
            self.writes += 1
            if self.writes == 3:
                raise Boom
            return self.fh.write(text)

        def __getattr__(self, name):
            return getattr(self.fh, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    monkeypatch.setattr(_jsonio, "open", lambda *a, **k: FailsOnThirdWrite(open(*a, **k)), raising=False)
    path = tmp_path / "old"
    path.write_bytes(b"#" * (2 * len(expected)))
    with pytest.raises(Boom):
        write(obj, path)
    left = path.read_bytes()
    assert 0 < len(left) < len(expected) and expected.startswith(left)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
@pytest.mark.parametrize("route", ROUTES)
def test_a_fifo_is_written_and_not_truncated(tmp_path, route):
    write, obj = ROUTES[route]
    fresh, fifo = tmp_path / "fresh", tmp_path / "fifo"
    write(obj, fresh)
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        write(obj, fifo)
    finally:
        reader.join(timeout=10)
    assert not reader.is_alive() and received == [fresh.read_bytes()]
    assert stat.S_ISFIFO(fifo.stat().st_mode)


@pytest.mark.skipif(not os.path.exists(os.devnull), reason="no null device")
@pytest.mark.parametrize("command", WRITING)
def test_cli_writes_to_the_null_device(tmp_path, capsys, command):
    from gridwigner.cli import main

    assert main([*writing_commands(tmp_path)[command], "--out", os.devnull]) == 0
    assert capsys.readouterr().err == ""
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


# --- loaders take JSON numbers only ------------------------------------------


def _dump(path, obj):
    path.write_text(json.dumps(obj))
    return path


def _state_obj(rho):
    return {"dim": rho.shape[0], "matrix": [[[z.real, z.imag] for z in row] for row in rho.tolist()]}


def _grid_obj(values, kernel="symmetric", dim=None):
    return {"dim": dim or values.shape[0], "phi0": 0.0, "kernel": kernel, "values": values.tolist()}


@pytest.mark.parametrize("entry", ["0.25", True, None, [0.25]])
def test_state_loader_rejects_non_numbers(tmp_path, entry):
    obj = _state_obj(np.eye(2) / 2)
    obj["matrix"][1][1][1] = entry
    with pytest.raises((ValueError, TypeError)):
        gw.load_density_json(_dump(tmp_path / "s.json", obj))


def test_state_loader_rejects_a_true_among_floats(tmp_path):
    obj = _state_obj(np.diag([0.0, 1.0]))
    obj["matrix"][1][1][0] = True  # read as 1.0 this would be a valid state
    with pytest.raises(ValueError, match="not JSON numbers"):
        gw.load_density_json(_dump(tmp_path / "s.json", obj))


@pytest.mark.parametrize("dim", [True, "2", 2.0])
def test_state_loader_rejects_a_non_integer_dim(tmp_path, dim):
    obj = _state_obj(np.eye(2) / 2)
    obj["dim"] = dim
    with pytest.raises(ValueError, match="JSON integer"):
        gw.load_density_json(_dump(tmp_path / "s.json", obj))


@pytest.mark.parametrize("entry", ["1", False])
def test_kernel_loader_rejects_non_numbers(tmp_path, entry):
    path = tmp_path / "k.json"
    gw.save_kernel(gw.wootters_kernel(1), path)
    obj = json.loads(path.read_text())
    obj["values"][0][0][0] = entry
    with pytest.raises(ValueError, match="not JSON numbers"):
        gw.load_kernel(_dump(path, obj))


def test_pair_tables_of_the_wrong_shape_are_rejected(tmp_path):
    obj = _state_obj(np.eye(2) / 2)
    obj["matrix"][0][0] = [0.5, 0.0, 0.0]
    with pytest.raises(ValueError, match="density file matrix is not a rectangular table"):
        gw.load_density_json(_dump(tmp_path / "s.json", obj))
    obj["matrix"] = [[pair + [0.0] for pair in row] for row in _state_obj(np.eye(2) / 2)["matrix"]]
    with pytest.raises(ValueError, match="does not match its dim field"):
        gw.load_density_json(_dump(tmp_path / "s.json", obj))


def test_huge_integers_are_rejected_as_values(tmp_path):
    obj = _grid_obj(np.full((3, 3), 1 / 9))
    obj["values"][0][0] = 10**400
    with pytest.raises(ValueError):
        gw.load_wigner(_dump(tmp_path / "g.json", obj))


@pytest.mark.parametrize("load, kernel, side", [(gw.load_wigner, "symmetric", 3), (gw.load_halfgrid, "leonhardt", 4)])
@pytest.mark.parametrize("field, entry", [
    ("values", "0.111"), ("values", True), ("phi0", "0.3"), ("phi0", False), ("dim", True),
])
def test_grid_loaders_reject_non_numbers(tmp_path, load, kernel, side, field, entry):
    obj = _grid_obj(np.full((side, side), 1 / side**2), kernel, dim=3 if side == 3 else 2)
    if field == "values":
        obj["values"][1][1] = entry
    else:
        obj[field] = entry
    with pytest.raises(ValueError):
        load(_dump(tmp_path / "g.json", obj))


@pytest.mark.parametrize("values", [np.full((4, 4), 1 / 16), [["x"]]])
def test_each_grid_loader_refuses_the_other_kind_by_its_label(tmp_path, values):
    """A grid file of the other kind is refused by its ``kernel`` label before its table is read:
    a half-integer grid read as a kernel grid names ``load_halfgrid``, not its table's shape."""
    half, kernel_grid = _grid_obj(np.zeros((4, 4)), "leonhardt", dim=2), _grid_obj(np.zeros((4, 4)), "almost-symmetric")
    half["values"] = kernel_grid["values"] = np.asarray(values).tolist()
    with pytest.raises(ValueError, match=r"^a half-integer grid file: read it with load_halfgrid$"):
        gw.load_wigner(_dump(tmp_path / "h.json", half))
    with pytest.raises(ValueError, match=r"^not a half-integer grid file$"):
        gw.load_halfgrid(_dump(tmp_path / "w.json", kernel_grid))


def test_both_grid_kinds_name_their_kernel():
    half = gw.HalfIntegerWignerGrid(1, 0.0, np.full((4, 4), 1 / 16))
    grid = gw.WignerGrid(gw.PhaseGrid(3), "wootters", np.full((3, 3), 1 / 9))
    assert (half.kernel_label, grid.kernel_label) == ("leonhardt", "wootters")
    assert [f.name for f in dataclasses.fields(half)] == ["n_half", "phi0", "values"]  # the label is no field


@pytest.mark.parametrize("load", [gw.load_wigner, gw.load_halfgrid])
@pytest.mark.parametrize("label", [5, None])
def test_grid_loaders_refuse_a_label_that_is_not_a_string(tmp_path, load, label):
    with pytest.raises(ValueError, match=r"^grid kernel must be a JSON string, got (5|None)$"):
        load(_dump(tmp_path / "g.json", _grid_obj(np.full((4, 4), 1 / 16), label)))


@pytest.mark.parametrize("load", [gw.load_density_json, gw.load_kernel, gw.load_wigner, gw.load_halfgrid])
@pytest.mark.parametrize("top", [[1, 2], 5, "values", None])
def test_loaders_refuse_a_top_level_that_is_not_an_object(tmp_path, load, top):
    with pytest.raises(ValueError, match="top level must be a JSON object"):
        load(_dump(tmp_path / "f.json", top))


def test_grid_loader_rejects_a_string_epsilon(tmp_path):
    obj = _grid_obj(np.full((2, 2), 0.25), "almost-symmetric")
    obj["epsilon"] = "0.5"
    with pytest.raises(ValueError, match="not JSON numbers"):
        gw.load_wigner(_dump(tmp_path / "g.json", obj))
