"""The file layer: streaming writers against the ``json.dump`` and per-value
CSV oracles, exact round trips, and loaders that accept JSON numbers only.

Tables have side 1 to 40 and carry the float edge values ``-0.0``,
``5e-324``, ``1e308`` and ``1e-300`` at random places.
"""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gridwigner as gw
import oracles

EDGES = (-0.0, 5e-324, 1e308, 1e-300, -1e308, 0.0)
SETTINGS = settings(max_examples=40, deadline=None)

angles = st.one_of(st.floats(-10, 10), st.sampled_from(EDGES))


@st.composite
def tables(draw, side=None):
    """A real ``side x side`` table: scaled normals with edge values planted."""
    d = draw(st.integers(1, 40)) if side is None else side
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.standard_normal((d, d)) * draw(st.sampled_from([1.0, 1e-300, 1e300]))
    planted = draw(st.lists(st.tuples(st.integers(0, d * d - 1), st.sampled_from(EDGES)), max_size=8))
    for i, v in planted:
        values.flat[i] = v
    return values


@st.composite
def complex_tables(draw):
    re = draw(tables())
    return re + 1j * draw(tables(side=re.shape[0]))


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


@SETTINGS
@given(complex_tables())
def test_kernel_writer_matches_json_dump(table):
    _bytes_match(gw.save_kernel, oracles.save_kernel, gw.kernel_from_table(table))


@SETTINGS
@given(tables(), angles, st.one_of(st.none(), angles), st.sampled_from(["symmetric", "custom", "sümmetrisch"]))
def test_grid_writers_match_json_dump_and_csv_loop(values, phi0, eps, label):
    w = gw.WignerGrid(gw.PhaseGrid(values.shape[0], phi0), label, values, eps)
    _bytes_match(gw.wigner_to_json, oracles.wigner_to_json, w)
    _bytes_match(gw.wigner_to_csv, oracles.wigner_to_csv, w)


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
    kernel = gw.kernel_from_table(table)
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


def test_writers_emit_no_whole_file_string(tmp_path, monkeypatch):
    """A table is encoded row by row: no single ``json.dumps`` call sees it whole."""
    calls = []
    original = json.dumps

    def counted(obj, *args, **kwargs):
        calls.append(obj)
        return original(obj, *args, **kwargs)

    monkeypatch.setattr(json, "dumps", counted)
    rho = gw.random_density(6, np.random.default_rng(1))
    gw.save_density_json(rho, tmp_path / "s.json")
    assert len(calls) == 2 + 1 + 6  # two keys, the dim, six rows
    assert all(len(c) <= 6 for c in calls if isinstance(c, list))


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


def test_grid_loader_rejects_a_string_epsilon(tmp_path):
    obj = _grid_obj(np.full((2, 2), 0.25), "almost-symmetric")
    obj["epsilon"] = "0.5"
    with pytest.raises(ValueError, match="not JSON numbers"):
        gw.load_wigner(_dump(tmp_path / "g.json", obj))
