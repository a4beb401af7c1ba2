"""Fuzz of the command line over argv and file contents.

Every run of the five subcommands must end in a documented exit code
(0, 2, 3, 4 or 5, and 6 when ``--out`` is a directory or lies in a
missing one), print at most one ``error:`` line (exactly one when it
fails) and otherwise only ``warning:`` lines, and never raise.
Dimensions stay at or below 12 so that no case allocates large arrays;
``converge`` grid sizes reach 10**6, since a continuum sweep costs
O(support) per size and builds no table.  Random tables seldom have a
grid's shape, so ``reconstruct`` is also fuzzed on well-formed grid files
whose finite entries reach 1.7e308.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gridwigner as gw
import oracles
from gridwigner.cli import STATE_ARGS, main

MAX_DIM = 12
EXIT_CODES = {0, 2, 3, 4, 5}
EXIT_WRITE = 6

small_ints = st.integers(-2, MAX_DIM)
odd_floats = st.sampled_from([math.nan, math.inf, -math.inf, math.pi / 2, math.pi / 4, 1e300, -0.0])
angles = st.one_of(st.floats(-10, 10), odd_floats)
huge_angles = st.one_of(angles, st.sampled_from([1.7e308, -1.7e308]))  # (phi - phi0) * dim overflows
numbers = st.one_of(small_ints.map(str), angles.map(repr), st.sampled_from(["", "x", "1e400", "0x3"]))
json_scalars = st.one_of(
    st.none(), st.booleans(), small_ints, st.floats(), st.text(max_size=3)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)
labels = st.sampled_from(["symmetric", "wootters", "almost-symmetric", "leonhardt", "custom", "file"])


def taint(draw, rows):
    """Stringify or boolify a few entries of a table of numbers, or none."""
    how = draw(st.sampled_from([None, None, str, lambda v: v > 0]))
    cells = [(i, j) for i, row in enumerate(rows) for j in range(len(row))]
    if how is not None and cells:
        for i, j in draw(st.lists(st.sampled_from(cells), min_size=1, max_size=3)):
            rows[i][j] = how(rows[i][j])
    return rows


@st.composite
def tables(draw, max_side=2 * MAX_DIM):
    rows = draw(st.integers(0, max_side))
    cols = draw(st.one_of(st.just(rows), st.integers(0, max_side)))
    scale = draw(st.sampled_from([1.0, 1e-3, 1e300, 1e307, 1.7e308]))
    seed = draw(st.integers(0, 2**32 - 1))
    return taint(draw, (np.random.default_rng(seed).standard_normal((rows, cols)) * scale).tolist())


@st.composite
def state_files(draw):
    """Contents of a density-matrix file: a real state, a tampered one, or junk."""
    kind = draw(st.sampled_from(["state", "tampered", "junk", "text"]))
    if kind == "text":
        return draw(st.text(max_size=20))
    if kind == "junk":
        return json.dumps(draw(json_values))
    d = draw(st.integers(1, MAX_DIM))
    rho = gw.random_density(d, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    obj = {"dim": d, "matrix": [[[z.real, z.imag] for z in row] for row in rho]}
    if kind == "tampered":
        field = draw(st.sampled_from(["dim", "matrix", "entry"]))
        if field == "entry":
            obj["matrix"][0][0] = draw(st.lists(json_scalars, max_size=3))
        else:
            obj[field] = draw(json_values)
    return json.dumps(obj)


@st.composite
def kernel_files(draw):
    """Contents of a kernel file: a built-in or random table, or junk."""
    kind = draw(st.sampled_from(["builtin", "random", "junk"]))
    if kind == "junk":
        return json.dumps(draw(json_values))
    d = draw(st.integers(1, MAX_DIM))
    if kind == "builtin" and d >= 2:
        n = d // 2
        values = (gw.almost_symmetric_kernel(n) if d % 2 == 0 else gw.wootters_kernel(n)).values
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        values = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return json.dumps({"dim": d, "values": [[[z.real, z.imag] for z in row] for row in values]})


@st.composite
def grid_files(draw):
    """Contents of a Wigner or half-integer grid file, mostly well-formed."""
    kind = draw(st.sampled_from(["state", "table", "junk"]))
    if kind == "junk":
        return json.dumps(draw(json_values))
    label = draw(labels)
    d = draw(st.integers(1, MAX_DIM))
    phi0 = draw(angles)
    if kind == "state":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        rho = gw.random_density(d, rng)
        if label == "leonhardt" and d % 2 == 0:
            values = gw.leonhardt_wigner(d // 2, 0.0, rho).values
        elif label == "wootters" and d % 2:
            values = oracles.wigner_wootters(gw.PhaseGrid(d), rho).values
        else:
            values = oracles.wigner_symmetric(gw.PhaseGrid(d), rho).values
        values = taint(draw, values.tolist())
    else:
        values = draw(tables())
    obj = {"dim": draw(st.one_of(st.just(d), json_values)), "phi0": phi0, "kernel": label, "values": values}
    if draw(st.booleans()):
        obj["epsilon"] = draw(st.one_of(angles, json_values))
    return json.dumps(obj)


def kernel_specs(paths):
    return st.one_of(
        st.sampled_from(["symmetric", "wootters", "almost-symmetric", "bogus"]),
        st.just(f"file:{paths['kernel']}"),
        st.just("file:missing.json"),
    )


def state_specs(paths):
    """A named spec with up to one token beyond its arguments, or the state file with or without one."""
    named = st.sampled_from(["fock", "phase", "mixed", "qubit", "superposition01", "nonsense"])
    return st.tuples(
        st.one_of(named, st.just(paths["state"])), st.lists(numbers, max_size=4)
    ).map(lambda t: [t[0], *t[1]])


def state_tokens(argv):
    """The tokens after ``--state``, up to the next option."""
    if "--state" not in argv:
        return []
    rest = argv[argv.index("--state") + 1 :]
    return rest[: next((i for i, tok in enumerate(rest) if tok.startswith("--")), len(rest))]


def options(pairs):
    """Optional ``--flag=value`` tokens, each present or not."""
    return st.tuples(*(st.one_of(st.just([]), value.map(lambda v, f=flag: [f"{f}={v}"])) for flag, value in pairs)).map(
        lambda parts: [tok for part in parts for tok in part]
    )


def argvs(command, paths):
    out = st.sampled_from([paths["out"], paths["dir"], paths["missing"]]).map(lambda path: ["--out", path])
    phi0_eps = options([("--phi0", angles.map(repr)), ("--epsilon", angles.map(repr))])
    dims = st.one_of(small_ints.map(str), numbers)
    if command == "wigner":
        parts = [
            st.just(["wigner", "--dim"]), dims.map(lambda d: [d]),
            kernel_specs(paths).map(lambda k: ["--kernel", k]), phi0_eps,
            state_specs(paths).map(lambda s: ["--state", *s]),
            options([("--format", st.sampled_from(["json", "csv"]))]), out,
        ]
    elif command == "reconstruct":
        parts = [
            st.just(["reconstruct", "--grid", paths["grid"]]),
            options([("--kernel", kernel_specs(paths)), ("--epsilon", angles.map(repr))]), out,
        ]
    elif command == "verify":
        parts = [
            st.just(["verify", "--dim"]), dims.map(lambda d: [d]),
            kernel_specs(paths).map(lambda k: ["--kernel", k]), phi0_eps,
        ]
    elif command == "converge":
        ns = st.lists(st.integers(-1, 10**6).map(str) | numbers, max_size=4).map(",".join)
        parts = [
            st.just(["converge", "--kernel"]),
            st.sampled_from(["symmetric", "wootters", "almost-symmetric", "bogus"]).map(lambda k: [k]),
            state_specs(paths).map(lambda s: ["--state", *s]),
            small_ints.map(lambda n: ["--n", str(n)]), huge_angles.map(lambda p: [f"--phi={p!r}"]),
            ns.map(lambda n: [f"--Ns={n}"]), options([("--phi0", huge_angles.map(repr))]), out,
        ]
    else:
        state = state_specs(paths).map(lambda s: ["--state", *s])
        flat = lambda ps: [tok for p in ps for tok in p]
        parts = [
            st.just(["relate", "--direction"]),
            st.one_of(
                st.tuples(
                    st.sampled_from([["odd"], ["even"]]), st.just(["--grid", paths["grid"]]),
                    st.one_of(st.just([]), state), options([("--epsilon", angles.map(repr))]),
                ).map(flat),
                # a skew together with a state: the even relation resolves its kernel for both
                st.tuples(
                    st.just(["even", "--grid", paths["grid"]]), angles.map(lambda e: [f"--epsilon={e!r}"]), state
                ).map(flat),
            ),
            out,
        ]
    return st.tuples(*parts).map(lambda ps: [tok for p in ps for tok in p])


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv itself
            code = exc.code
    return code, err.getvalue()


@pytest.mark.parametrize("command", ["wigner", "reconstruct", "verify", "converge", "relate"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cli_exits_with_a_documented_code(command, data):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: str(Path(tmp) / f"{name}.json") for name in ("state", "kernel", "grid", "out")}
        paths.update(dir=tmp, missing=str(Path(tmp) / "missing" / "out.json"))
        Path(paths["state"]).write_text(data.draw(state_files(), label="state file"))
        Path(paths["kernel"]).write_text(data.draw(kernel_files(), label="kernel file"))
        Path(paths["grid"]).write_text(data.draw(grid_files(), label="grid file"))
        argv = data.draw(argvs(command, paths), label="argv")
        code, err = run_cli(argv)
    unwritable = argv[-2:] in (["--out", paths["dir"]], ["--out", paths["missing"]])
    assert code in (EXIT_CODES - {0} | {EXIT_WRITE} if unwritable else EXIT_CODES), (code, err)
    assert_one_error_line(code, err)
    spec = state_tokens(argv)
    if spec and len(spec) > 1 + STATE_ARGS.get(spec[0], 0):  # a token the spec has no use for
        assert code != 0, argv


def assert_one_error_line(code, err):
    """One ``error:`` line exactly when the run failed; every other line a ``warning:``."""
    lines = err.splitlines()
    assert len([line for line in lines if line.startswith("error: ")]) == (code != 0), err
    assert all(line.startswith(("error: ", "warning: ")) for line in lines), err
    assert "Traceback" not in err


@st.composite
def huge_grid_files(draw):
    """A well-formed kernel or half grid file whose finite entries reach the largest floats."""
    label = draw(st.sampled_from(["symmetric", "wootters", "almost-symmetric", "leonhardt"]))
    d = 2 * draw(st.integers(1, MAX_DIM // 2 - 1)) + (label in ("symmetric", "wootters"))
    side = 2 * d if label == "leonhardt" else d
    scale = draw(st.sampled_from([1e300, 1e307, 1.7e308]))
    values = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-1, 1, (side, side)) * scale
    obj = {"dim": d, "phi0": draw(st.floats(-10, 10)), "kernel": label, "values": values.tolist()}
    if draw(st.booleans()):
        obj["epsilon"] = draw(st.floats(-3, 3))
    return json.dumps(obj)


@settings(max_examples=60, deadline=None)
@given(grid=huge_grid_files())
def test_reconstruct_of_huge_finite_grids_exits_with_a_documented_code(grid):
    # the inverse or the half grid's round trip overflows: exit 4 with one error line
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "grid.json"
        path.write_text(grid)
        code, err = run_cli(["reconstruct", "--grid", str(path), "--out", str(Path(tmp) / "out.json")])
    assert code in EXIT_CODES, (code, err)
    assert_one_error_line(code, err)


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, MAX_DIM // 2).map(lambda h: 2 * h + 1), name=st.sampled_from(sorted(STATE_ARGS) + ["file"]),
    level=st.integers(0, 2), extra=st.lists(numbers, min_size=1, max_size=2), command=st.sampled_from(["wigner", "converge"]),
)
def test_a_token_after_a_complete_state_spec_exits_2(d, name, level, extra, command):
    """A spec that is complete and valid on its own, followed by more tokens, is refused."""
    with tempfile.TemporaryDirectory() as tmp:
        state = str(Path(tmp) / "state.json")
        gw.save_density_json(gw.maximally_mixed(2 if command == "converge" else d), state)
        spec = {"fock": [name, str(level)], "phase": [name, str(level)], "qubit": [name, "0", "0", "1"], "file": [state]}.get(name, [name])
        if command == "wigner":
            dim, kernel = (2, "almost-symmetric") if name == "qubit" else (d, "symmetric")
            argv = ["wigner", "--dim", str(dim), "--kernel", kernel, "--state", *spec, *extra]
        else:
            argv = ["converge", "--kernel", "symmetric", "--state", *spec, *extra, "--n", "0", "--phi", "0", "--Ns", "10,20"]
        code, err = run_cli([*argv, "--out", str(Path(tmp) / "out")])
    assert code == 2, (argv, err)
    assert_one_error_line(code, err)
