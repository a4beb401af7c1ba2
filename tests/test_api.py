"""The public names of the package, pinned.

Adding, removing or renaming an export is a change of the public API: it
must show up as a diff of this list.  Submodules are not counted; they
appear as package attributes only once something imports them.
"""

import ast
import contextlib
import functools
import gc
import importlib
import inspect
import io
import os
import pickle
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gridwigner
from gridwigner import cli

PUBLIC = [
    "ConvergenceReport", "ConvergenceRow", "EmbeddingError", "HalfIntegerWignerGrid", "Kernel",
    "KernelValidity", "Line", "LineReport", "OrderingReport", "PhaseGrid", "Quantizer",
    "QuantizerReport",
    "ReconstructionError", "TOL", "WignerGrid", "almost_symmetric_kernel",
    "build_quantizer", "characteristic", "check_density",
    "continuum_study", "default_epsilon", "displacement", "expectation",
    "family_projectors", "fock_state", "frob_dist",
    "halfgrid_to_json", "is_positive_semidefinite",
    "is_unimodular", "leonhardt_reconstruct", "leonhardt_wigner",
    "line_points", "line_projector", "load_density_json",
    "load_halfgrid", "load_kernel", "load_wigner", "marginals", "maximally_mixed",
    "number_ket", "number_op", "number_phase_target", "operator_from_characteristic",
    "ordering_check", "phase_basis", "phase_density", "phase_function_op", "phase_ket",
    "phase_op", "phase_state",
    "psd_deficit", "quantize", "qubit_state", "random_density", "reconstruct",
    "relate", "relate_even", "relate_odd",
    "save_density_json", "save_kernel", "superposition01", "symbol",
    "symmetric_kernel", "u_op",
    "v_op", "validate", "verify_lines", "verify_quantizer", "wigner",
    "wigner_grid", "wigner_to_csv",
    "wigner_to_json", "wootters_kernel",
    "wootters_target",
]


def test_public_names_are_pinned():
    names = sorted(
        name for name, obj in vars(gridwigner).items() if not name.startswith("_") and not inspect.ismodule(obj)
    )
    assert names == PUBLIC


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(Path(gridwigner.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue  # its imports are the public names pinned above
        tree = ast.parse(path.read_text())
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [a.asname or a.name.partition(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [a.asname or a.name for a in node.names]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in imported if name not in used]
    assert unused == []


def test_every_private_helper_has_a_reader():
    """Each private module-level function or class is read somewhere in the package
    outside its own definition: a helper left behind by a removed route fails."""
    defined, reads = {}, []
    for path in sorted(Path(gridwigner.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and top.name.startswith("_") and not top.name.endswith("__"):
                defined[top] = f"{path.name}: {top.name}"
            names = {n.id for n in ast.walk(top) if isinstance(n, ast.Name)}
            reads.append((top, names | {n.attr for n in ast.walk(top) if isinstance(n, ast.Attribute)}))
    unread = [
        label for top, label in defined.items()
        if not any(top.name in names for other, names in reads if other is not top)
    ]
    assert unread == []


def test_every_object_is_built_by_its_constructor():
    """No module calls ``object.__new__`` or touches an instance ``__dict__``: a grid, a kernel
    or a quantizer is made by its own constructor, which checks it, and by no bypass."""
    found = []
    for path in sorted(Path(gridwigner.__file__).parent.glob("*.py")):
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)
            and (node.attr == "__dict__" or (node.attr == "__new__" and ast.unparse(node.value) == "object"))
        ]
    assert found == []


def test_only_the_transform_helper_calls_numpy_ffts():
    """No code in the package but ``phasespace._dft`` names ``np.fft.fft``, ``ifft``, ``fft2``
    or ``ifft2``: every complex transform takes one route."""
    calls = []
    for path in sorted(Path(gridwigner.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        helper = [n for n in tree.body if isinstance(n, ast.FunctionDef) and (path.name, n.name) == ("phasespace.py", "_dft")]
        exempt = {id(node) for n in helper for node in ast.walk(n)}
        calls += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in ("fft", "ifft", "fft2", "ifft2")
            and ast.unparse(node.value) in ("np.fft", "numpy.fft") and id(node) not in exempt
        ]
    assert calls == []



def test_json_text_is_made_in_the_file_layer_alone():
    """No module but ``_jsonio`` and ``_floattext`` names ``json.dumps`` or ``json.dump``:
    every JSON file is written by ``_jsonio.write_json``."""
    found = []
    for path in sorted(Path(gridwigner.__file__).parent.glob("*.py")):
        if path.name not in ("_jsonio.py", "_floattext.py"):
            found += [
                f"{path.name}:{node.lineno}" for node in ast.walk(ast.parse(path.read_text()))
                if (isinstance(node, ast.Attribute) and node.attr in ("dumps", "dump") and ast.unparse(node.value) == "json")
                or (isinstance(node, ast.ImportFrom) and node.module == "json")
            ]
    assert found == []


def test_csv_text_is_made_in_the_file_layer_alone():
    """No module but ``_jsonio`` and ``_floattext`` holds a ``.17g`` format, in a
    ``%`` template, an f-string or ``format``: every CSV file is written by
    ``_jsonio.write_grid_csv`` or ``_jsonio.write_report_csv``."""
    found = []
    for path in sorted(Path(gridwigner.__file__).parent.glob("*.py")):
        if path.name not in ("_jsonio.py", "_floattext.py"):
            found += [
                f"{path.name}:{node.lineno}" for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Constant) and isinstance(node.value, str) and ".17g" in node.value
            ]
    assert found == []


def test_grid_files_are_decoded_in_wigner_alone():
    """No module but ``wigner`` holds the label ``"leonhardt"`` or calls ``number_table`` (defined
    in ``_jsonio``): one decoder reads both grid kinds, and every other module asks
    ``HalfIntegerWignerGrid.kernel_label`` or ``isinstance`` which kind a grid is."""
    found = []
    for path in sorted(Path(gridwigner.__file__).parent.glob("*.py")):
        if path.name != "wigner.py":
            found += [
                f"{path.name}:{node.lineno}" for node in ast.walk(ast.parse(path.read_text()))
                if (isinstance(node, ast.Constant) and node.value == "leonhardt")
                or (path.name != "_jsonio.py" and isinstance(node, ast.Call)
                    and ast.unparse(node.func).split(".")[-1] == "number_table")
            ]
    assert found == []


def test_the_kernel_families_are_named_in_kernels_alone():
    """No module but ``kernels`` spells out the built-in family labels as a tuple: the others read
    ``kernels.FAMILIES``."""
    families = {"symmetric", "wootters", "almost-symmetric"}
    found = []
    for path in sorted(Path(gridwigner.__file__).parent.glob("*.py")):
        if path.name != "kernels.py":
            found += [
                f"{path.name}:{node.lineno}" for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, (ast.Tuple, ast.List, ast.Set))
                and families <= {e.value for e in node.elts if isinstance(e, ast.Constant)}
            ]
    assert found == []


def test_importing_the_package_leaves_the_block_formatter_unloaded(tmp_path):
    """``_floattext`` builds its tables on import, so only the first CSV grid or large JSON table
    loads it; a convergence table, however long, never does."""
    env = {**os.environ, "PYTHONPATH": str(Path(gridwigner.__file__).parents[1])}
    code = "import sys, gridwigner, gridwigner.cli; print('gridwigner._floattext' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"
    sizes = ",".join(map(str, range(5, 305)))  # 300 rows, 1800 values: past 1024
    argv = ["converge", "--kernel", "symmetric", "--state", "fock", "1", "--n", "1", "--phi", "0.5", "--Ns", sizes]
    argv += ["--out", str(tmp_path / "c.csv")]
    code = "import sys; from gridwigner.cli import main; main(sys.argv[1:]); print('gridwigner._floattext' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "False" and len((tmp_path / "c.csv").read_text().splitlines()) == 301


def _opens_for_writing(call: ast.Call) -> bool:
    """Whether a call opens a file for writing: ``os.open``, ``write_text``,
    ``write_bytes``, or ``open``/``fdopen`` with a mode that is not a read."""
    func = call.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and (func.value.id, func.attr) == ("os", "open"):
        return True
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name not in ("open", "fdopen"):
        return False
    modes = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
    read = lambda mode: isinstance(mode, ast.Constant) and isinstance(mode.value, str) and not set(mode.value) & set("wax+")
    return not all(map(read, modes))


def test_every_output_file_is_opened_by_the_one_opener():
    """No module opens a file for writing except ``_jsonio.open_out``."""
    found = []
    for path in sorted(Path(gridwigner.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        opener = [n for n in tree.body if isinstance(n, ast.FunctionDef) and (path.name, n.name) == ("_jsonio.py", "open_out")]
        exempt = {id(node) for n in opener for node in ast.walk(n)}
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and id(node) not in exempt and _opens_for_writing(node)
        ]
    assert found == []


def test_the_tolerance_is_named_in_linalg_alone():
    """No module but ``linalg`` (and ``__init__``, which exports it) names ``TOL``:
    every check goes through ``linalg.within``.  No public function takes ``tol`` or ``slack``."""
    found = []
    for path in sorted(Path(gridwigner.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.name not in ("linalg.py", "__init__.py"):
            found += [
                f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                if (isinstance(node, ast.Name) and node.id == "TOL")
                or (isinstance(node, ast.Attribute) and node.attr == "TOL")
                or (isinstance(node, ast.alias) and node.name == "TOL")
            ]
        found += [
            f"{path.name}:{node.lineno} {node.name}({arg.arg})" for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
            for arg in node.args.args + node.args.kwonlyargs if arg.arg in ("tol", "slack")
        ]
    assert found == []


def _is_kernel_table(node) -> bool:
    """``<...>kernel<...>.values``: ``kernel.values``, ``kernel_from.values``, ``q.kernel.values``."""
    return isinstance(node, ast.Attribute) and node.attr == "values" and "kernel" in ast.unparse(node.value).split(".")[-1]


def test_the_kernel_moduli_are_taken_in_kernels_alone():
    """No module but ``kernels`` calls ``np.abs`` on a kernel's table: ``min |K|`` and ``max |K|``
    are read from ``Kernel.moduli``."""
    found = []
    for path in sorted(Path(gridwigner.__file__).parent.glob("*.py")):
        if path.name != "kernels.py":
            found += [
                f"{path.name}:{node.lineno}" for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Call) and ast.unparse(node.func) in ("np.abs", "np.absolute")
                and any(_is_kernel_table(arg) for arg in node.args)
            ]
    assert found == []


def test_a_kernel_table_takes_one_abs_pass(monkeypatch, rng):
    """Across every map that reads ``min |K|`` or ``max |K|``, the kernel's table takes one ``abs``
    pass, in ``Kernel.moduli``; the only other is ``verify_quantizer``'s, which predicts the
    overlaps from every ``|K|**2``."""
    grid = gridwigner.PhaseGrid(7, 0.37)
    kernel, kernel_to = gridwigner.wootters_kernel(3), gridwigner.symmetric_kernel(3)
    rho = gridwigner.random_density(7, rng)
    passes = []

    def absolute(x, *args, **kwargs):
        if x is kernel.values or x is kernel_to.values:
            passes.append((x is kernel.values, sys._getframe(1).f_code.co_name))
        return np.absolute(x, *args, **kwargs)

    monkeypatch.setattr(np, "abs", absolute)
    gridwigner.validate(kernel)
    q = gridwigner.build_quantizer(grid, kernel)
    w = gridwigner.wigner(q, rho)
    gridwigner.symbol(q, rho)
    gridwigner.reconstruct(w, kernel)
    gridwigner.relate(w, kernel, kernel_to)
    gridwigner.verify_quantizer(q)
    gridwigner.is_unimodular(kernel)
    assert passes == [(True, "moduli"), (True, "verify_quantizer")]


def test_a_grid_holds_no_tables():
    """Every map leaves its grid a plain value: after the maps run, no attribute of the
    ``PhaseGrid`` is an array or a tuple holding one, so no table outlives its call."""
    grid = gridwigner.PhaseGrid(7, 0.37)
    kernel = gridwigner.wootters_kernel(3)
    rho = gridwigner.fock_state(7, 2)
    q = gridwigner.build_quantizer(grid, kernel)
    w = gridwigner.wigner_grid(grid, kernel, rho)
    gridwigner.characteristic(grid, rho)
    gridwigner.reconstruct(w, kernel)
    gridwigner.symbol(q, gridwigner.quantize(q, w.values))
    gridwigner.verify_quantizer(q)
    cli._phase_marginal(grid, rho)
    assert q.grid is grid and w.grid is grid
    held = [
        name for name, value in vars(grid).items()
        if isinstance(value, np.ndarray)
        or (isinstance(value, tuple) and any(isinstance(v, np.ndarray) for v in value))
    ]
    assert held == []


def test_a_quantizer_never_rebuilds_its_sheared_table(monkeypatch):
    """Every map of a quantizer reads the kernel through ``Quantizer.weights``, the
    sheared table built once by ``build_quantizer``: none of them builds the shear again."""
    grid = gridwigner.PhaseGrid(7, 0.37)
    q = gridwigner.build_quantizer(grid, gridwigner.wootters_kernel(3))

    def refuse(grid):
        raise AssertionError("the shear was built again")

    monkeypatch.setattr(gridwigner.phasespace, "_shear", refuse)
    w = gridwigner.wigner(q, gridwigner.fock_state(7, 2))
    assert np.max(np.abs(gridwigner.symbol(q, gridwigner.quantize(q, w.values)) - w.values)) <= 1e-12
    projector = gridwigner.line_projector(q, gridwigner.Line(1, 2, 3, 7))
    assert np.max(np.abs(projector @ projector - projector)) <= 1e-12
    assert gridwigner.verify_quantizer(q).core_pass()


#: Budget of each kernel map's warm ``tracemalloc`` peak at dim 257, in complex dim x dim
#: tables: a quarter table above the peak measured when the budget was set.
WORKING_SET = {
    "quantize": 6.25, "symbol": 4.25, "wigner": 3.375,
    "wigner_grid": 3.375, "reconstruct": 5.25, "verify_quantizer": 5.25,
    "verify_lines": 2.75,
}


@pytest.fixture(scope="module")
def maps_at_257():
    d = 257
    grid = gridwigner.PhaseGrid(d, 0.37)
    kernel = gridwigner.symmetric_kernel((d - 1) // 2)
    q = gridwigner.build_quantizer(grid, kernel)
    rng = np.random.default_rng(257)
    rho = gridwigner.random_density(d, rng)
    f = rng.standard_normal((d, d))
    w = gridwigner.wigner_grid(grid, kernel, rho)
    op = gridwigner.quantize(q, f)
    return {
        "quantize": lambda: gridwigner.quantize(q, f),
        "symbol": lambda: gridwigner.symbol(q, op),
        "wigner": lambda: gridwigner.wigner(q, rho),
        "wigner_grid": lambda: gridwigner.wigner_grid(grid, kernel, rho),
        "reconstruct": lambda: gridwigner.reconstruct(w, kernel),
        "verify_quantizer": lambda: gridwigner.verify_quantizer(q),
        "verify_lines": lambda: gridwigner.verify_lines(q),
    }


@pytest.mark.parametrize("name", sorted(WORKING_SET))
def test_each_kernel_map_keeps_its_working_set(maps_at_257, name):
    """The largest memory a warm call holds at once stays within its budget."""
    call = maps_at_257[name]
    call()
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (16 * 257**2) <= WORKING_SET[name]


@pytest.mark.parametrize("make", [gridwigner.symmetric_kernel, gridwigner.wootters_kernel])
def test_a_built_in_kernel_maps_a_state_without_its_table(tmp_path, monkeypatch, make):
    """Building a symmetric or wootters kernel and running ``wigner_grid`` builds neither the kernel
    table nor the sheared weights: at d = 257 both together stay within the map's own working set,
    which one more complex table would break.  Read afterwards, the table is bitwise its closed
    form, and ``save_kernel`` writes the bytes it writes for that table given as ``Kernel(values)``."""
    d = 257
    grid, rho = gridwigner.PhaseGrid(d, 0.37), gridwigner.random_density(d, np.random.default_rng(d))

    def refuse(*args):
        raise AssertionError("the sheared weights were built")

    monkeypatch.setattr(importlib.import_module("gridwigner.quantizer"), "_sheared_weights", refuse)
    def call():
        return gridwigner.wigner_grid(grid, make(d // 2), rho)

    call()
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (16 * d**2) <= WORKING_SET["wigner_grid"]
    kernel = make(d // 2)
    gridwigner.wigner_grid(grid, kernel, rho)
    assert "values" not in vars(kernel) and "moduli" not in vars(kernel)
    kl = np.multiply.outer(np.arange(d), np.arange(d))
    table = np.cos(np.pi * (kl % (2 * d)) / d) if make is gridwigner.symmetric_kernel else (-1.0) ** kl
    assert kernel.values.dtype == complex and kernel.values.tobytes() == table.astype(complex).tobytes()
    assert pickle.loads(pickle.dumps(make(d // 2))).values.tobytes() == kernel.values.tobytes()
    gridwigner.save_kernel(kernel, tmp_path / "built_in.json")
    gridwigner.save_kernel(gridwigner.Kernel(table), tmp_path / "table.json")
    assert (tmp_path / "built_in.json").read_bytes() == (tmp_path / "table.json").read_bytes()


def test_every_route_returns_a_table_of_its_own(rng, tmp_path):
    """Each Wigner table a library route, a loader or a public constructor returns is
    C-contiguous float64 and owns its memory: no view keeps a complex table (or the input's
    table) alive behind it."""
    tables = {}
    for d in (5, 37):  # a cached DFT matrix below 36 points, numpy's FFTs above
        grid, sym, woot = gridwigner.PhaseGrid(d, 0.37), gridwigner.symmetric_kernel(d // 2), gridwigner.wootters_kernel(d // 2)
        rho = gridwigner.random_density(d, rng)
        w = gridwigner.wigner_grid(grid, woot, rho)
        tables[f"wigner d={d}"] = gridwigner.wigner(gridwigner.build_quantizer(grid, sym), rho)
        tables[f"wigner_grid d={d}"] = w
        tables[f"relate d={d}"] = gridwigner.relate(w, woot, sym)
        tables[f"relate_odd d={d}"] = gridwigner.relate_odd(w)
        half = gridwigner.leonhardt_wigner(d // 2, 0.37, gridwigner.random_density(2 * (d // 2), rng))
        tables[f"leonhardt_wigner N={d // 2}"] = half
        tables[f"relate_even N={d // 2}"] = gridwigner.relate_even(half, 0.3)
        gridwigner.wigner_to_json(w, tmp_path / "w.json")
        tables[f"load_wigner d={d}"] = gridwigner.load_wigner(tmp_path / "w.json")
        gridwigner.halfgrid_to_json(half, tmp_path / "h.json")
        tables[f"load_halfgrid N={d // 2}"] = gridwigner.load_halfgrid(tmp_path / "h.json")
        wide = rng.standard_normal((d, 2 * d))
        tables[f"WignerGrid strided d={d}"] = gridwigner.WignerGrid(grid, "custom", wide[:, ::2])
        tables[f"WignerGrid float32 d={d}"] = gridwigner.WignerGrid(grid, "custom", wide[:, :d].astype(np.float32))
        wide = rng.standard_normal((4 * (d // 2), 8 * (d // 2)))
        tables[f"HalfIntegerWignerGrid strided N={d // 2}"] = gridwigner.HalfIntegerWignerGrid(d // 2, 0.37, wide[:, ::2])
        tables[f"HalfIntegerWignerGrid float32 N={d // 2}"] = gridwigner.HalfIntegerWignerGrid(
            d // 2, 0.37, wide[:, : 4 * (d // 2)].astype(np.float32)
        )
    shared = [
        name for name, w in tables.items()
        if not (w.values.dtype == np.float64 and w.values.flags.c_contiguous and w.values.flags.owndata)
    ]
    assert shared == []
    owned = np.ones((5, 5))
    assert gridwigner.WignerGrid(gridwigner.PhaseGrid(5), "custom", owned).values is owned


def _profile_events(call) -> int:
    """The ``sys.setprofile`` ``call`` and ``c_call`` events of one run of ``call``, its output
    discarded and the garbage collector paused, so no finalizer of other objects is counted."""
    events = 0

    def count(frame, event, arg):
        nonlocal events
        events += event in ("call", "c_call")

    with contextlib.redirect_stdout(io.StringIO()):
        gc.collect()
        gc.disable()
        try:
            sys.setprofile(count)
            call()
        finally:
            sys.setprofile(None)
            gc.enable()
    return events


#: Budget of the fixed cost of each small-d query, in ``sys.setprofile`` ``call`` and ``c_call``
#: events of one warm run at d = 9 and at d = 15: a tenth above the count measured at both when
#: the budget was set (numpy 2.4.6, Python 3.11).  Counts do not depend on the host's speed, so a
#: query that gains a Python-level helper or a numpy wrapper call fails here on any host; another
#: numpy or Python version may move them.
CALL_BUDGET = {
    "wigner": 87, "quantize": 35, "symbol": 35, "ordering_check": 64, "line_projector": 68,
    "verify_quantizer": 93, "verify_lines": 59, "cli verify symmetric": 577, "cli verify wootters": 566,
}


def _small_queries(d):
    grid = gridwigner.PhaseGrid(d, 0.37)
    q = gridwigner.build_quantizer(grid, gridwigner.symmetric_kernel(d // 2))
    q_lines = gridwigner.build_quantizer(grid, gridwigner.wootters_kernel(d // 2))
    rng = np.random.default_rng(d)
    rho = gridwigner.random_density(d, rng)
    f = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    op = gridwigner.quantize(q, f)
    f1, f2 = rng.standard_normal(d) + 1j * rng.standard_normal(d), rng.standard_normal(d)
    verify = ["verify", "--dim", str(d), "--phi0", "0.37", "--kernel"]
    return {
        "wigner": lambda: gridwigner.wigner(q, rho),
        "quantize": lambda: gridwigner.quantize(q, f),
        "symbol": lambda: gridwigner.symbol(q, op),
        "ordering_check": lambda: gridwigner.ordering_check(q, f1, f2),
        "line_projector": lambda: gridwigner.line_projector(q_lines, gridwigner.Line(1, 2, 3, d)),
        "verify_quantizer": lambda: gridwigner.verify_quantizer(q),
        "verify_lines": lambda: gridwigner.verify_lines(q_lines),
        "cli verify symmetric": lambda: cli.main([*verify, "symmetric"]),
        "cli verify wootters": lambda: cli.main([*verify, "wootters"]),
    }


@pytest.mark.parametrize("d", [9, 15])
def test_each_small_query_keeps_its_call_budget(d):
    """One warm run of each cached-quantizer query and verification at small ``d`` stays within
    its budget of calls: the fixed cost that dominates at ``d <= 31``, counted deterministically."""
    counts = {}
    for name, call in _small_queries(d).items():
        _profile_events(call)  # warm: caches filled, the parser built
        counts[name] = _profile_events(call)
    over = {name: (n, CALL_BUDGET[name]) for name, n in counts.items() if n > CALL_BUDGET[name]}
    assert over == {}, counts


#: Budget of writing the grid of a number state, one row repeated, in ``sys.setprofile`` ``call`` and
#: ``c_call`` events of one warm write, by format and dim: a tenth above the count measured when the
#: budget was set (numpy 2.4.6, Python 3.11; the Fock and the maximally mixed grid count alike).
#: The block formatter's fixed cost, about a hundred numpy calls, does not fit in it.
NUMBER_GRID_BUDGET = {("json", 33): 217, ("csv", 33): 224, ("json", 129): 428, ("csv", 129): 647}


@pytest.mark.parametrize("d", [33, 129])
@pytest.mark.parametrize("state", ["fock", "mixed"])
def test_each_number_state_grid_write_keeps_its_call_budget(tmp_path, state, d):
    """A grid of one row repeated is written at the cost of its rows' assembly: no fixed cost of
    the block formatter, counted deterministically."""
    rho = gridwigner.fock_state(d, 1) if state == "fock" else gridwigner.maximally_mixed(d)
    w = gridwigner.wigner_grid(gridwigner.PhaseGrid(d, 0.37), gridwigner.symmetric_kernel((d - 1) // 2), rho)
    counts = {}
    for fmt, write in [("json", gridwigner.wigner_to_json), ("csv", gridwigner.wigner_to_csv)]:
        call = functools.partial(write, w, tmp_path / f"w.{fmt}")
        _profile_events(call)  # warm: the formatter's module imported
        counts[fmt, d] = _profile_events(call)
    assert all(n <= NUMBER_GRID_BUDGET[key] for key, n in counts.items()), counts


#: Budget of each JSON writer's ``tracemalloc`` peak at dim 257, in complex dim x dim
#: tables: a quarter table above the largest peak measured when the budget was set
#: (1.37, ``wigner_to_json``).  A writer holds one block of rows at a time, so the peak
#: follows ``_floattext.BLOCK``, not the dim.
WRITER_WORKING_SET = 1.625


@pytest.fixture(scope="module")
def writers_at_257():
    d = 257
    kernel = gridwigner.symmetric_kernel((d - 1) // 2)
    rho = gridwigner.random_density(d, np.random.default_rng(257))
    return {
        "save_density_json": (gridwigner.save_density_json, rho),
        "save_kernel": (gridwigner.save_kernel, kernel),
        "wigner_to_json": (gridwigner.wigner_to_json, gridwigner.wigner_grid(gridwigner.PhaseGrid(d), kernel, rho)),
        "wigner_to_csv": (gridwigner.wigner_to_csv, gridwigner.wigner_grid(gridwigner.PhaseGrid(d, 0.37), kernel, rho)),
    }


@pytest.mark.parametrize("name", ["save_density_json", "save_kernel", "wigner_to_json", "wigner_to_csv"])
def test_each_json_writer_keeps_its_working_set(writers_at_257, tmp_path, name):
    """A writer holds one block of rows at a time, never the whole text or a copy of the table."""
    write, obj = writers_at_257[name]
    path = tmp_path / "f.json"
    write(obj, path)
    tracemalloc.start()
    try:
        write(obj, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (16 * 257**2) <= WRITER_WORKING_SET


@pytest.mark.parametrize("d, budget", [(257, 2.75), (1025, 1.375)])
def test_a_hermitian_state_writer_keeps_its_working_set(tmp_path, d, budget):
    """A state ``reconstruct`` returns is Hermitian bit for bit, so its writer keeps the cells
    still to be mirrored, at most one complex dim x dim table, besides its block.  The budgets
    are those stated for that route (measured 2.47 at dim 257 and 1.24 at dim 1025): the
    block dominates at 257, the store at 1025."""
    kernel = gridwigner.symmetric_kernel((d - 1) // 2)
    rho = gridwigner.random_density(d, np.random.default_rng(d))
    state = gridwigner.reconstruct(gridwigner.wigner_grid(gridwigner.PhaseGrid(d), kernel, rho), kernel)
    del rho
    path = tmp_path / "s.json"
    gridwigner.save_density_json(state, path)
    tracemalloc.start()
    try:
        gridwigner.save_density_json(state, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (16 * d**2) <= budget
