"""The public names of the package, pinned.

Adding, removing or renaming an export is a change of the public API: it
must show up as a diff of this list.  Submodules are not counted; they
appear as package attributes only once something imports them.
"""

import ast
import inspect
from pathlib import Path

import numpy as np

import gridwigner
from gridwigner import cli

PUBLIC = [
    "ConvergenceReport", "ConvergenceRow", "EmbeddingError", "HalfIntegerWignerGrid", "Kernel",
    "KernelValidity", "Line", "LineReport", "OrderingReport", "PhaseGrid", "Quantizer",
    "QuantizerReport",
    "ReconstructionError", "TOL", "WignerGrid", "adjoint", "almost_symmetric_kernel",
    "build_quantizer", "characteristic", "check_density",
    "continuum_study", "default_epsilon", "displacement",
    "embed_state", "expectation",
    "family_projectors", "fock_state", "fourier_coeffs", "frob_dist", "half_phase_ket",
    "halfgrid_to_json", "inverse_fourier", "is_hermitian", "is_positive_semidefinite",
    "is_unimodular", "is_unitary", "kernel_from_table", "leonhardt_phase_point_op",
    "leonhardt_reconstruct", "leonhardt_wigner",
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
