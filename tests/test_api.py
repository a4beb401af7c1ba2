"""The public names of the package, pinned.

Adding, removing or renaming an export is a change of the public API: it
must show up as a diff of this list.  Submodules are not counted; they
appear as package attributes only once something imports them.
"""

import ast
import inspect
from pathlib import Path

import gridwigner

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
    "phase_matrix_elements", "phase_op", "phase_state",
    "psd_deficit", "quantize", "qubit_state", "random_density", "reconstruct",
    "relate_even", "relate_odd",
    "save_density_json", "save_kernel", "superposition01", "symbol",
    "symmetric_kernel", "u_op",
    "v_op", "validate", "verify_lines", "verify_quantizer", "wigner",
    "wigner_almost_symmetric", "wigner_grid", "wigner_symmetric", "wigner_to_csv",
    "wigner_to_json", "wigner_wootters", "wootters_kernel",
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
