"""Discrete Wigner functions on finite number-phase grids.

Kernel-parameterized phase-point operators, quantization and symbols,
Wigner functions with full state reconstruction, phase-space line
projectors, the even-dimension half-integer construction, and
continuum-limit studies toward the number-phase Wigner function.
"""

from .linalg import (
    TOL,
    frob_dist,
    is_positive_semidefinite,
    psd_deficit,
)
from .phasespace import (
    PhaseGrid,
    characteristic,
    displacement,
    number_ket,
    number_op,
    operator_from_characteristic,
    phase_basis,
    phase_function_op,
    phase_ket,
    phase_op,
    u_op,
    v_op,
)
from .kernels import (
    Kernel,
    KernelValidity,
    almost_symmetric_kernel,
    default_epsilon,
    is_unimodular,
    load_kernel,
    save_kernel,
    symmetric_kernel,
    validate,
    wootters_kernel,
)
from .quantizer import (
    OrderingReport,
    Quantizer,
    QuantizerReport,
    build_quantizer,
    ordering_check,
    quantize,
    symbol,
    verify_quantizer,
)
from .wigner import (
    HalfIntegerWignerGrid,
    ReconstructionError,
    WignerGrid,
    check_density,
    expectation,
    halfgrid_to_json,
    load_halfgrid,
    load_wigner,
    marginals,
    reconstruct,
    wigner,
    wigner_grid,
    wigner_to_csv,
    wigner_to_json,
)
from .tomography import (
    ConvergenceReport,
    ConvergenceRow,
    EmbeddingError,
    Line,
    LineReport,
    continuum_study,
    family_projectors,
    leonhardt_reconstruct,
    leonhardt_wigner,
    line_points,
    line_projector,
    number_phase_target,
    phase_density,
    relate,
    relate_even,
    relate_odd,
    verify_lines,
    wootters_target,
)
from .states import (
    fock_state,
    load_density_json,
    maximally_mixed,
    phase_state,
    qubit_state,
    random_density,
    save_density_json,
    superposition01,
)

__version__ = "0.1.0"
