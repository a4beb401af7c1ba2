"""Phase-point operators, quantization of grid functions and their symbols.

The phase-point operators (Stratonovich-Weyl quantizer) turn functions on
the grid into operators and back.  Every such map is a kernel-weighted
displacement sum, so it runs through the characteristic-function core of
:mod:`phasespace` in O(dim**2 log dim).  Every operator is a clock and shift
conjugate of ``Omega(0, 0)``, one displacement sum, which is the only
operator the identity checks below build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import _frob, within
from .kernels import Kernel, _check_inversion, is_unimodular, validate
from .phasespace import (
    PhaseGrid,
    _chirp_phases,
    _diagonals,
    _displacement_sum,
    _fft2,
    _ifft,
    _ifft2,
    _kernel_map,
    _sheared_weights,
    phase_function_op,
)

@dataclass(frozen=True, eq=False)
class Quantizer:
    """Phase-point operators of one grid/kernel pair, held implicitly.

    Only ``weights`` is stored: the sheared table ``S`` through which every
    map reads the kernel (:func:`phasespace._sheared_weights`).  ``omega[m, n]``,
    the operator of the grid point ``(phi_m, n)``, is built unchecked on first
    access and kept (``16 * dim**4`` bytes, about 6.6 times that while it is built); nothing
    in the library reads it, and :func:`verify_quantizer` checks the identities.
    """

    grid: PhaseGrid
    kernel: Kernel
    weights: np.ndarray

    @cached_property
    def chirp_phases(self) -> np.ndarray:
        """The row phases of :func:`wigner`'s chirp map (:func:`phasespace._chirp_phases`), kept from its first call."""
        return _chirp_phases(self.grid, self.kernel.chirps)

    @cached_property
    def omega(self) -> np.ndarray:
        """All phase-point operators, ``(dim, dim, dim, dim)``: ``Omega(m, n)`` is ``dim`` times
        the :func:`quantize` of the indicator of the point ``(m, n)``."""
        return self.grid.dim * quantize(self, np.eye(self.grid.dim**2).reshape((self.grid.dim,) * 4))


def build_quantizer(grid: PhaseGrid, kernel: Kernel, check: bool = True) -> Quantizer:
    """Set up the quantizer of a grid/kernel pair (kernel weights only);
    with ``check`` the kernel is validated first."""
    if kernel.dim != grid.dim:
        raise ValueError(
            f"kernel dimension {kernel.dim} does not match grid dimension {grid.dim}"
        )
    if check and not validate(kernel).valid:
        raise ValueError("kernel does not satisfy the validity conditions")
    return Quantizer(grid=grid, kernel=kernel, weights=_sheared_weights(grid, kernel.values))


def quantize(q: Quantizer, values) -> np.ndarray:
    """Map a grid function to its operator.

    The operator is the phase-point-operator average of the function;
    real functions give Hermitian operators for any valid kernel.  One
    displacement sum over the weighted FFT2; leading axes are batch axes.
    """
    v = np.asarray(values, dtype=complex)
    d = q.grid.dim
    if v.shape[-2:] != (d, d):
        raise ValueError("grid function shape does not match the quantizer grid")
    return _displacement_sum(q.grid, q.weights * _fft2(v))


def symbol(q: Quantizer, op) -> np.ndarray:
    """Inverse of :func:`quantize`: the grid function of an operator.

    Uses the kernel-division form: the displacement traces ``trace(D(k, l)^+ op)`` are divided
    by the kernel weights and Fourier-summed back onto the grid, the forward map of ``op^+``
    with the dual table ``1 / conj(S)``, conjugated and divided by ``dim**3``.  A kernel with a zero
    entry has no dual table: :func:`kernels._check_inversion` refuses it first, and warns on a small one.
    """
    a = np.asarray(op, dtype=complex)
    d = q.grid.dim
    if a.shape != (d, d):
        raise ValueError("operator dimension does not match the quantizer grid")
    _check_inversion(q.kernel)
    t = _ifft(_diagonals(q.grid, a.conj().T))  # conj(fft2(x)) / dim**3 = ifft2(conj(x)) / dim: this FFT's 1/dim
    return _ifft2(np.conjugate(t, out=t) / q.weights)


@dataclass(frozen=True)
class QuantizerReport:
    """Maximum deviations of the phase-point-operator identities, over every
    operator and every pair of operators.

    The deviations are absolute; ``scale`` is ``max |K|``, the scale of the
    identities linear in the kernel (the overlaps take its square).
    """

    hermiticity_dev: float
    trace_dev: float
    phase_sum_dev: float
    number_sum_dev: float
    completeness_dev: float
    overlap_dev: float
    orthogonality_dev: float
    unimodular: bool
    scale: float

    def core_pass(self) -> bool:
        """All kernel-generic identities within tolerance."""
        linear = (self.hermiticity_dev, self.trace_dev, self.phase_sum_dev, self.number_sum_dev, self.completeness_dev)
        return all(within(dev, self.scale) for dev in linear) and within(self.overlap_dev, self.scale**2)

    def orthogonality_pass(self) -> bool:
        """Overlap orthogonality; expected only for unimodular kernels."""
        return within(self.orthogonality_dev, self.scale**2)


def _completeness_dev(q: Quantizer) -> float:
    """``||quantize(1) - 1||_F``.  The fft2 of 1 is ``dim**2`` at ``(0, 0)``, so
    ``quantize(1)`` is that one weighted coefficient times ``D(0, 0) = 1``."""
    d = q.grid.dim
    return float(math.sqrt(d) * abs(d * d * q.weights[0, 0] - 1.0))


def _overlap_table(q: Quantizer, origin) -> np.ndarray:
    """``Re sum_ab Omega(m, n)[a, b] conj(origin[a, b])`` at ``[m, n]``: ``dim`` times
    the forward kernel map of ``origin^+``, since ``Omega(m, n)`` is ``dim`` times
    the quantization of the point ``(m, n)``."""
    return _kernel_map(q.grid, q.weights, origin.conj().T).real * q.grid.dim


def verify_quantizer(q: Quantizer) -> QuantizerReport:
    """Measure every phase-point-operator identity.

    Checks Hermiticity, unit traces, the two axis sums that reproduce basis
    projectors, completeness, the overlap-trace formula, and the overlap
    orthogonality that holds exactly when the kernel is unimodular.

    Every operator is a displacement conjugate of ``Omega(0, 0)``, for any
    kernel: ``Omega(m, n) = V**m U**-n Omega(0, 0) U**n V**-m`` with the clock
    ``V`` and the shift ``U``.  A unitary conjugation keeps ``||Omega -
    Omega^+||_F``, the trace and the Hilbert-Schmidt product, so Hermiticity
    and unit trace are checked on ``Omega(0, 0)`` alone, the phase-axis sum at
    ``m = 0`` and the number-axis sum at ``n = 0``.  Those sums place
    ``K[k, 0] exp(-i*k*phi0) / dim`` on ``D(k, 0)`` and ``K[0, l] / dim`` on ``D(0, l)``,
    their projectors the same with ``K = 1``, and ``trace(D(k, l)^+ D(k', l'))``
    is ``dim`` or 0: by Parseval their distances are ``sqrt(sum_k |K[k, 0] - 1|**2
    / dim)`` and ``sqrt(sum_l |K[0, l] - 1|**2 / dim)``.  The overlaps ``Re sum_ab
    Omega_s[a, b] conj(Omega_t[a, b])`` (the trace of ``Omega_s Omega_t`` if
    Hermitian) of every pair are the :func:`_overlap_table` of ``Omega(0, 0)``
    at ``s - t``, O(dim**2 log dim).  It is compared with ``fft2(|K|**2) / dim``
    entrywise; orthogonality subtracts ``dim`` at ``(0, 0)``.  Completeness is
    :func:`_completeness_dev`.
    """
    grid = q.grid
    d = grid.dim
    values = q.kernel.values
    scale = q.kernel.moduli[1]
    origin = _displacement_sum(grid, d * q.weights)  # the fft2 of the origin's indicator is 1
    overlaps = _overlap_table(q, origin)
    overlap_dev = float(np.abs(overlaps - _fft2(np.abs(values) ** 2 * (1 / d))).max())
    overlaps[0, 0] -= d

    return QuantizerReport(
        hermiticity_dev=_frob(origin - origin.conj().T),
        trace_dev=float(abs(origin.trace() - 1.0)),
        phase_sum_dev=_frob(values[:, 0] - 1.0) / math.sqrt(d),
        number_sum_dev=_frob(values[0] - 1.0) / math.sqrt(d),
        completeness_dev=_completeness_dev(q),
        overlap_dev=overlap_dev,
        orthogonality_dev=float(np.abs(overlaps).max()),
        unimodular=is_unimodular(q.kernel),
        scale=scale,
    )


@dataclass(frozen=True)
class OrderingReport:
    """Deviation of a product quantization from its ordered target, on the scale ``max |K|``."""

    deviation: float
    tan_eps: float
    scale: float

    def ok(self) -> bool:
        return within(self.deviation, self.scale)


def ordering_check(q: Quantizer, f1, f2) -> OrderingReport:
    """Check the operator ordering produced by a separable function.

    ``f1`` samples a phase-only factor on the grid angles and ``f2`` a
    number-only factor on the levels.  For the symmetric kernel the
    quantized product must equal the symmetrized operator product; for
    the almost-symmetric kernel an extra ``(i/2)tan(eps)`` commutator
    term appears.
    """
    label = q.kernel.label
    if label not in ("symmetric", "almost-symmetric"):
        raise ValueError(f"ordering check undefined for kernel family {label!r}")
    f1 = np.asarray(f1, dtype=complex)
    f2 = np.asarray(f2, dtype=complex)
    d = q.grid.dim
    if f1.shape != (d,) or f2.shape != (d,):
        raise ValueError("factor samples must have one value per grid line")

    op = quantize(q, np.outer(f1, f2))
    a = phase_function_op(q.grid, f1)
    ab, ba = a * f2, f2[:, None] * a  # the products with the diagonal matrix of f2
    target = (ab + ba) / 2.0
    tan_eps = 0.0
    if label == "almost-symmetric":
        tan_eps = float(np.tan(q.kernel.eps))
        target = target + 0.5j * tan_eps * (ab - ba)
    return OrderingReport(deviation=_frob(op - target), tan_eps=tan_eps, scale=q.kernel.moduli[1])
