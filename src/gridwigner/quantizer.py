"""Phase-point operators, quantization of grid functions and their symbols.

The phase-point operators (Stratonovich-Weyl quantizer) turn functions on
the grid into operators and back.  Every such map is a kernel-weighted
displacement sum, so it runs through the characteristic-function core of
:mod:`phasespace` in O(dim**2 log dim); the explicit ``dim**2`` operators
are built only on request, for the identity checks below.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import TOL, frob_dist
from .kernels import Kernel, is_unimodular, validate
from .phasespace import (
    PhaseGrid,
    _angle_phases,
    _displacement_sum,
    _fourier_factors,
    characteristic,
    number_ket,
    phase_basis,
    phase_function_op,
    phase_ket,
)

#: Kernel moduli below this trigger a conditioning warning on inversion.
CONDITION_TOL = 1e-6


def _kernel_weights(grid: PhaseGrid, kernel: Kernel) -> np.ndarray:
    """``K[k, l] exp(-i*k*phi0) / dim**2``: the weight of ``D(k, l)`` in every map."""
    return kernel.values * _angle_phases(grid) / grid.dim**2


@dataclass(frozen=True)
class Quantizer:
    """Phase-point operators of one grid/kernel pair, held implicitly.

    Only ``weights`` (:func:`_kernel_weights`) is stored.  ``omega[m, n]``,
    the operator of the grid point ``(phi_m, n)``, is built on first
    access and kept (``16 * dim**4`` bytes).
    """

    grid: PhaseGrid
    kernel: Kernel
    weights: np.ndarray
    check: bool = True

    @cached_property
    def omega(self) -> np.ndarray:
        """All phase-point operators, ``(dim, dim, dim, dim)``; checked if ``check``.

        Entry ``[a, b]`` involves one displacement, ``k = b - a mod dim``:
        ``exp(-i*k*phi_m)`` times the corner phase times the row FFT of
        the sheared kernel at ``(k, n - b)``.
        """
        grid = self.grid
        _, diag, corner, shear = grid._core_tables
        g = np.fft.fft(self.kernel.values * shear)
        e = np.exp(-1j * np.outer(grid.phis, np.arange(grid.dim)))  # e[m, k]
        omega = e[:, None, diag] * (corner * g[diag, diag.T[:, None, :]]) / grid.dim
        if self.check:
            herm, tr = _hermiticity_and_trace_devs(omega)
            if herm > 10 * TOL:
                raise ValueError("phase-point operator is not Hermitian")
            if tr > 10 * TOL:
                raise ValueError("phase-point operator has non-unit trace")
        return omega


def _max_frob(a, b) -> float:
    """Largest Frobenius distance between matching matrices of two stacks."""
    return float(np.max(np.linalg.norm(a - b, axis=(-2, -1))))


def _hermiticity_and_trace_devs(omega: np.ndarray) -> tuple[float, float]:
    herm = _max_frob(omega, omega.conj().swapaxes(-1, -2))
    return herm, float(np.max(np.abs(np.trace(omega, axis1=-2, axis2=-1) - 1.0)))


def build_quantizer(grid: PhaseGrid, kernel: Kernel, check: bool = True) -> Quantizer:
    """Set up the quantizer of a grid/kernel pair (kernel weights only).

    With ``check`` the kernel is validated first, and the Hermiticity and
    unit traces of the lazily built operators are asserted.
    """
    if kernel.dim != grid.dim:
        raise ValueError(
            f"kernel dimension {kernel.dim} does not match grid dimension {grid.dim}"
        )
    if check and not validate(kernel).valid:
        raise ValueError("kernel does not satisfy the validity conditions")
    return Quantizer(grid=grid, kernel=kernel, weights=_kernel_weights(grid, kernel), check=check)


def symmetric_phase_point_op(grid: PhaseGrid, m: int, n: int) -> np.ndarray:
    """Closed form of the symmetric-kernel phase-point operator.

    ``(dim/2) * (|phi_m><phi_m|n><n| + |n><n|phi_m><phi_m|)`` -- an
    independent construction used to cross-check the generic build.
    """
    pm = phase_ket(grid, m)
    en = number_ket(grid, n)
    half = np.outer(pm, pm.conj()) @ np.outer(en, en.conj())
    return grid.dim / 2.0 * (half + half.conj().T)


def almost_symmetric_phase_point_op(
    grid: PhaseGrid, m: int, n: int, eps: float
) -> np.ndarray:
    """Closed form of the even-dimension skewed phase-point operator."""
    if grid.dim % 2:
        raise ValueError("almost-symmetric construction needs an even dimension")
    half_n = grid.dim // 2
    pm = phase_ket(grid, m)
    en = number_ket(grid, n)
    p = np.outer(pm, pm.conj()) @ np.outer(en, en.conj())
    pd = p.conj().T
    return half_n * (p + pd) + 1j * half_n * np.tan(eps) * (p - pd)


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
    return _displacement_sum(q.grid, q.weights * np.fft.fft2(v))


def _warn_if_ill_conditioned(kernel: Kernel):
    mn = float(np.min(np.abs(kernel.values)))
    if mn < CONDITION_TOL:
        warnings.warn(
            f"kernel inversion is ill-conditioned (min |K| = {mn:.3e})",
            stacklevel=3,
        )


def symbol(q: Quantizer, op) -> np.ndarray:
    """Inverse of :func:`quantize`: the grid function of an operator.

    Uses the kernel-division form: the displacement traces
    ``trace(D(k, l)^+ op)`` are divided by the kernel weights and
    Fourier-summed back onto the grid.
    """
    a = np.asarray(op, dtype=complex)
    d = q.grid.dim
    if a.shape != (d, d):
        raise ValueError("operator dimension does not match the quantizer grid")
    _warn_if_ill_conditioned(q.kernel)
    t = characteristic(q.grid, a.conj().T).conj()
    return np.fft.ifft2(t / q.weights) / d


def symbol_via_overlaps(q: Quantizer, op) -> np.ndarray:
    """Symbol computed from phase-point-operator overlaps.

    Cross-check path: validates the squared-modulus kernel algebra
    against the primary kernel-division route.
    """
    g = np.einsum("ab,mnba->mn", np.asarray(op, dtype=complex), q.omega)
    return np.fft.ifft2(np.fft.fft2(g) / np.abs(q.kernel.values) ** 2)


def symbol_unimodular(q: Quantizer, op) -> np.ndarray:
    """Shortcut symbol for unimodular kernels: plain overlap traces."""
    if not is_unimodular(q.kernel):
        raise ValueError("shortcut requires a unimodular kernel")
    a = np.asarray(op, dtype=complex)
    return np.einsum("ab,mnba->mn", a, q.omega)


def displacement_from_quantizer(q: Quantizer, k: int, l: int) -> np.ndarray:
    """Rebuild a displacement operator from the phase-point operators.

    Identity check: inverts the kernel-weighted sum defining the cache.
    Valid for ``0 <= k, l < dim``.
    """
    d = q.grid.dim
    if not (0 <= k < d and 0 <= l < d):
        raise ValueError("indices must lie in the principal range")
    e, f = _fourier_factors(q.grid)
    acc = np.einsum("m,n,mnab->ab", e[k].conj(), f[l].conj(), q.omega)
    return acc / (d * q.kernel.values[k, l])


@dataclass(frozen=True)
class QuantizerReport:
    """Maximum deviations of the phase-point-operator identities."""

    hermiticity_dev: float
    trace_dev: float
    phase_sum_dev: float
    number_sum_dev: float
    completeness_dev: float
    overlap_dev: float
    orthogonality_dev: float
    unimodular: bool

    def core_pass(self, tol: float = TOL) -> bool:
        """All kernel-generic identities within ``tol``."""
        return (
            self.hermiticity_dev <= tol
            and self.trace_dev <= tol
            and self.phase_sum_dev <= tol
            and self.number_sum_dev <= tol
            and self.completeness_dev <= tol
            and self.overlap_dev <= tol
        )

    def orthogonality_pass(self, tol: float = TOL) -> bool:
        """Overlap orthogonality; expected only for unimodular kernels."""
        return self.orthogonality_dev <= tol


def verify_quantizer(q: Quantizer) -> QuantizerReport:
    """Measure every phase-point-operator identity on the cache.

    Checks Hermiticity, unit traces, the two axis sums that reproduce
    basis projectors, completeness, the overlap-trace formula, and the
    overlap orthogonality that holds exactly when the kernel is
    unimodular.
    """
    d = q.grid.dim
    omega = q.omega

    herm, tr = _hermiticity_and_trace_devs(omega)
    p = phase_basis(q.grid).T  # row m is |phi_m>
    phase_sum = _max_frob(omega.sum(axis=1) / d, p[:, :, None] * p.conj()[:, None, :])
    eye = np.eye(d)
    number_sum = _max_frob(omega.sum(axis=0) / d, eye[:, :, None] * eye[:, None, :])
    completeness = frob_dist(omega.sum(axis=(0, 1)) / d, np.eye(d))

    flat = omega.reshape(d * d, d * d)
    overlaps = (flat @ omega.swapaxes(-1, -2).reshape(d * d, d * d).T).reshape((d,) * 4)
    e, f = _fourier_factors(q.grid)
    w = np.abs(q.kernel.values) ** 2
    predicted = np.einsum(
        "kl,km,kp,ln,lq->mnpq", w, e, e.conj(), f, f.conj(), optimize=True
    ) / d
    overlap_dev = float(np.max(np.abs(overlaps - predicted)))

    delta = np.einsum("mp,nq->mnpq", np.eye(d), np.eye(d)) * d
    orth_dev = float(np.max(np.abs(overlaps - delta)))

    return QuantizerReport(
        hermiticity_dev=herm,
        trace_dev=tr,
        phase_sum_dev=phase_sum,
        number_sum_dev=number_sum,
        completeness_dev=float(completeness),
        overlap_dev=overlap_dev,
        orthogonality_dev=orth_dev,
        unimodular=is_unimodular(q.kernel),
    )


@dataclass(frozen=True)
class OrderingReport:
    """Deviation of a product quantization from its ordered target."""

    deviation: float
    tan_eps: float

    def ok(self, tol: float = TOL) -> bool:
        return self.deviation <= tol


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
    b = np.diag(f2)
    target = (a @ b + b @ a) / 2.0
    tan_eps = 0.0
    if label == "almost-symmetric":
        tan_eps = float(np.tan(q.kernel.eps))
        target = target + 0.5j * tan_eps * (a @ b - b @ a)
    return OrderingReport(deviation=frob_dist(op, target), tan_eps=tan_eps)
