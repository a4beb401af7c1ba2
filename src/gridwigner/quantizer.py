"""Phase-point operators, quantization of grid functions and their symbols.

The phase-point operators (Stratonovich-Weyl quantizer) turn functions on
the grid into operators and back.  Every such map is a kernel-weighted
displacement sum, so it runs through the characteristic-function core of
:mod:`phasespace` in O(dim**2 log dim); explicit operators are built only
for the identity checks below, and only those that are checked.
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
    _angles,
    _displacement_sum,
    characteristic,
    number_ket,
    phase_basis,
    phase_function_op,
    phase_ket,
)

#: Kernel moduli below this trigger a conditioning warning on inversion.
CONDITION_TOL = 1e-6

#: Budget of the identity checks, in complex entries of explicit operators:
#: every operator and every line family is checked while ``dim**4 <= BUDGET``
#: (``dim <= 45``); above that a sample of ``BUDGET // dim**2`` operators and
#: of ``BUDGET // dim**3`` line families (at least one), drawn with
#: ``SAMPLE_SEED``.  No step of the checks holds more than ``BUDGET`` entries.
BUDGET = 45**4
SAMPLE_SEED = 0


def _kernel_weights(grid: PhaseGrid, kernel: Kernel) -> np.ndarray:
    """``K[k, l] exp(-i*k*phi0) / dim**2``: the weight of ``D(k, l)`` in every map."""
    return kernel.values * _angle_phases(grid) / grid.dim**2


@dataclass(frozen=True)
class Quantizer:
    """Phase-point operators of one grid/kernel pair, held implicitly.

    Only ``weights`` (:func:`_kernel_weights`) is stored.  ``omega[m, n]``,
    the operator of the grid point ``(phi_m, n)``, is built on first
    access and kept (``16 * dim**4`` bytes); nothing in the library reads it.
    """

    grid: PhaseGrid
    kernel: Kernel
    weights: np.ndarray
    check: bool = True

    @cached_property
    def omega(self) -> np.ndarray:
        """All phase-point operators, ``(dim, dim, dim, dim)``; checked if ``check``."""
        d = self.grid.dim
        omega = _phase_point_ops(self, *np.divmod(np.arange(d * d), d)).reshape((d,) * 4)
        if self.check:
            herm, tr = _hermiticity_and_trace_devs(omega.real, omega.imag)
            if herm > 10 * TOL:
                raise ValueError("phase-point operator is not Hermitian")
            if tr > 10 * TOL:
                raise ValueError("phase-point operator has non-unit trace")
        return omega


def _phase_point_ops(q: Quantizer, m, n) -> np.ndarray:
    """The operators of the grid points ``(phi_m[s], n[s])``, stacked.

    Entry ``[a, b]`` involves one displacement, ``k = b - a mod dim``:
    ``exp(-i*k*phi_m)`` times the corner phase times the row FFT of the
    sheared kernel at ``(k, n - b mod dim)``, read from the row-doubled
    table at ``(k, (-b mod dim) + n)``.  Both factors are built once per
    distinct ``m`` and ``n``; O(dim**2) per operator.
    """
    grid = q.grid
    d = grid.dim
    idx, diag, corner, shear = grid._core_tables
    g = np.fft.fft(q.kernel.values * shear) / d
    doubled = np.concatenate([g, g], axis=1).ravel()
    ms, m_at = np.unique(m, return_inverse=True)
    ns, n_at = np.unique(n, return_inverse=True)
    phases = np.take(np.exp(-1j * np.outer(_angles(grid, ms), idx)), diag, axis=1)
    kernel_part = np.take(doubled, diag * (2 * d) + (-idx) % d + ns[:, None, None]) * corner
    return phases[m_at] * kernel_part[n_at]


def _checked(dim: int, total: int, entries: int) -> tuple[np.ndarray, int | None]:
    """Indices of the ``total`` items (``entries`` complex numbers each) to check.

    Every item while ``dim**4 <= BUDGET``; otherwise ``BUDGET // entries``
    of them, at least one, drawn without replacement with ``SAMPLE_SEED``
    and sorted.  The seed is returned with a sample, ``None`` otherwise.
    """
    count = max(1, BUDGET // entries)
    if dim**4 <= BUDGET or count >= total:
        return np.arange(total), None
    rng = np.random.default_rng(SAMPLE_SEED)
    return np.sort(rng.choice(total, size=count, replace=False)), SAMPLE_SEED


def _chunks(total: int, dim: int):
    """Slices of ``range(total)`` over ``dim x dim`` matrices: at most ``dim`` of
    them, and at most ``BUDGET`` entries, per slice (one matrix at least)."""
    step = max(1, min(dim, BUDGET // dim**2))
    return [slice(i, min(i + step, total)) for i in range(0, total, step)]


def _max_frob(a, b) -> float:
    """Largest Frobenius distance between matching matrices of two stacks."""
    return float(np.max(np.linalg.norm(a - b, axis=(-2, -1))))


def _hermiticity_and_trace_devs(re: np.ndarray, im: np.ndarray) -> tuple[float, float]:
    """Largest ``||Omega - Omega^+||_F`` and ``|trace(Omega) - 1|`` over a stack of
    operators given by their real and imaginary parts."""
    a = re - re.swapaxes(-1, -2)
    b = im + im.swapaxes(-1, -2)
    herm = np.einsum("...ab,...ab->...", a, a) + np.einsum("...ab,...ab->...", b, b)
    tr = np.hypot(np.trace(re, axis1=-2, axis2=-1) - 1.0, np.trace(im, axis1=-2, axis2=-1))
    return float(np.sqrt(np.max(herm))), float(np.max(tr))


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


@dataclass(frozen=True)
class QuantizerReport:
    """Maximum deviations of the phase-point-operator identities.

    The axis sums and completeness cover every grid point.  Hermiticity,
    unit trace and both overlap checks cover ``checked`` operators: all
    ``dim**2`` of them, or a sample drawn with ``seed`` (``None`` when
    every operator was checked).
    """

    hermiticity_dev: float
    trace_dev: float
    phase_sum_dev: float
    number_sum_dev: float
    completeness_dev: float
    overlap_dev: float
    orthogonality_dev: float
    unimodular: bool
    checked: int
    seed: int | None

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
    """Measure every phase-point-operator identity.

    Checks Hermiticity, unit traces, the two axis sums that reproduce
    basis projectors, completeness, the overlap-trace formula, and the
    overlap orthogonality that holds exactly when the kernel is
    unimodular.

    The axis sums and completeness are quantizations of indicator
    functions, checked for every ``m`` and ``n`` in chunks of at most
    ``dim`` indicators.  The other checks build the operators of
    :func:`_checked` (all of them for ``dim <= 45``), ``dim`` at a time.  Their overlaps
    ``trace(Omega_s Omega_t)`` are one real Gram product of the rows
    ``[Re Omega, Im Omega]``, which equals the trace for the Hermitian
    operators checked alongside, and are compared with
    ``fft2(|K|**2) / dim`` at ``(m_s - m_t, n_s - n_t) mod dim``.
    """
    grid = q.grid
    d = grid.dim
    idx = np.arange(d)
    p = phase_basis(grid).T  # row m is |phi_m>
    phase_sum = number_sum = 0.0
    for part in _chunks(d, d):
        sel = idx[part]
        ind = np.broadcast_to((sel[:, None] == idx)[:, :, None], (len(sel), d, d))
        phase_sum = max(phase_sum, _max_frob(quantize(q, ind), p[sel, :, None] * p[sel].conj()[:, None, :]))
        proj = np.zeros((len(sel), d, d))
        proj[np.arange(len(sel)), sel, sel] = 1.0
        number_sum = max(number_sum, _max_frob(quantize(q, ind.swapaxes(-1, -2)), proj))
    completeness = frob_dist(quantize(q, np.ones((d, d))), np.eye(d))

    flat, seed = _checked(d, d * d, d * d)
    m, n = np.divmod(flat, d)
    parts = np.empty((len(flat), 2, d, d))  # [s, 0] = Re Omega_s, [s, 1] = Im Omega_s
    for chunk in _chunks(len(flat), d):
        ops = _phase_point_ops(q, m[chunk], n[chunk])
        parts[chunk, 0] = ops.real
        parts[chunk, 1] = ops.imag
    herm, tr = _hermiticity_and_trace_devs(parts[:, 0], parts[:, 1])
    rows = parts.reshape(len(flat), -1)
    overlaps = rows @ rows.T
    # the predicted table tiled 2 x 2 takes the differences m_s - m_t + d, n_s - n_t + d
    predicted = np.tile(np.fft.fft2(np.abs(q.kernel.values) ** 2) / d, (2, 2))
    code = m * (2 * d) + n
    at = code[:, None] - code + d * (2 * d + 1)
    dev = overlaps - np.take(predicted.real, at)
    overlap_dev = float(np.sqrt(np.max(dev * dev + np.take(predicted.imag, at) ** 2)))
    overlaps[np.diag_indices(len(flat))] -= d
    orth_dev = float(np.max(np.abs(overlaps)))

    return QuantizerReport(
        hermiticity_dev=herm,
        trace_dev=tr,
        phase_sum_dev=phase_sum,
        number_sum_dev=number_sum,
        completeness_dev=float(completeness),
        overlap_dev=overlap_dev,
        orthogonality_dev=orth_dev,
        unimodular=is_unimodular(q.kernel),
        checked=len(flat),
        seed=seed,
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
