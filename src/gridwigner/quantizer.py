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
    phase_basis,
    phase_function_op,
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
        p, m_at, kp, n_at = _factors(self, *np.divmod(np.arange(d * d), d))
        ops = np.take(p, self.grid._core_tables[1], axis=1)[m_at] * kp[n_at]
        if self.check:
            if _max_frob(ops, ops.conj().swapaxes(-1, -2)) > 10 * TOL:
                raise ValueError("phase-point operator is not Hermitian")
            if np.max(np.abs(np.trace(ops, axis1=-2, axis2=-1) - 1.0)) > 10 * TOL:
                raise ValueError("phase-point operator has non-unit trace")
        return ops.reshape((d,) * 4)


def _factors(q: Quantizer, m, n):
    """Factor tables ``p, m_at, kp, n_at`` of the operators of the points ``(phi_m[s], n[s])``.

    Entry ``[a, b]``, ``k = b - a mod dim``, is ``p[m_at[s], k] * kp[n_at[s], a, b]``:
    ``exp(-i*k*phi_m)`` (rows for the distinct ``m``) times the corner phase and the
    row FFT of the sheared kernel at ``(k, n - b mod dim)`` (for the distinct ``n``).
    """
    grid = q.grid
    d = grid.dim
    idx, diag, corner, shear = grid._core_tables
    g = np.fft.fft(q.kernel.values * shear) / d
    ms, m_at = np.unique(m, return_inverse=True)
    ns, n_at = np.unique(n, return_inverse=True)
    p = np.exp(-1j * np.outer(_angles(grid, ms), idx))
    return p, m_at, g[diag, (ns[:, None, None] - idx) % d] * corner, n_at


def _line_sums(q: Quantizer, n1: int, n2: int, offsets) -> np.ndarray:
    """``quantize`` of the indicators of the lines ``n1*m + n2*n = offsets[i] (mod dim)``.

    With ``gcd(n1, n2, dim) == 1`` the fft2 of an indicator is ``dim *
    exp(-2*pi*i*j*n3/dim)`` at ``(j*n1, j*n2) mod dim`` and zero elsewhere: those
    ``dim`` coefficients are placed, no fft2 is taken."""
    d = q.grid.dim
    j = np.arange(d)
    k, l = j * n1 % d, j * n2 % d
    coeffs = np.zeros((len(offsets), d, d), dtype=complex)
    coeffs[:, k, l] = d * q.weights[k, l] * np.exp(-2j * np.pi * (np.outer(offsets, j) % d) / d)
    return _displacement_sum(q.grid, coeffs)


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
    diff = np.asarray(a - b, dtype=complex).reshape(len(a), -1).view(float)
    return float(np.sqrt(np.max(np.einsum("ij,ij->i", diff, diff))))


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

    Checks Hermiticity, unit traces, the two axis sums that reproduce basis
    projectors, completeness, the overlap-trace formula, and the overlap
    orthogonality that holds exactly when the kernel is unimodular.

    The axis sums are :func:`_line_sums` of the directions ``(1, 0)`` and
    ``(0, 1)``.  The operators of :func:`_checked` (all for ``dim <= 45``) are
    read from the :func:`_factors` tables, one distinct ``n`` at a time.  Their
    overlaps ``Re sum_ab Omega_s[a, b] conj(Omega_t[a, b])`` (the trace of
    ``Omega_s Omega_t`` if Hermitian) are ``Re sum_k p[m_s, k] conj(p[m_t, k])
    H_k[n_s, n_t]``, ``H_k[n, n'] = sum_a kp[n, a, a + k] conj(kp[n', a, a + k])``:
    O(dim**5) on the whole grid.  They are compared with ``fft2(|K|**2) / dim``
    at ``(m_s - m_t, n_s - n_t) mod dim``.
    """
    grid = q.grid
    d = grid.dim
    idx = np.arange(d)
    kets, eye = phase_basis(grid).T, np.eye(d)  # row m of kets is |phi_m>
    phase_sum = number_sum = 0.0
    for part in _chunks(d, d):
        phase_sum = max(phase_sum, _max_frob(_line_sums(q, 1, 0, idx[part]), kets[part, :, None] * kets[part].conj()[:, None, :]))
        number_sum = max(number_sum, _max_frob(_line_sums(q, 0, 1, idx[part]), eye[part, :, None] * eye[part, None, :]))
    constant = np.pad([[d * d * q.weights[0, 0]]], (0, d - 1))  # the fft2 of 1: dim**2 at (0, 0)
    completeness = frob_dist(_displacement_sum(grid, constant), eye)

    flat, seed = _checked(d, d * d, d * d)
    m, n = np.divmod(flat, d)
    p, m_at, kp, n_at = _factors(q, m, n)
    # entries [a, a + k] at [k, a]: Omega is p[m, k] cyc, Omega^+ is conj(p[m, -k] flip)
    shifted, kp = (idx + idx[:, None]) % d, kp.reshape(len(kp), -1)
    cyc = np.take(kp, idx * d + shifted, axis=1)
    h = np.matmul(cyc.transpose(1, 0, 2), cyc.transpose(1, 2, 0).conj()).transpose(2, 1, 0).copy()  # [n', n, k]
    flip = np.take(kp, shifted * d + idx, axis=1)
    rows = p[m_at]
    # the predicted table tiled 2 x 2 takes the differences m_s - m_t + d, n_s - n_t + d
    predicted = np.tile(np.fft.fft2(np.abs(q.kernel.values) ** 2) / d, (2, 2))
    code = m * (2 * d) + n
    herm = tr = overlap_dev = orth_dev = 0.0
    for j in range(len(kp)):  # the checked operators t with n_t = n_j
        t = np.flatnonzero(n_at == j)
        pt = p[m_at[t], :, None]
        herm = max(herm, _max_frob(pt * cyc[j], (p[m_at[t]][:, -idx, None] * flip[j]).conj()))
        tr = max(tr, float(np.max(np.abs(np.sum(pt[:, 0] * cyc[j, 0], axis=-1) - 1.0))))
        z = rows * h[j][n_at]
        overlaps = z.view(float) @ rows[t].view(float).T  # Re(z conj(rows[t]))
        expected = np.take(predicted, code[:, None] + (d * (2 * d + 1) - code[t]))
        overlap_dev = max(overlap_dev, float(np.max(np.abs(overlaps - expected))))
        overlaps[t, np.arange(len(t))] -= d
        orth_dev = max(orth_dev, float(np.max(np.abs(overlaps))))

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
