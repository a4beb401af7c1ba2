"""Wigner functions of states, expectations, marginals and reconstruction.

The Wigner grid of a state is the normalised table of phase-point
overlaps.  Computed values are asserted real before the imaginary part
is dropped, so kernel bugs cannot hide behind a silent truncation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._jsonio import integer, number, number_table, read_json, write_json
from .linalg import TOL, is_hermitian, is_positive_semidefinite
from .kernels import Kernel, is_unimodular, symmetric_kernel
from .phasespace import (
    PhaseGrid,
    _displacement_sum,
    characteristic,
    operator_from_characteristic,
    phase_basis,
)
from .quantizer import Quantizer, _kernel_weights, _warn_if_ill_conditioned

#: Slack allowed on the smallest pivot of a density operator.
PSD_SLACK = 1e-8


class ReconstructionError(ValueError):
    """Raised when a Wigner grid does not determine a valid state."""


def check_density(rho, tol: float = TOL, psd_slack: float = PSD_SLACK) -> np.ndarray:
    """Validate a density operator: Hermitian, unit trace, PSD."""
    r = np.asarray(rho, dtype=complex)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError(f"density operator must be square, got shape {r.shape}")
    if not is_hermitian(r, tol=tol):
        raise ValueError("density operator is not Hermitian")
    if abs(np.trace(r) - 1.0) > tol:
        raise ValueError("density operator trace differs from 1")
    if not is_positive_semidefinite(r, slack=psd_slack):
        raise ValueError("density operator is not positive semidefinite")
    return r


@dataclass(frozen=True)
class WignerGrid:
    """Real Wigner table on a grid, tagged with the kernel that made it."""

    grid: PhaseGrid
    kernel_label: str
    values: np.ndarray
    epsilon: float | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.dim, self.grid.dim):
            raise ValueError("Wigner table shape does not match the grid")
        if not np.all(np.isfinite(v)):
            raise ValueError("Wigner table has non-finite entries")
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.grid.dim


def _real_or_raise(values: np.ndarray, tol: float = TOL) -> np.ndarray:
    resid = float(np.max(np.abs(values.imag)))
    if resid > tol:
        raise ValueError(
            f"Wigner values have imaginary residue {resid:.3e} beyond tolerance"
        )
    return values.real


def wigner(q: Quantizer, rho, validate_state: bool = True) -> WignerGrid:
    """Wigner function of a state on the quantizer's grid (see :func:`wigner_grid`)."""
    return wigner_grid(q.grid, q.kernel, rho, validate_state)


def wigner_grid(grid: PhaseGrid, kernel: Kernel, rho, validate_state: bool = True) -> WignerGrid:
    """Wigner function of a state: the normalised phase-point overlaps.

    ``W = fft2(K * chi * exp(-i*k*phi0)) / dim**2`` with ``chi`` the
    characteristic function of the state; O(dim**2 log dim) time and
    O(dim**2) memory.
    """
    r = check_density(rho) if validate_state else np.asarray(rho, dtype=complex)
    d = grid.dim
    if kernel.dim != d:
        raise ValueError("kernel dimension does not match the grid")
    if r.shape != (d, d):
        raise ValueError("state dimension does not match the grid")
    raw = np.fft.fft2(_kernel_weights(grid, kernel) * characteristic(grid, r))
    return WignerGrid(
        grid=grid,
        kernel_label=kernel.label,
        values=_real_or_raise(raw),
        epsilon=kernel.eps,
    )


def _phase_overlap_table(grid: PhaseGrid, rho) -> np.ndarray:
    """Table ``z[m, n] = <n|rho|phi_m><phi_m|n>``."""
    p = phase_basis(grid)
    return ((np.asarray(rho, dtype=complex) @ p) * p.conj()).T


def wigner_symmetric(grid: PhaseGrid, rho) -> WignerGrid:
    """Closed form of the symmetric-kernel Wigner function."""
    vals = _phase_overlap_table(grid, rho).real
    return WignerGrid(grid=grid, kernel_label="symmetric", values=vals)


def wigner_almost_symmetric(grid: PhaseGrid, rho, eps: float) -> WignerGrid:
    """Closed form of the even-dimension skewed Wigner function."""
    z = _phase_overlap_table(grid, rho)
    vals = np.real(np.exp(1j * eps) * z) / np.cos(eps)
    return WignerGrid(
        grid=grid, kernel_label="almost-symmetric", values=vals, epsilon=float(eps)
    )


def wigner_wootters(grid: PhaseGrid, rho) -> WignerGrid:
    """Closed form of the sign-kernel Wigner function (odd dimensions).

    Sums the state's anti-diagonals: the pair ``(n', n'')`` contributes
    at level ``n`` when ``n' + n''`` is congruent to ``2n`` mod dim.
    """
    d = grid.dim
    if d % 2 == 0:
        raise ValueError("sign kernel requires an odd dimension")
    r = np.asarray(rho, dtype=complex)
    a = np.arange(d)
    b = (2 * a[:, None] - a) % d  # b[n, a]: the partner of a at level n
    # the offsets b - a of one level are distinct mod odd d: one inverse DFT
    g = np.zeros((d, d), dtype=complex)
    g[a[:, None], (b - a) % d] = r[a, b] * np.exp(1j * (b - a) * grid.phi0)
    raw = np.fft.ifft(g).T
    return WignerGrid(grid=grid, kernel_label="wootters", values=_real_or_raise(raw))


def expectation(w: WignerGrid, values) -> complex:
    """Grid average of a function against the Wigner table."""
    v = np.asarray(values, dtype=complex)
    if v.shape != w.values.shape:
        raise ValueError("grid function shape does not match the Wigner grid")
    return complex(np.sum(v * w.values))


def marginals(w: WignerGrid):
    """Phase marginal (sum over levels) and number marginal (sum over angles)."""
    return w.values.sum(axis=1), w.values.sum(axis=0)


def phase_matrix_elements(w: WignerGrid, kernel: Kernel) -> np.ndarray:
    """Phase-basis matrix elements of the state behind a Wigner grid.

    Entry ``[r', r]`` is ``<phi_r'|rho|phi_r>``.  The upper triangle
    (``r >= r'``) comes from the kernel-division inversion; the lower
    one is filled by conjugation.  A diagonal imaginary residue signals
    an inconsistent input grid.
    """
    d = w.dim
    if kernel.dim != d:
        raise ValueError("kernel dimension does not match the Wigner grid")
    if kernel.label != w.kernel_label:
        raise ValueError(
            f"kernel {kernel.label!r} does not match grid kernel {w.kernel_label!r}"
        )
    _warn_if_ill_conditioned(kernel)
    # Divide the grid's displacement traces by the kernel, then invert.  In
    # the phase basis D(k, l) shifts by l, so that is the core's inverse with
    # k and l swapped, on the zero-angle grid (phi0 cancels in the traces).
    s = np.fft.ifft2(w.values, norm="forward")
    elements = operator_from_characteristic(PhaseGrid(d), (s / kernel.values).T).T

    diag_resid = float(np.max(np.abs(np.diagonal(elements).imag)))
    if diag_resid > 10 * TOL:
        raise ReconstructionError(
            f"inconsistent Wigner grid: diagonal residue {diag_resid:.3e}"
        )
    upper = np.triu(elements, 1)
    return upper + upper.conj().T + np.diag(np.diagonal(elements).real)


def reconstruct(w: WignerGrid, kernel: Kernel, validate_state: bool = True) -> np.ndarray:
    """Recover the density operator behind a Wigner grid.

    Inverts the quantization map pair-by-pair in the phase basis and
    rotates back to the number basis.  The result must satisfy the
    density-operator invariants within ``10 * TOL``.
    """
    elements = phase_matrix_elements(w, kernel)
    p = phase_basis(w.grid)
    rho = p @ elements @ p.conj().T
    if validate_state:
        try:
            check_density(rho, tol=10 * TOL)
        except ValueError as exc:
            raise ReconstructionError(str(exc)) from exc
    return rho


def reconstruct_unimodular(w: WignerGrid, kernel: Kernel) -> np.ndarray:
    """Shortcut reconstruction for unimodular kernels.

    The state is the Wigner-weighted sum of phase-point operators,
    assembled as one displacement sum over the kernel-weighted FFT of
    the grid, so no operator cache is required.
    """
    if not is_unimodular(kernel):
        raise ValueError("shortcut requires a unimodular kernel")
    if kernel.dim != w.dim:
        raise ValueError("kernel dimension does not match the Wigner grid")
    coeffs = _kernel_weights(w.grid, kernel) * np.fft.fft2(w.values) * w.dim
    return _displacement_sum(w.grid, coeffs)


def _symmetric_k_range(d: int) -> np.ndarray:
    half = (d - 1) // 2
    return np.arange(-half, half + 1)


def phase_matrix_elements_symmetric(w: WignerGrid) -> np.ndarray:
    """Phase-basis elements via the symmetric-kernel closed inversion.

    Uses the two-exponential expansion of the cosine kernel.  Near-zero
    denominators (possible only off the principal branch) fall back to
    the generic inversion for that entry.
    """
    if w.kernel_label != "symmetric":
        raise ValueError("closed inversion applies to the symmetric kernel only")
    d = w.dim
    grid = w.grid
    ks = _symmetric_k_range(d)
    phis = grid.phis
    ekm = np.exp(1j * np.outer(ks, phis))  # ekm[k, m]

    generic = None
    elements = np.zeros((d, d), dtype=complex)
    for r in range(d):
        for rp in range(d):
            den = np.exp(1j * ks * grid.phi(r)) + np.exp(1j * ks * grid.phi(rp))
            if np.min(np.abs(den)) < 1e-9:
                if generic is None:
                    generic = phase_matrix_elements(w, symmetric_kernel((d - 1) // 2))
                elements[rp, r] = generic[rp, r]
                continue
            coef = (ekm / den[:, None]).sum(axis=0)  # over k, per m
            nphase = np.exp(1j * np.arange(d) * (grid.phi(r) - grid.phi(rp)))
            elements[rp, r] = 2.0 / d * np.sum(coef[:, None] * nphase[None, :] * w.values)
    return elements


def reconstruct_symmetric(w: WignerGrid) -> np.ndarray:
    """Closed-form reconstruction for the symmetric kernel."""
    p = phase_basis(w.grid)
    return p @ phase_matrix_elements_symmetric(w) @ p.conj().T


def wigner_to_json(w: WignerGrid, path) -> None:
    """Write a Wigner grid as JSON with dim/phi0/kernel/values fields."""
    obj: dict = {"dim": w.dim, "phi0": w.grid.phi0, "kernel": w.kernel_label, "values": w.values}
    if w.epsilon is not None:
        obj["epsilon"] = w.epsilon
    write_json(path, obj)


def load_wigner(path) -> WignerGrid:
    """Read a Wigner grid from its JSON format."""
    return _wigner_from_json(read_json(path))


def _wigner_from_json(obj: dict) -> WignerGrid:
    """The Wigner grid of a decoded grid file."""
    grid = PhaseGrid(integer(obj["dim"], "grid dim"), number(obj.get("phi0", 0.0), "grid phi0"))
    eps = obj.get("epsilon")
    return WignerGrid(
        grid=grid,
        kernel_label=str(obj["kernel"]),
        values=number_table(obj["values"], 2, "grid values"),
        epsilon=None if eps is None else number(eps, "grid epsilon"),
    )


def wigner_to_csv(w: WignerGrid, path) -> None:
    """Write a Wigner grid as CSV rows ``m,n,phi,value`` (17 digits)."""
    with open(path, "w") as fh:
        fh.write("m,n,phi,value\n")
        for m, (phi, row) in enumerate(zip(w.grid.phis.tolist(), w.values.tolist())):
            head, mid = f"{m},", f",{phi:.17g},"
            fh.write("".join([f"{head}{n}{mid}{v:.17g}\n" for n, v in enumerate(row)]))
