"""Wigner functions of states, expectations, marginals and reconstruction.

The Wigner grid of a state is the normalised table of phase-point
overlaps.  Computed values are asserted real before the imaginary part
is dropped, so kernel bugs cannot hide behind a silent truncation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._jsonio import integer, number, number_table, open_out, read_json, write_json
from .linalg import TOL, is_hermitian, is_positive_semidefinite
from .kernels import Kernel
from .phasespace import PhaseGrid, _angle_phases, characteristic, operator_from_characteristic
from .quantizer import Quantizer, _kernel_weights, _warn_if_ill_conditioned

#: Slack allowed on the smallest eigenvalue of a density operator.
PSD_SLACK = 1e-8


class ReconstructionError(ValueError):
    """Raised when a Wigner grid does not determine a valid state."""


def check_density(rho, tol: float = TOL) -> np.ndarray:
    """Validate a density operator: finite, Hermitian, unit trace, PSD within ``PSD_SLACK``."""
    r = np.asarray(rho, dtype=complex)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError(f"density operator must be square, got shape {r.shape}")
    if not np.isfinite(r).all():
        raise ValueError("density operator has non-finite entries")
    if not is_hermitian(r, tol=tol):
        raise ValueError("density operator is not Hermitian")
    if abs(np.trace(r) - 1.0) > tol:
        raise ValueError("density operator trace differs from 1")
    if not is_positive_semidefinite(r, slack=PSD_SLACK):
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
    """The real part of a table whose imaginary part is roundoff.

    Roundoff grows with the entries, so the bound is ``tol`` times the
    largest real entry, or ``tol`` itself for tables of entries up to 1
    (every table of a density operator).
    """
    resid = float(np.max(np.abs(values.imag)))
    if resid > tol and resid > tol * float(np.max(np.abs(values.real))):
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
    """Table ``z[m, n] = <n|rho|phi_m><phi_m|n>``.

    ``rho @ phase_basis`` is one inverse FFT along the rows of ``rho``
    with ``exp(i*a*phi0)`` on its columns: O(dim**2 log dim).
    """
    d = grid.dim
    c = _angle_phases(grid)
    n = np.arange(d)
    twiddle = np.exp(-2j * np.pi * n / d)[np.outer(n, n) % d]
    return (np.fft.ifft(np.asarray(rho, dtype=complex) * c.conj().T, axis=1) * twiddle * c).T


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
    g[a[:, None], (b - a) % d] = r[a, b] * np.exp(1j * (b - a) * grid.phi0_reduced)
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
    rotates back to the number basis with two FFTs.  The upper triangle is
    mirrored onto the lower one with a real diagonal, so the result is
    exactly Hermitian.  It must satisfy the density-operator invariants
    within ``10 * TOL``.
    """
    rho = _to_number_basis(w.grid, phase_matrix_elements(w, kernel))
    _mirror_upper(rho)
    np.fill_diagonal(rho.imag, 0.0)
    if validate_state:
        try:
            check_density(rho, tol=10 * TOL)
        except ValueError as exc:
            raise ReconstructionError(str(exc)) from exc
    return rho


_BAND = 128
_BANDED_ROWS = 512
_BELOW = np.tri(_BAND, k=-1, dtype=bool)


def _mirror_upper(rho: np.ndarray) -> None:
    """Set each entry below the diagonal to the conjugate of its mirror, in place.

    The first 512 rows go a band of 128 rows at a time: one transposed copy
    left of the band's diagonal block, a mask inside it.  Later rows go one
    at a time, each reading one column of the upper triangle; at d >= 1025
    that is faster than a transposed copy per band.  Either way entry
    ``(a, b)`` is the bitwise conjugate of ``(b, a)``.
    """
    d = len(rho)
    for i in range(0, min(d, _BANDED_ROWS), _BAND):
        j = min(i + _BAND, d)
        if i:
            np.conjugate(rho[:i, i:j].T, out=rho[i:j, :i])
        block, below = rho[i:j, i:j], _BELOW[: j - i, : j - i]
        block[below] = block.T[below].conj()
    for a in range(_BANDED_ROWS, d):
        np.conjugate(rho[:a, a], out=rho[a, :a])


def _to_number_basis(grid: PhaseGrid, elements: np.ndarray) -> np.ndarray:
    """``P @ elements @ P^H`` for ``P = phase_basis(grid)``, as two FFTs:
    ``rho[a, b] = exp(i*(a - b)*phi0) * ifft(fft(E, axis=1), axis=0)[a, b]``."""
    rho = np.fft.ifft(np.fft.fft(elements, axis=1), axis=0)
    c = _angle_phases(grid)
    rho *= c.conj()
    rho *= c.T
    return rho


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
    with open_out(path) as fh:
        fh.write("m,n,phi,value\n")
        args = [0] * (2 * w.dim)  # n, value, n, value, ...
        args[::2] = range(w.dim)
        for m, (phi, row) in enumerate(zip(w.grid.phis.tolist(), w.values.tolist())):
            args[1::2] = row
            fh.write(f"{m},%d,{phi:.17g},%.17g\n" * w.dim % tuple(args))
