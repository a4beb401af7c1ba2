"""Finite number-phase grids, their bases, and the operators living on them.

A grid of dimension ``d`` couples ``d`` equally spaced phase angles with
``d`` number levels.  This module provides both orthonormal bases (number
and phase), the number and phase operators, the clock/shift unitaries,
the displacement operators, the grid Fourier transform and the
characteristic-function pair that every state/grid map runs through.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class PhaseGrid:
    """A ``dim x dim`` phase-space grid with reference angle ``phi0``.

    Phase values are ``phi0 + 2*pi*m/dim`` for ``m = 0 .. dim-1``.
    """

    dim: int
    phi0: float = 0.0

    def __post_init__(self):
        try:
            dim = operator.index(self.dim)
        except TypeError:
            raise ValueError(f"grid dimension must be an integer, got {self.dim!r}") from None
        if dim < 1:
            raise ValueError("grid dimension must be a positive integer")
        if not math.isfinite(self.phi0):
            raise ValueError(f"reference angle phi0 must be finite, got {self.phi0!r}")
        object.__setattr__(self, "dim", dim)

    @property
    def phis(self) -> np.ndarray:
        """The ``dim`` phase angles of the grid."""
        return self.phi0 + 2.0 * np.pi * np.arange(self.dim) / self.dim

    def phi(self, m) -> float:
        """Phase angle for an arbitrary (also non-integer) index ``m``."""
        return self.phi0 + 2.0 * np.pi * m / self.dim

    @cached_property
    def _core_tables(self):
        """Tables of :func:`characteristic`: ``diag[k, a] = (a - k) mod dim``,
        ``exp(i*dim*phi0)`` on the wrapped entries ``a < k``, the shear."""
        d = self.dim
        idx = np.arange(d)
        diag = (idx[None, :] - idx[:, None]) % d
        corner = np.where(idx[None, :] < idx[:, None], np.exp(1j * d * self.phi0), 1.0)
        shear = np.exp(-1j * np.pi * np.arange(2 * d) / d)[np.outer(idx, idx) % (2 * d)]
        return idx, diag, corner, shear


def number_ket(grid: PhaseGrid, n: int) -> np.ndarray:
    """Standard basis vector |n>."""
    if not 0 <= n < grid.dim:
        raise ValueError(f"number index {n} outside 0..{grid.dim - 1}")
    e = np.zeros(grid.dim, dtype=complex)
    e[n] = 1.0
    return e


def phase_ket(grid: PhaseGrid, r: int) -> np.ndarray:
    """Uniform-modulus phase ket |phi_r>.

    Any integer index is accepted; the ket is periodic in ``r`` with
    period ``grid.dim``.
    """
    phi = grid.phi(r)
    n = np.arange(grid.dim)
    return np.exp(1j * n * phi) / np.sqrt(grid.dim)


def phase_basis(grid: PhaseGrid) -> np.ndarray:
    """Matrix ``P`` with ``P[n, m] = <n|phi_m>`` (columns are phase kets)."""
    n = np.arange(grid.dim)[:, None]
    return np.exp(1j * n * grid.phis[None, :]) / np.sqrt(grid.dim)


def number_op(grid: PhaseGrid) -> np.ndarray:
    """The number operator, diagonal in the number basis."""
    return np.diag(np.arange(grid.dim)).astype(complex)


def phase_op(grid: PhaseGrid) -> np.ndarray:
    """The phase operator, diagonal in the phase basis."""
    p = phase_basis(grid)
    return (p * grid.phis[None, :]) @ p.conj().T


def phase_function_op(grid: PhaseGrid, values) -> np.ndarray:
    """Spectral function of the phase operator with eigenvalues ``values``.

    ``values[m]`` is attached to the eigenvector |phi_m>.
    """
    v = np.asarray(values, dtype=complex)
    if v.shape != (grid.dim,):
        raise ValueError("need one value per phase angle")
    p = phase_basis(grid)
    return (p * v[None, :]) @ p.conj().T


def v_op(grid: PhaseGrid) -> np.ndarray:
    """Clock unitary exp(2*pi*i*number_op/dim); its dim-th power is 1."""
    return np.diag(np.exp(2j * np.pi * np.arange(grid.dim) / grid.dim))


def u_op(grid: PhaseGrid) -> np.ndarray:
    """Shift unitary: lowers the number index, with a corner phase.

    Equals ``exp(i * phase_op)``; its dim-th power is
    ``exp(i*dim*phi0)`` times the identity.
    """
    return displacement(grid, 1, 0)


def u_op_spectral(grid: PhaseGrid) -> np.ndarray:
    """The shift unitary built spectrally from the phase basis."""
    return phase_function_op(grid, np.exp(1j * grid.phis))


def displacement(grid: PhaseGrid, k: int, l: int) -> np.ndarray:
    """Discrete displacement operator for any integers ``k``, ``l``.

    ``exp(-i*pi*k*l/dim) * U^k * V^l`` with the literal product ``k*l`` in
    the phase, so shifting an index by ``dim`` changes the operator by a
    sign in general.  Row ``a`` holds one entry, in column ``b = a + k mod
    dim``, carrying the corner phase once per wrap of ``a + k``.
    """
    d = grid.dim
    a = np.arange(d)
    b = (a + k) % d
    out = np.zeros((d, d), dtype=complex)
    out[a, b] = np.exp(1j * ((a + k) // d * d * grid.phi0 + 2 * np.pi * b * l / d))
    return np.exp(-1j * np.pi * k * l / d) * out


def displacement_phase_form(grid: PhaseGrid, k: int, l: int) -> np.ndarray:
    """Displacement operator assembled from phase-basis dyads.

    Independent construction used to cross-check :func:`displacement`.
    """
    d = grid.dim
    out = np.zeros((d, d), dtype=complex)
    for m in range(d):
        out += np.exp(1j * k * grid.phi(m)) * np.outer(
            phase_ket(grid, m + l), phase_ket(grid, m).conj()
        )
    return np.exp(1j * np.pi * k * l / d) * out


def _fourier_factors(grid: PhaseGrid):
    """Return ``E[k, m] = exp(-i*k*phi_m)`` and ``F[l, n] = exp(-2pi*i*l*n/d)``."""
    d = grid.dim
    k = np.arange(d)[:, None]
    e = np.exp(-1j * k * grid.phis[None, :])
    f = np.exp(-2j * np.pi * k * np.arange(d)[None, :] / d)
    return e, f


def _angle_phases(grid: PhaseGrid) -> np.ndarray:
    """Column ``exp(-i*k*phi0)``: the reference-angle part of ``E[k, m]``."""
    return np.exp(-1j * np.arange(grid.dim) * grid.phi0)[:, None]


def fourier_coeffs(grid: PhaseGrid, values) -> np.ndarray:
    """Grid Fourier coefficients with the symmetric ``1/dim`` prefactor (one FFT2)."""
    v = np.asarray(values, dtype=complex)
    if v.shape != (grid.dim, grid.dim):
        raise ValueError("grid function shape does not match the grid")
    return _angle_phases(grid) * np.fft.fft2(v) / grid.dim


def inverse_fourier(grid: PhaseGrid, coeffs) -> np.ndarray:
    """Invert :func:`fourier_coeffs`; the round trip is exact."""
    c = np.asarray(coeffs, dtype=complex)
    if c.shape != (grid.dim, grid.dim):
        raise ValueError("coefficient table shape does not match the grid")
    return np.fft.ifft2(c / _angle_phases(grid)) * grid.dim


def characteristic(grid: PhaseGrid, a) -> np.ndarray:
    """Characteristic function ``chi[k, l] = trace(a D(k, l))``, ``0 <= k, l < dim``.

    Row ``k`` is one FFT of the k-th cyclic diagonal ``a[n, n - k]`` (corner
    phase on its wrapped entries), sheared by ``exp(-i*pi*k*l/dim)``:
    O(dim**2 log dim).  Leading axes of ``a`` are batch axes.
    """
    idx, diag, corner, shear = grid._core_tables
    s = np.asarray(a, dtype=complex)[..., idx, diag] * corner
    return np.fft.ifft(s, norm="forward") * shear


def operator_from_characteristic(grid: PhaseGrid, chi) -> np.ndarray:
    """Exact inverse of :func:`characteristic`: ``sum_{k,l} chi[k, l] D(k, l)^+ / dim``;
    leading axes of ``chi`` are batch axes."""
    idx, diag, corner, shear = grid._core_tables
    s = np.fft.fft(chi * shear.conj(), norm="forward") * corner.conj()
    return s[..., diag.T, idx[:, None]]


def _displacement_sum(grid: PhaseGrid, coeffs) -> np.ndarray:
    """``sum_{k,l} coeffs[k, l] D(k, l)``: entry ``[a, b]`` is the sheared inverse row
    FFT of row ``b - a mod dim`` at ``b``, times the corner phase when ``b < a``."""
    idx, diag, corner, shear = grid._core_tables
    return np.fft.ifft(coeffs * shear, norm="forward")[..., diag, idx] * corner
