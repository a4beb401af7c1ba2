"""Finite number-phase grids, their bases, and the operators living on them.

A grid of dimension ``d`` couples ``d`` equally spaced phase angles with
``d`` number levels and holds no tables.  This module provides both bases
(number and phase), the number and phase operators, the clock/shift
unitaries, the displacement operators, the grid Fourier transform and the
characteristic-function pair that every state/grid map runs through.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np


def _as_index(value, what: str) -> int:
    """``value`` as a Python int; booleans, floats and other non-integers raise ``ValueError``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _reduced(phi0: float) -> float:
    """``phi0`` reduced mod 2 pi into ``[-pi, pi]`` (bit for bit ``phi0`` there):
    the angle at which every factor ``exp(i*integer*phi0)`` is evaluated."""
    return math.remainder(phi0, 2 * math.pi)


@dataclass(frozen=True)
class PhaseGrid:
    """A ``dim x dim`` phase-space grid with reference angle ``phi0``.

    Phase values are ``phi0 + 2*pi*m/dim`` for ``m = 0 .. dim-1``.
    ``phi0`` is kept as given; every factor ``exp(i*integer*phi0)`` is
    evaluated at :attr:`phi0_reduced`, so a large angle keeps its precision.
    """

    dim: int
    phi0: float = 0.0

    def __post_init__(self):
        dim = _as_index(self.dim, "grid dimension")
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

    @property
    def phi0_reduced(self) -> float:
        """:func:`_reduced` of ``phi0``."""
        return _reduced(self.phi0)


def _angles(grid: PhaseGrid, m) -> np.ndarray:
    """Grid angles of the indices ``m`` with the reduced reference angle: for
    factors ``exp(i*integer*phi_m)`` only, which do not see the reduction."""
    return grid.phi0_reduced + 2.0 * np.pi * np.asarray(m) / grid.dim


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
    n = np.arange(grid.dim)
    return np.exp(1j * n * _angles(grid, r)) / np.sqrt(grid.dim)


def phase_basis(grid: PhaseGrid) -> np.ndarray:
    """Matrix ``P`` with ``P[n, m] = <n|phi_m>`` (columns are phase kets)."""
    n = np.arange(grid.dim)[:, None]
    return np.exp(1j * n * _angles(grid, np.arange(grid.dim))[None, :]) / np.sqrt(grid.dim)


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
    out[a, b] = np.exp(1j * ((a + k) // d * d * grid.phi0_reduced + 2 * np.pi * b * l / d))
    return np.exp(-1j * np.pi * k * l / d) * out


def _angle_phases(grid: PhaseGrid) -> np.ndarray:
    """Column ``exp(-i*k*phi0)``: the reference-angle factor of every map."""
    return np.exp(-1j * np.arange(grid.dim) * grid.phi0_reduced)[:, None]


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


def _diagonals(grid: PhaseGrid, a) -> np.ndarray:
    """Row ``k`` is the k-th cyclic diagonal ``a[n, n - k mod dim]``, times the corner
    phase ``exp(i*dim*phi0)`` on its wrapped entries ``n < k``; leading axes are batch axes.
    Read from the rows ``[a * exp(i*dim*phi0) | a]`` as rows one entry longer, where
    ``[n, dim - k]`` is ``[n, n - k + dim]``; returned C-contiguous, owning its memory."""
    a = np.asarray(a, dtype=complex)
    d, batch = grid.dim, a.shape[:-2]
    buf = np.empty((*batch, d * (2 * d + 1)), dtype=complex)
    rows = buf[..., : 2 * d * d].reshape(*batch, d, 2, d)  # a times 1 + 0j, not copied: the signed zeros of written files
    np.multiply(a[..., None, :], np.array([[np.exp(1j * d * grid.phi0_reduced)], [1.0]]), out=rows)
    return buf.reshape(*batch, d, 2 * d + 1)[..., d:0:-1].swapaxes(-1, -2).copy()


def _shear(grid: PhaseGrid) -> np.ndarray:
    """``exp(-i*pi*k*l/dim)``, read from its length ``2*dim`` period with ``k*l`` reduced in integers."""
    kl = np.multiply.outer(np.arange(grid.dim), np.arange(grid.dim))
    kl %= 2 * grid.dim
    return np.exp(-1j * np.pi * np.arange(2 * grid.dim) / grid.dim).take(kl)


def characteristic(grid: PhaseGrid, a) -> np.ndarray:
    """Characteristic function ``chi[k, l] = trace(a D(k, l))``, ``0 <= k, l < dim``.

    Row ``k`` is one FFT of row ``k`` of :func:`_diagonals`, sheared by
    ``exp(-i*pi*k*l/dim)``: O(dim**2 log dim).  Leading axes of ``a`` are batch axes.
    """
    return np.fft.ifft(_diagonals(grid, a), norm="forward") * _shear(grid)


def operator_from_characteristic(grid: PhaseGrid, chi) -> np.ndarray:
    """Exact inverse of :func:`characteristic`: ``sum_{k,l} chi[k, l] D(k, l)^+ / dim``,
    the adjoint of a displacement sum; leading axes of ``chi`` are batch axes."""
    return _displacement_sum(grid, np.conj(chi)).swapaxes(-1, -2).conj() / grid.dim


def _displacement_sum(grid: PhaseGrid, coeffs) -> np.ndarray:
    """``sum_{k,l} coeffs[k, l] D(k, l)``: entry ``[a, b]`` is the sheared inverse row
    FFT ``s`` of row ``b - a mod dim`` at ``b``, times the corner phase when ``b < a``,
    which is row ``a`` of :func:`_diagonals` of ``s`` transposed.  Leading axes are
    batch axes; the stack comes back C-contiguous."""
    s = np.multiply(coeffs, _shear(grid))  # ``*`` could reuse the temporary as shear * coeffs: other bits
    np.fft.ifft(s, norm="forward", out=s)
    return _diagonals(grid, s.swapaxes(-1, -2))


def _level_shifts(grid: PhaseGrid, a, levels) -> np.ndarray:
    """``U**-n a U**n`` for each level ``0 <= n < dim`` (``U`` the shift :func:`u_op`): ``a[b - n, c - n]``
    (mod dim) at ``[b, c]``, times ``exp(i*dim*phi0)`` where ``c < n`` and its conjugate where ``b < n``;
    the window at ``(dim - n, dim - n)`` of ``a`` tiled 2 x 2, those phases on its first columns and rows."""
    d = grid.dim
    wrapped = np.where(np.arange(2 * d) < d, np.exp(1j * d * grid.phi0_reduced), 1.0)
    tiled = np.tile(a, (2, 2)) * wrapped
    tiled *= wrapped.conj()[:, None]
    start = d - np.asarray(levels)
    return np.lib.stride_tricks.sliding_window_view(tiled, (d, d))[start, start]
