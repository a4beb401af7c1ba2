"""Finite number-phase grids, their bases, and the operators living on them.

A grid of dimension ``d`` couples ``d`` equally spaced phase angles with
``d`` number levels and holds no tables.  This module provides both bases
(number and phase), the number and phase operators, the clock/shift
unitaries, the displacement operators and the characteristic-function
pair that every state/grid map runs through.
"""

from __future__ import annotations

import functools
import math
import numbers
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


def _as_angle(value, what: str) -> float:
    """``value`` as a Python float; booleans and values that are not real numbers raise ``ValueError``."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"{what} must be a real number, got {value!r}")


def _reduced(phi0: float) -> float:
    """``phi0`` reduced mod 2 pi into ``[-pi, pi]`` (bit for bit ``phi0`` there):
    the angle at which every factor ``exp(i*integer*phi0)`` is evaluated."""
    return math.remainder(phi0, 2 * math.pi)


@dataclass(frozen=True)
class PhaseGrid:
    """A ``dim x dim`` phase-space grid with reference angle ``phi0``.

    Phase values are ``phi0 + 2*pi*m/dim`` for ``m = 0 .. dim-1``.
    ``phi0`` is held as a Python float; every factor ``exp(i*integer*phi0)`` is
    evaluated at :attr:`phi0_reduced`, so a large angle keeps its precision.
    """

    dim: int
    phi0: float = 0.0

    def __post_init__(self):
        dim = _as_index(self.dim, "grid dimension")
        if dim < 1:
            raise ValueError("grid dimension must be a positive integer")
        phi0 = _as_angle(self.phi0, "reference angle phi0")
        if not math.isfinite(phi0):
            raise ValueError(f"reference angle phi0 must be finite, got {phi0!r}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "phi0", phi0)

    @property
    def phis(self) -> np.ndarray:
        """The ``dim`` phase angles of the grid."""
        return self.phi0 + 2.0 * np.pi * np.arange(self.dim) / self.dim

    def phi(self, m) -> float:
        """Phase angle for an arbitrary (also non-integer) index ``m``."""
        return self.phi0 + 2.0 * np.pi * m / self.dim

    @functools.cached_property
    def phi0_reduced(self) -> float:
        """:func:`_reduced` of ``phi0``, computed once per grid."""
        return _reduced(self.phi0)


def _angles(grid: PhaseGrid, m) -> np.ndarray:
    """Grid angles of the indices ``m`` with the reduced reference angle: for
    factors ``exp(i*integer*phi_m)`` only, which do not see the reduction."""
    return grid.phi0_reduced + 2.0 * np.pi * np.asarray(m) / grid.dim


def number_ket(grid: PhaseGrid, n: int) -> np.ndarray:
    """Standard basis vector |n>."""
    n = _as_index(n, "number index")
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
    return np.exp(1j * n * _angles(grid, _as_index(r, "phase index"))) / np.sqrt(grid.dim)


def phase_basis(grid: PhaseGrid) -> np.ndarray:
    """Matrix ``P`` with ``P[n, m] = <n|phi_m>`` (columns are phase kets)."""
    n = np.arange(grid.dim)[:, None]
    return np.exp(1j * n * _angles(grid, np.arange(grid.dim))[None, :]) / np.sqrt(grid.dim)


def number_op(grid: PhaseGrid) -> np.ndarray:
    """The number operator, diagonal in the number basis."""
    return np.diag(np.arange(grid.dim)).astype(complex)


def phase_op(grid: PhaseGrid) -> np.ndarray:
    """The phase operator, diagonal in the phase basis."""
    return phase_function_op(grid, grid.phis)


def phase_function_op(grid: PhaseGrid, values) -> np.ndarray:
    """Spectral function of the phase operator with eigenvalues ``values``.

    ``values[m]`` is attached to the eigenvector |phi_m>.  Entry ``[a, b]``,
    ``sum_m values[m] exp(i*(a - b)*phi_m) / dim``, depends on ``a - b`` only:
    ``exp(i*(a - b)*phi0)`` times the inverse FFT of ``values`` at ``a - b mod dim``.
    """
    v = np.asarray(values, dtype=complex)
    d = grid.dim
    if v.shape != (d,):
        raise ValueError("need one value per phase angle")
    j = np.arange(1 - d, d)  # a - b
    diffs = np.exp(1j * j * grid.phi0_reduced) * _ifft(v)[j % d]
    a = np.arange(d)
    return diffs[np.subtract.outer(a, a) + (d - 1)]


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
    d, k, l = grid.dim, _as_index(k, "displacement k"), _as_index(l, "displacement l")
    a = np.arange(d)
    b = (a + k) % d
    out = np.zeros((d, d), dtype=complex)
    out[a, b] = np.exp(1j * ((a + k) // d * d * grid.phi0_reduced + 2 * np.pi * b * l / d))
    return np.exp(-1j * np.pi * k * l / d) * out


#: Longest transform taken as a product with a cached DFT matrix; longer ones are ``np.fft`` calls.
DFT_MATRIX_LIMIT = 35


@functools.cache
def _dft_matrix(n: int, inverse: bool, norm: str) -> np.ndarray:
    """Read-only ``exp(-+2*pi*i*j*k/n)``, ``j*k`` reduced mod ``n`` in integers, with the ``1/n``
    that numpy's ``norm`` (``"backward"`` or ``"forward"``) puts on this direction.  Read only
    for ``n <= DFT_MATRIX_LIMIT``, so the cache holds at most ``4 * DFT_MATRIX_LIMIT`` matrices."""
    jk = np.multiply.outer(np.arange(n), np.arange(n)) % n
    roots = np.exp((2j if inverse else -2j) * np.pi * np.arange(n) / n)
    m = (roots * (1 / n) if inverse == (norm == "backward") else roots).take(jk)
    m.flags.writeable = False
    return m


def _dft(x, inverse: bool, axes: tuple, norm: str = "backward") -> np.ndarray:
    """numpy's ``fft``/``ifft`` of ``x`` along ``axes=(-1,)`` or ``(-2,)``, or its ``fft2``/``ifft2``
    along ``(-2, -1)``; leading axes are batch axes.  Up to :data:`DFT_MATRIX_LIMIT` points a product
    with :func:`_dft_matrix`, which at small ``n`` costs a fraction of numpy's per-call overhead (and
    of Bluestein at a prime ``n``).  Along the last axis each row is its own product, so its transform
    does not depend on the rows stacked with it; a 2-D transform is ``F @ x @ F`` per table.
    Longer transforms make the ``np.fft`` call itself, bit for bit."""
    x = np.asarray(x)
    if (max(x.shape[-2:]) if len(axes) == 2 else x.shape[axes[0]]) > DFT_MATRIX_LIMIT:
        if len(axes) == 2:
            return (np.fft.ifft2 if inverse else np.fft.fft2)(x, axes=axes, norm=norm)
        return (np.fft.ifft if inverse else np.fft.fft)(x, axis=axes[0], norm=norm)
    x = np.ascontiguousarray(x, dtype=complex)
    if axes == (-1,):
        return (x[..., None, :] @ _dft_matrix(x.shape[-1], inverse, norm))[..., 0, :]
    x = _dft_matrix(x.shape[-2], inverse, norm) @ x
    return x @ _dft_matrix(x.shape[-1], inverse, norm) if len(axes) == 2 else x


_fft = functools.partial(_dft, inverse=False, axes=(-1,))
_ifft = functools.partial(_dft, inverse=True, axes=(-1,))
_fft2 = functools.partial(_dft, inverse=False, axes=(-2, -1))
_ifft2 = functools.partial(_dft, inverse=True, axes=(-2, -1))


def _angle_phases(grid: PhaseGrid) -> np.ndarray:
    """Column ``exp(-i*k*phi0)``: the reference-angle factor of every map."""
    return np.exp(-1j * np.arange(grid.dim) * grid.phi0_reduced)[:, None]


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


def _sheared_weights(grid: PhaseGrid, kernel_values) -> np.ndarray:
    """``S = K[k, l] exp(-i*k*phi0) exp(-i*pi*k*l/dim) / dim**2``: every kernel map reads ``K`` through ``S``."""
    return _shear(grid) * kernel_values * (_angle_phases(grid) * (1 / grid.dim**2))


def characteristic(grid: PhaseGrid, a) -> np.ndarray:
    """Characteristic function ``chi[k, l] = trace(a D(k, l))``, ``0 <= k, l < dim``.

    Row ``k`` is one FFT of row ``k`` of :func:`_diagonals`, sheared by
    ``exp(-i*pi*k*l/dim)``: O(dim**2 log dim).  Leading axes of ``a`` are batch axes.
    """
    return _ifft(_diagonals(grid, a), norm="forward") * _shear(grid)


def operator_from_characteristic(grid: PhaseGrid, chi) -> np.ndarray:
    """Exact inverse of :func:`characteristic`: ``sum_{k,l} chi[k, l] D(k, l)^+ / dim``,
    the adjoint of a displacement sum; leading axes of ``chi`` are batch axes."""
    return _displacement_sum(grid, np.conj(chi) * _shear(grid)).swapaxes(-1, -2).conj() * (1 / grid.dim)


def _kernel_map(grid: PhaseGrid, weights, a) -> np.ndarray:
    """``fft2(weights * chi)``, ``chi`` the :func:`characteristic` of ``a``: the forward map of sheared ``weights``."""
    return _fft2(weights * _ifft(_diagonals(grid, a), norm="forward"))


def _chirp_map(grid: PhaseGrid, chirps, a) -> np.ndarray:
    """:func:`_kernel_map` of a kernel in chirp form (``Kernel.chirps``): summed over ``l``, ``fft2`` leaves
    ``G[k, n] = exp(-i*k*phi0) / dim * sum coeff * Dg[k, n + c*k mod dim]`` (``Dg``: :func:`_diagonals` of
    ``a``) to transform along ``k``.  Row ``k`` of ``Dg`` goes twice into row ``c*k mod dim`` of a table read
    as rows one entry longer, whose row ``c*k`` is the skew (a view for ``c = 1``).  The last ``c`` is prime
    to ``dim``; of two terms the first has ``c = 0``, the last ``c = 1``."""
    d, (coeff, _), (last, c) = grid.dim, chirps[0], chirps[-1]
    rows = slice(None) if c == 1 else np.arange(d) * c % d
    dg = _diagonals(grid, a)
    dg *= _angle_phases(grid) * (coeff / d)
    buf = np.empty(d * (2 * d + 1), dtype=complex)
    doubled = buf[: 2 * d * d].reshape(d, 2, d)
    doubled[rows] = dg[:, None]
    del dg
    g = buf.reshape(d, 2 * d + 1)[rows, :d]
    if len(chirps) == 2:  # the first half of the doubled rows is the unskewed term
        g = g * (last / coeff)
        g += doubled[:, 0]
    del buf, doubled
    return _dft(g, inverse=False, axes=(-2,))


def _displacement_sum(grid: PhaseGrid, coeffs) -> np.ndarray:
    """``sum_{k,l} c[k, l] D(k, l)`` from the sheared ``coeffs = c * exp(-i*pi*k*l/dim)``:
    entry ``[a, b]`` is the inverse row FFT ``s`` of row ``b - a mod dim`` at ``b``, times the
    corner phase when ``b < a``, which is row ``a`` of :func:`_diagonals` of ``s`` transposed.
    Leading axes are batch axes; the stack comes back C-contiguous."""
    return _diagonals(grid, _ifft(coeffs, norm="forward").swapaxes(-1, -2))

