"""Maps on grids: phase-space lines, the even-dimension half-integer (Leonhardt)
map and its inverse, inter-kernel relation transforms and continuum-limit
studies.  The grids and their files live in :mod:`.wigner`.

Half-integer grid indices are stored as doubled integers so index
arithmetic stays exact; angles are recovered only when a vector or a
phase factor is evaluated.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ._jsonio import write_report_csv
from .kernels import FAMILIES, Kernel, _family_kernel, _positive_half, almost_symmetric_kernel, default_epsilon
from .phasespace import PhaseGrid, _angles, _as_index, _displacement_sum, _fft, _ifft, _product_table, _reduced
from .quantizer import Quantizer, _completeness_dev
from .wigner import HalfIntegerWignerGrid, WignerGrid, _real_or_raise, check_density, reconstruct, wigner_grid

@dataclass(frozen=True)
class Line:
    """Modular line ``n1*m + n2*n = n3 (mod dim)`` on an odd grid."""

    n1: int
    n2: int
    n3: int
    dim: int

    def __post_init__(self):
        for name in ("n1", "n2", "n3", "dim"):
            object.__setattr__(self, name, _as_index(getattr(self, name), f"line {name}"))
        if self.dim < 1:
            raise ValueError("line dimension must be positive")
        for c in (self.n1, self.n2, self.n3):
            if not 0 <= c < self.dim:
                raise ValueError("line coefficients must lie in 0..dim-1")

    @property
    def degenerate(self) -> bool:
        """True when both direction coefficients vanish."""
        return self.n1 == 0 and self.n2 == 0

    @property
    def family_gcd(self) -> int:
        """gcd of the direction coefficients with the dimension.

        Values above 1 mark families whose parallel lines do not
        partition the grid.
        """
        return math.gcd(math.gcd(self.n1, self.n2), self.dim)


def line_points(line: Line) -> list[tuple[int, int]]:
    """All grid points on the line, sorted by angle index then level.

    A degenerate line is the whole grid (offset zero) or empty.
    """
    idx = np.arange(line.dim)
    m, n = np.nonzero((line.n1 * idx[:, None] + line.n2 * idx - line.n3) % line.dim == 0)
    return list(zip(m.tolist(), n.tolist()))


def line_projector(q: Quantizer, line: Line) -> np.ndarray:
    """Average of the phase-point operators along a line.

    The quantization of the line's indicator function.  For the sign
    kernel these averages are rank-deficient projectors and each parallel
    family resolves the identity; for other kernels the axis-parallel
    families still give basis projectors but tilted lines generally fail
    projectivity.
    """
    return _quantize_lines(q, line, [line.n3])[0]


def family_projectors(q: Quantizer, n1: int, n2: int) -> np.ndarray:
    """All ``dim`` line projectors of a parallel family as one batched stack.

    Entry ``[n3]`` equals ``line_projector(q, Line(n1, n2, n3, dim))``.
    """
    d = q.grid.dim
    return _quantize_lines(q, Line(n1, n2, 0, d), np.arange(d))


def _quantize_lines(q: Quantizer, line: Line, offsets) -> np.ndarray:
    """``quantize`` of the indicators of the lines ``n1*m + n2*n = offsets[s] (mod dim)``: with ``gcd(n1, n2,
    dim) == 1`` the fft2 of the indicator of offset ``n3`` is ``dim * exp(-2*pi*i*j*n3/dim)`` at ``(j*n1, j*n2)
    mod dim`` and zero elsewhere, so those ``dim`` weighted coefficients are placed and no fft2 is taken."""
    d = q.grid.dim
    if d % 2 == 0:
        raise ValueError("line projectors are defined for odd dimensions here")
    if line.dim != d:
        raise ValueError("line dimension does not match the quantizer grid")
    if line.degenerate:
        raise ValueError("degenerate line: both direction coefficients vanish")
    if line.family_gcd > 1:
        raise ValueError(f"degenerate line family (gcd {line.family_gcd}); refusing to sum")
    j = np.arange(d)
    k, l = line.n1 * j % d, line.n2 * j % d
    coeffs = np.zeros((len(offsets), d, d), dtype=complex)
    coeffs[:, k, l] = d * q.weights[k, l] * np.exp(-2j * np.pi * (np.outer(offsets, j) % d) / d)
    return _displacement_sum(q.grid, coeffs)


@functools.lru_cache(maxsize=32)
def _line_families(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Direction labels ``(n1, n2)`` of the parallel line families of a grid (read only, cached for 32 dims).

    One label per family: ``(c*n1, c*n2)`` with ``c`` a unit mod ``dim``
    gives the same lines, so only the smallest such pair (in ``n1``, then
    ``n2``) is kept; pairs with ``gcd(n1, n2, dim) > 1`` are left out.

    The unit multiples of ``n1`` are the residues sharing its gcd ``g`` with
    ``dim``, so the smallest is ``g mod dim`` (0 first, for ``g = dim``).  The
    units fixing it are those ``= 1 mod dim/g``; by the Chinese remainder
    theorem they take ``n2`` to every residue with ``gcd(n2, g) = 1`` of its
    class mod ``dim/g``.  So divisor ``g`` labels ``(g mod dim, x)`` for the
    smallest such ``x`` of each class, ascending: O(dim log dim) per divisor.
    """
    x = np.arange(dim)
    n1, n2 = [], []
    for g in sorted((g for g in range(1, dim + 1) if dim % g == 0), key=lambda g: g % dim):
        coprime = x[np.gcd(x, g) == 1]
        first = np.sort(coprime[np.unique(coprime % (dim // g), return_index=True)[1]])
        n1.append(np.full(len(first), g % dim))
        n2.append(first)
    n1, n2 = np.concatenate(n1), np.concatenate(n2)
    n1.flags.writeable = n2.flags.writeable = False
    return n1, n2


def _projectivity(q: Quantizer, n1, n2) -> np.ndarray:
    """``||P @ P - P||_F`` of the line through the origin of each family ``(n1[s], n2[s])``.

    ``P = sum_j K[k_j, l_j] exp(-i*k_j*phi0) / dim * D(k_j, l_j)`` with ``(k_j, l_j) =
    (j*n1, j*n2) mod dim``.  Each ``D(k_j, l_j)`` is a phase times ``D(n1, n2)**j``,
    a unitary with ``dim`` distinct eigenvalues, so ``P`` is normal and its
    eigenvalues are ``e = fft(K[k_j, l_j] exp(i*pi*m_j/dim) / dim)``, with the
    integer ``m_j = j**2*n1*n2 + j*dim*n1*n2 - k_j*l_j`` (``phi0`` cancels), a multiple of
    the odd ``dim`` with the parity of ``k_j*l_j``: the phase is ``(-1)**(k_j*l_j)``, read with
    ``K`` from one signed table.  The norm is ``sqrt(sum_k |e_k**2 - e_k|**2)``: O(dim log dim) a family.
    """
    d = q.grid.dim
    j = np.arange(d)
    flat = n1[:, None] * j % d * d + n2[:, None] * j % d  # k_j * dim + l_j
    signed = q.kernel.values * (1 / d)
    signed[1::2, 1::2] *= -1  # (-1)**(k*l) on the odd rows and columns
    e = signed.ravel().take(flat)
    del flat, signed
    e = _fft(e)
    e *= e - 1.0
    parts = e.view(float)
    return np.sqrt(np.einsum("ij,ij->i", parts, parts))


@dataclass(frozen=True)
class LineReport:
    """Worst deviations of the line-projector identities.

    ``projectivity_dev`` is the largest ``||P @ P - P||_F`` over every line of
    all ``families`` families.  ``completeness_dev`` is the Frobenius distance
    of a family's projector sum from the identity, the same for every family.
    """

    projectivity_dev: float
    completeness_dev: float
    families: int


def verify_lines(q: Quantizer) -> LineReport:
    """Check that every line family gives projectors that resolve the identity.

    Each line of a family is a displacement conjugate of the family's line
    through the origin, for any kernel, and conjugation keeps ``||P @ P -
    P||_F``: projectivity is that norm of one projector per family, read
    from its ``dim`` coefficients by :func:`_projectivity` without building
    it.  Every family is checked, in blocks of at most ``dim``: O(dim log dim)
    per family, no array beyond ``dim x dim``.  The lines of a family
    partition the grid, so by linearity every family sums to ``quantize(1)``:
    completeness is checked once.
    """
    d = q.grid.dim
    if d % 2 == 0:
        raise ValueError("line projectors are defined for odd dimensions here")
    n1, n2 = _line_families(d)
    projectivity = np.concatenate([_projectivity(q, n1[i : i + d], n2[i : i + d]) for i in range(0, len(n1), d)])
    return LineReport(float(np.max(projectivity)), _completeness_dev(q), len(n1))


def leonhardt_wigner(N: int, phi0: float, rho, validate_state: bool = True) -> HalfIntegerWignerGrid:
    """Half-integer-grid Wigner function of an even-dimension state.

    Column ``jn`` is one inverse DFT of the anti-diagonal ``a + b = jn``,
    indexed by ``b - a mod 4N`` and weighted by ``exp(i*(b - a)*phi0)``
    (``phi0`` reduced mod 2 pi).  The table is real and sums to one over
    all ``16 N**2`` points.
    """
    N = _positive_half(N)
    if not math.isfinite(phi0):
        raise ValueError("half-integer grid has a non-finite value or phi0")
    d = 2 * N
    r = check_density(rho) if validate_state else np.asarray(rho, dtype=complex)
    if r.shape != (d, d):
        raise ValueError(f"state dimension {r.shape[0]} does not match 2N={d}")
    a = np.arange(d)
    jr = a - a[:, None]  # b - a
    g = np.zeros((4 * N, 4 * N), dtype=complex)
    g[a[:, None] + a, jr % (4 * N)] = r * np.exp(1j * jr * _reduced(phi0))
    raw = _ifft(g).T
    return HalfIntegerWignerGrid(n_half=N, phi0=phi0, values=_real_or_raise(raw, 1.0, None if validate_state else r))


def leonhardt_reconstruct(w: HalfIntegerWignerGrid) -> np.ndarray:
    """Invert the half-integer-grid Wigner map.

    The state is the table-weighted sum of the phase-point operators.
    Operator ``(jm, jn)``, a half-step sum of phase dyads over one full
    period, is ``exp(i*(a - b)*(phi0 + pi*jm/dim))`` on the anti-diagonal
    ``a + b = jn``, so the sum is one DFT over ``jm``.  Under the extended
    half-index phase vectors this Hermitian family resolves the identity
    with weight two, so this synthesis sum uses it as is while the
    analysis-side traces of :func:`leonhardt_wigner` carry half the naive
    prefactor.
    """
    N = w.n_half
    a = np.arange(2 * N)
    jr = a[:, None] - a  # a - b
    f = _ifft(w.values, axes=(-2,), norm="forward")
    return np.exp(1j * jr * _reduced(w.phi0)) * f[jr % (4 * N), a[:, None] + a]


def relate(w: WignerGrid, kernel_from: Kernel, kernel_to: Kernel) -> WignerGrid:
    """Map a Wigner grid of one kernel to the grid of another kernel on the same grid.

    Exact for any real table: the forward map of ``kernel_to`` applied to ``reconstruct(w, kernel_from)``,
    neither state checked, is ``Re fft2(ifft2(W) * K_to / K_from)``.  So ``kernel_from`` is refused as
    :func:`reconstruct` refuses it; unpaired, it raises ``ReconstructionError`` before any division (the
    ratio route raised on an imaginary residue, or not at all).  A ``kernel_to`` of another dimension
    raises ``ValueError``, and an unpaired one too, through the forward map's imaginary residue.
    """
    if kernel_to.dim != w.dim:
        raise ValueError("kernel dimension does not match the Wigner grid")
    return wigner_grid(w.grid, kernel_to, reconstruct(w, kernel_from, validate_state=False), validate_state=False)


def relate_odd(w: WignerGrid) -> WignerGrid:
    """Map a sign-kernel Wigner grid to the symmetric-kernel one (see :func:`relate`), both kernels as
    :func:`kernels._family_kernel`, the parity rule's owner, builds or refuses them for the grid's dimension."""
    if w.kernel_label != "wootters":
        raise ValueError(f"odd relation needs a sign-kernel grid, got {w.kernel_label!r}")
    return relate(w, _family_kernel("wootters", w.dim), _family_kernel("symmetric", w.dim))


def relate_even(w: HalfIntegerWignerGrid, eps: float) -> WignerGrid:
    """Map a half-integer-grid Wigner table to the skewed even-dimension one.

    Exact finite-dimension identity: the table circularly convolved (one FFT2
    product) with ``cos(pi*x*y/dim - eps) / (2N cos(eps))`` on the doubled grid,
    sampled at even indices, i.e. on the integer ``2N x 2N`` grid.  Raises, as
    :func:`almost_symmetric_kernel` does, for an ``eps`` that no kernel of
    dimension ``2N`` admits: the grid is tagged with that kernel.
    """
    N = w.n_half
    almost_symmetric_kernel(N, eps)
    d = 2 * N
    c = _product_table(np.cos(np.pi * np.arange(2 * d) / d - eps), 2 * d)
    out = np.fft.irfft2(np.fft.rfft2(w.values) * np.fft.rfft2(c), s=c.shape)[::2, ::2] / (2 * N * np.cos(eps))
    return WignerGrid(grid=PhaseGrid(d, w.phi0), kernel_label="almost-symmetric", values=out, epsilon=float(eps))


# --- continuum-limit study ---------------------------------------------------


class EmbeddingError(ValueError):
    """Raised when a state does not embed safely into the requested grids."""


def _check_embedding(n_max: int, n: int, n_list) -> None:
    """Refuse grid sizes ``n_list`` that a state of support ``0..n_max`` queried at level ``n`` does not fit."""
    if not n_list:
        raise EmbeddingError("need at least one grid size")
    if any(N < 1 for N in n_list):
        raise EmbeddingError("grid sizes must be positive")
    if n < 0:
        raise EmbeddingError(f"query level {n} is negative")
    if n_max + n >= min(n_list):
        raise EmbeddingError(f"state support {n_max} plus query level {n} too close to N={min(n_list)}")


def _query_level(n) -> int:
    """``n`` as a Python int of at least 0."""
    n = _as_index(n, "query level")
    if n < 0:
        raise ValueError(f"query level {n} is negative")
    return n


def number_phase_target(rho_small, n: int, phi: float) -> float:
    """Continuum number-phase Wigner value at ``(phi, n)``.

    The real part of the state's matrix element between the number level
    and the continuum phase vector, with ``<phi|n> = e^{-i n phi} / sqrt(2 pi)``.
    Every factor is ``e^{i k phi}`` with an integer ``k``, taken at ``phi``
    reduced mod 2 pi (so for :func:`wootters_target` and :func:`phase_density`).
    """
    r, n = np.asarray(rho_small, dtype=complex), _query_level(n)
    if n >= r.shape[0]:
        return 0.0
    phi = _reduced(phi)
    z = np.exp(-1j * n * phi) * np.sum(r[n, :] * np.exp(1j * np.arange(r.shape[0]) * phi))
    return float(z.real) / (2.0 * np.pi)


def wootters_target(rho_small, n: int, phi: float) -> float:
    """Continuum limit of the scaled sign-kernel Wigner value at ``(phi, n)``.

    Exact anti-diagonal sum of the state at level ``n``; out-of-range
    elements vanish.
    """
    r = np.asarray(rho_small, dtype=complex)
    offsets, coeffs = _antidiagonal(r, _query_level(n))
    return float(np.sum(np.exp(1j * offsets * _reduced(phi)) * coeffs).real) / (2.0 * np.pi)


def _antidiagonal(r: np.ndarray, n: int):
    """Offsets ``b - a`` and entries ``r[a, b]`` of the pairs with ``a + b = 2n``."""
    a = np.arange(max(0, 2 * n - len(r) + 1), min(2 * n, len(r) - 1) + 1)
    return 2 * (n - a), r[a, 2 * n - a]


def phase_density(rho_small, phi: float) -> float:
    """Continuum phase marginal ``<phi|rho|phi>`` of a finite-rank state."""
    r = np.asarray(rho_small, dtype=complex)
    idx = np.arange(r.shape[0])
    v = np.exp(1j * idx * _reduced(phi))
    return float(np.real(v.conj() @ r @ v)) / (2.0 * np.pi)


@dataclass(frozen=True)
class ConvergenceRow:
    N: int
    dim: int
    n: int
    phi_grid: float
    scaled_value: float
    target: float

    @property
    def abs_error(self) -> float:
        return abs(self.scaled_value - self.target)


@dataclass(frozen=True)
class ConvergenceReport:
    """Scaled grid values against their continuum target along a dimension sweep."""

    kernel_label: str
    n: int
    phi: float
    rows: list[ConvergenceRow] = field(default_factory=list)

    def errors(self) -> list[float]:
        return [r.abs_error for r in self.rows]

    def monotone(self) -> bool:
        """Whether errors never increase by more than a roundoff floor of 1e-12."""
        e = self.errors()
        return all(e[i + 1] <= e[i] + 1e-12 for i in range(len(e) - 1))

    def slope(self) -> float | None:
        """Least-squares slope of ``log(abs_error)`` against ``log(N)``.

        Fitted over the rows whose error exceeds 1e-14, the roundoff
        floor; ``None`` unless they span at least two grid sizes.
        """
        rows = [r for r in self.rows if r.abs_error > 1e-14]
        if len({r.N for r in rows}) < 2:
            return None
        x = np.log([float(r.N) for r in rows])
        x -= x.mean()
        return float(x @ np.log([r.abs_error for r in rows]) / (x @ x))

    def to_csv(self, path) -> None:
        write_report_csv(path, [(r.N, r.n, r.phi_grid, r.scaled_value, r.target, r.abs_error) for r in self.rows])


def _nearest_grid_index(grid: PhaseGrid, phi: float) -> int:
    frac = (_reduced(phi) - grid.phi0_reduced) * grid.dim / (2.0 * np.pi)
    return int(round(frac)) % grid.dim


def continuum_study(
    rho_small,
    kernel_family: str,
    n: int,
    phi: float,
    N_list,
    phi0: float = 0.0,
) -> ConvergenceReport:
    """Scaled Wigner values along growing grids against the continuum target.

    The state is read as embedded in each grid dimension (it is not
    padded; see below), the Wigner value is sampled at the grid angle
    nearest ``phi`` and scaled by ``dim / (2 pi)``, and the target is the continuum value at ``phi``
    itself (the sampled angle is reported so the offset is visible).
    With ``phi0 = phi`` the angle lies on every grid, which leaves only
    the kernel's own error (zero for ``symmetric``, O(1/N) from the skew
    of ``almost-symmetric``).
    Kernel families: ``symmetric`` and ``almost-symmetric`` share the
    number-phase target; ``wootters`` keeps its own anti-diagonal target,
    whose level sum stays flat in ``phi`` (the marginal defect of that
    route).

    One value needs only the state's support ``s``: ``dim * W(phi_m, n)``
    is ``Re sum_a rho[n, a] e^{i(a - n) phi_m}`` (symmetric; the skewed
    kernel multiplies by ``e^{i eps}`` before the real part and divides by
    ``cos eps``, ``eps`` the skew :func:`kernels.default_epsilon` owns) or the anti-diagonal sum
    ``Re sum_{a+b=2n} rho[a, b] e^{i(b - a) phi_m}`` (wootters; no pair
    wraps modulo ``dim`` because ``n + s < N``).  Each size costs O(s).
    The nearest index and the factors ``e^{i k phi_m}`` take both angles
    reduced mod 2 pi, so a large ``phi`` or ``phi0`` keeps its precision.
    """
    if kernel_family not in FAMILIES:
        raise ValueError(f"unknown kernel family {kernel_family!r}")
    r = check_density(rho_small)
    n = _as_index(n, "query level")
    if not math.isfinite(phi):
        raise ValueError(f"target angle phi must be finite, got {phi!r}")
    n_list = list(N_list)
    _check_embedding(r.shape[0] - 1, n, n_list)

    odd = kernel_family != "almost-symmetric"
    grids = [PhaseGrid(2 * N + odd, phi0) for N in n_list]
    m = [_nearest_grid_index(g, phi) for g in grids]
    phi_grid = [g.phi(i) for g, i in zip(grids, m)]
    angles = np.array([_angles(g, i) for g, i in zip(grids, m)])
    if kernel_family == "wootters":
        offsets, coeffs = _antidiagonal(r, n)
        target = wootters_target(r, n, phi)
    else:
        offsets = np.arange(len(r)) - n
        coeffs = r[n] if n < len(r) else np.zeros(len(r))
        target = number_phase_target(r, n, phi)
    z = np.exp(1j * np.multiply.outer(angles, offsets)) @ coeffs
    if kernel_family == "almost-symmetric":
        eps = np.array([default_epsilon(N) for N in n_list])
        z = np.exp(1j * eps) * z / np.cos(eps)
    scaled = z.real / (2.0 * np.pi)
    rows = [
        ConvergenceRow(
            N=int(N), dim=g.dim, n=n, phi_grid=float(p), scaled_value=float(v), target=target
        )
        for N, g, p, v in zip(n_list, grids, phi_grid, scaled)
    ]
    return ConvergenceReport(kernel_label=kernel_family, n=n, phi=phi, rows=rows)
