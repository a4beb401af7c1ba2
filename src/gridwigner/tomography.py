"""Phase-space lines, the even-dimension half-integer construction,
inter-kernel relation transforms and continuum-limit studies.

Half-integer grid indices are stored as doubled integers so index
arithmetic stays exact; angles are recovered only when a vector or a
phase factor is evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._jsonio import integer, number, number_table, read_json, write_json
from .phasespace import PhaseGrid, _as_index, displacement, phase_ket
from .quantizer import Quantizer, quantize
from .wigner import (
    WignerGrid,
    _real_or_raise,
    check_density,
    wigner_almost_symmetric,
    wigner_symmetric,
    wigner_wootters,
)


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
    d = line.dim
    return [
        (m, n)
        for m in range(d)
        for n in range(d)
        if (line.n1 * m + line.n2 * n - line.n3) % d == 0
    ]


def line_projector(q: Quantizer, line: Line) -> np.ndarray:
    """Average of the phase-point operators along a line.

    The quantization of the line's indicator function.  For the sign
    kernel these averages are rank-deficient projectors and each parallel
    family resolves the identity; for other kernels the axis-parallel
    families still give basis projectors but tilted lines generally fail
    projectivity.
    """
    return _quantize_lines(q, line, line.n3)


def family_projectors(q: Quantizer, n1: int, n2: int) -> np.ndarray:
    """All ``dim`` line projectors of a parallel family as one batched stack.

    Entry ``[n3]`` equals ``line_projector(q, Line(n1, n2, n3, dim))``.
    """
    d = q.grid.dim
    return _quantize_lines(q, Line(n1, n2, 0, d), np.arange(d)[:, None, None])


def _quantize_lines(q: Quantizer, line: Line, offsets) -> np.ndarray:
    d = q.grid.dim
    if d % 2 == 0:
        raise ValueError("line projectors are defined for odd dimensions here")
    if line.dim != d:
        raise ValueError("line dimension does not match the quantizer grid")
    if line.degenerate:
        raise ValueError("degenerate line: both direction coefficients vanish")
    if line.family_gcd > 1:
        raise ValueError(f"degenerate line family (gcd {line.family_gcd}); refusing to sum")
    idx = np.arange(d)
    return quantize(q, (line.n1 * idx[:, None] + line.n2 * idx) % d == offsets)


def displacement_zero_phase(grid: PhaseGrid, k: int, l: int) -> np.ndarray:
    """Displacement operator with the reference-angle phase stripped.

    Satisfies the exact power identity
    ``displacement_zero_phase(a*r, b*r) == displacement_zero_phase(a, b)**r``
    over the integers, which underpins the line-projector algebra.
    """
    return np.exp(-1j * k * grid.phi0) * displacement(grid, k, l)


def wootters_matrix_element(grid: PhaseGrid, m: int, n: int, a: int, b: int) -> complex:
    """Closed-form number-basis entry ``<a|Omega(phi_m, n)|b>`` of the
    sign-kernel phase-point operator: nonzero only when ``a + b`` is
    congruent to ``2n`` mod dim."""
    d = grid.dim
    if (a + b - 2 * n) % d != 0:
        return 0.0 + 0.0j
    return complex(np.exp(1j * (a - b) * grid.phi(m)))


def wootters_omega(grid: PhaseGrid, m: int, n: int) -> np.ndarray:
    """Sign-kernel phase-point operator from phase-basis dyads.

    Independent of the generic kernel-weighted build; used to cross-check
    it and to derive the odd-dimension relation transform.
    """
    d = grid.dim
    half = (d - 1) // 2
    acc = np.zeros((d, d), dtype=complex)
    for p in range(-half, half + 1):
        acc += np.exp(-4j * np.pi * p * n / d) * np.outer(
            phase_ket(grid, m + p), phase_ket(grid, m - p).conj()
        )
    return acc


@dataclass(frozen=True)
class HalfIntegerWignerGrid:
    """Wigner table on the doubled half-integer grid of an even dimension.

    ``values[jm, jn]`` belongs to angle index ``jm/2`` and level
    ``jn/2``; both doubled indices run over ``0 .. 4N-1`` for Hilbert
    dimension ``2N``.
    """

    n_half: int
    phi0: float
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n_half", _as_index(self.n_half, "N"))
        if self.n_half < 1:
            raise ValueError("N must be a positive integer")
        v = np.asarray(self.values, dtype=float)
        if v.shape != (4 * self.n_half, 4 * self.n_half):
            raise ValueError("half-integer table must be 4N x 4N")
        if not (np.all(np.isfinite(v)) and math.isfinite(self.phi0)):
            raise ValueError("half-integer grid has a non-finite value or phi0")
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        """Hilbert-space dimension ``2N``."""
        return 2 * self.n_half


def half_phase_ket(dim: int, phi0: float, j2) -> np.ndarray:
    """Phase-type unit vector for a doubled angle index ``j2``.

    Extends the grid phase kets to half-integer indices; for even ``j2``
    it coincides with the ordinary phase ket of index ``j2/2``.  An array
    of indices gives the stack of their kets, one per row.
    """
    phi = phi0 + np.pi * np.asarray(j2) / dim
    return np.exp(1j * np.multiply.outer(phi, np.arange(dim))) / np.sqrt(dim)


def leonhardt_phase_point_op(N: int, phi0: float, jm: int, jn: int) -> np.ndarray:
    """Half-integer-grid phase-point operator of an even dimension ``2N``.

    A half-step sum of phase dyads over one full period; Hermitian for
    every doubled index pair.  Under the extended half-index phase
    vectors this family resolves the identity with weight two, so the
    synthesis sum of :func:`leonhardt_reconstruct` uses it as is while
    analysis-side traces carry half the naive prefactor.
    """
    d = 2 * N
    jp = np.arange(-2 * N, 2 * N)
    left = half_phase_ket(d, phi0, jm + jp) * np.exp(-1j * np.pi * jp * jn / d)[:, None]
    return left.T @ half_phase_ket(d, phi0, jm - jp).conj() / 2.0


def leonhardt_wigner(N: int, phi0: float, rho, validate_state: bool = True) -> HalfIntegerWignerGrid:
    """Half-integer-grid Wigner function of an even-dimension state.

    Column ``jn`` is one inverse DFT of the anti-diagonal ``a + b = jn``,
    indexed by ``b - a mod 4N`` and weighted by ``exp(i*(b - a)*phi0)``.
    The table is real and sums to one over all ``16 N**2`` points.
    """
    d = 2 * N
    r = check_density(rho) if validate_state else np.asarray(rho, dtype=complex)
    if r.shape != (d, d):
        raise ValueError(f"state dimension {r.shape[0]} does not match 2N={d}")
    a = np.arange(d)
    jr = a - a[:, None]  # b - a
    g = np.zeros((4 * N, 4 * N), dtype=complex)
    g[a[:, None] + a, jr % (4 * N)] = r * np.exp(1j * jr * phi0)
    raw = np.fft.ifft(g).T
    return HalfIntegerWignerGrid(n_half=N, phi0=phi0, values=_real_or_raise(raw))


def leonhardt_wigner_phase_form(N: int, phi0: float, rho) -> HalfIntegerWignerGrid:
    """Half-integer Wigner function via phase-vector overlaps.

    Cross-check path using the extended half-index phase vectors.  The
    half-odd offsets double-count the exact anti-diagonal sum, hence the
    period-averaged prefactor ``1/(8N)``; agrees with
    :func:`leonhardt_wigner` identically.
    """
    d = 2 * N
    r = np.asarray(rho, dtype=complex)
    kets = [half_phase_ket(d, phi0, j2) for j2 in range(-4 * N, 8 * N)]

    def ket(j2: int) -> np.ndarray:
        return kets[j2 + 4 * N]

    raw = np.zeros((4 * N, 4 * N), dtype=complex)
    for jm in range(4 * N):
        for jn in range(4 * N):
            acc = 0.0 + 0.0j
            for jp in range(4 * N):
                left = ket(jm - jp)
                right = ket(jm + jp)
                acc += np.exp(-1j * np.pi * jp * jn / d) * (
                    left.conj() @ r @ right
                )
            raw[jm, jn] = acc / (8 * N)
    return HalfIntegerWignerGrid(n_half=N, phi0=phi0, values=_real_or_raise(raw))


def leonhardt_wigner_via_ops(N: int, phi0: float, rho) -> HalfIntegerWignerGrid:
    """Half-integer Wigner function as phase-point-operator traces.

    Analysis-side route ``values[jm, jn] = trace(rho A) / (4N)``; the
    halved prefactor mirrors the weight-two identity resolution of the
    operator family.
    """
    d = 2 * N
    r = np.asarray(rho, dtype=complex)
    raw = np.empty((4 * N, 4 * N), dtype=complex)
    for jm in range(4 * N):
        for jn in range(4 * N):
            a = leonhardt_phase_point_op(N, phi0, jm, jn)
            raw[jm, jn] = np.trace(r @ a) / (4 * N)
    return HalfIntegerWignerGrid(n_half=N, phi0=phi0, values=_real_or_raise(raw))


def leonhardt_reconstruct(w: HalfIntegerWignerGrid) -> np.ndarray:
    """Invert the half-integer-grid Wigner map.

    The state is the table-weighted sum of the phase-point operators.
    Operator ``(jm, jn)`` is ``exp(i*(a - b)*(phi0 + pi*jm/dim))`` on the
    anti-diagonal ``a + b = jn``, so the sum is one DFT over ``jm``.
    """
    N = w.n_half
    a = np.arange(2 * N)
    jr = a[:, None] - a  # a - b
    f = np.fft.ifft(w.values, axis=0, norm="forward")
    return np.exp(1j * jr * w.phi0) * f[jr % (4 * N), a[:, None] + a]


def _convolve(values: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Circular convolution ``sum_{x,y} c[i - x, j - y] * values[x, y]`` by FFT2."""
    return np.fft.irfft2(np.fft.rfft2(values) * np.fft.rfft2(c), s=values.shape)


def relate_odd(w: WignerGrid) -> WignerGrid:
    """Map a sign-kernel Wigner grid to the symmetric-kernel one.

    Exact finite-dimension identity: the table convolved with
    ``cos(4*pi*x*y/dim) / dim``.  Input and output share the grid and the state.
    """
    if w.kernel_label != "wootters":
        raise ValueError(
            f"odd relation needs a sign-kernel grid, got {w.kernel_label!r}"
        )
    d = w.dim
    if d % 2 == 0:
        raise ValueError("odd relation requires an odd dimension")
    idx = np.arange(d)
    c = np.cos(4.0 * np.pi * (np.outer(idx, idx) % d) / d) / d
    return WignerGrid(grid=w.grid, kernel_label="symmetric", values=_convolve(w.values, c))


def relate_even(w: HalfIntegerWignerGrid, eps: float) -> WignerGrid:
    """Map a half-integer-grid Wigner table to the skewed even-dimension one.

    Exact finite-dimension identity: the table convolved with
    ``cos(pi*x*y/dim - eps) / (2N cos(eps))`` on the doubled grid, sampled
    at even indices, i.e. on the integer ``2N x 2N`` grid.
    """
    if not np.isfinite(eps) or abs(np.cos(eps)) <= 1e-12:
        raise ValueError(f"eps={eps!r} inadmissible: not finite or cos(eps) vanishes")
    N = w.n_half
    d = 2 * N
    jidx = np.arange(4 * N)
    c = np.cos(np.pi * (np.outer(jidx, jidx) % (2 * d)) / d - eps)
    out = _convolve(w.values, c)[::2, ::2] / (2 * N * np.cos(eps))
    grid = PhaseGrid(d, w.phi0)
    return WignerGrid(
        grid=grid, kernel_label="almost-symmetric", values=out, epsilon=float(eps)
    )


def halfgrid_to_json(w: HalfIntegerWignerGrid, path) -> None:
    """Write a half-integer grid as JSON (kernel tag ``leonhardt``)."""
    write_json(path, {"dim": w.dim, "phi0": w.phi0, "kernel": "leonhardt", "values": w.values})


def load_halfgrid(path) -> HalfIntegerWignerGrid:
    """Read a half-integer grid from its JSON format."""
    return _halfgrid_from_json(read_json(path))


def _halfgrid_from_json(obj: dict) -> HalfIntegerWignerGrid:
    """The half-integer grid of a decoded grid file."""
    if obj.get("kernel") != "leonhardt":
        raise ValueError("not a half-integer grid file")
    d = integer(obj["dim"], "grid dim")
    if d % 2:
        raise ValueError("half-integer grids require an even integer Hilbert dimension")
    return HalfIntegerWignerGrid(
        n_half=d // 2,
        phi0=number(obj.get("phi0", 0.0), "grid phi0"),
        values=number_table(obj["values"], 2, "grid values"),
    )


# --- continuum-limit study ---------------------------------------------------


class EmbeddingError(ValueError):
    """Raised when a state does not embed safely into the requested grids."""


def embed_state(rho_small, dim: int) -> np.ndarray:
    """Zero-pad a finite-rank state into a larger Hilbert dimension."""
    r = np.asarray(rho_small, dtype=complex)
    if r.shape[0] > dim:
        raise EmbeddingError(
            f"state of dimension {r.shape[0]} does not fit into dimension {dim}"
        )
    out = np.zeros((dim, dim), dtype=complex)
    out[: r.shape[0], : r.shape[0]] = r
    return out


def number_phase_target(rho_small, n: int, phi: float) -> float:
    """Continuum number-phase Wigner value at ``(phi, n)``.

    The real part of the state's matrix element between the number level
    and the continuum phase vector, with ``<phi|n> = e^{-i n phi} / sqrt(2 pi)``.
    """
    r = np.asarray(rho_small, dtype=complex)
    if n >= r.shape[0]:
        return 0.0
    z = np.exp(-1j * n * phi) * np.sum(r[n, :] * np.exp(1j * np.arange(r.shape[0]) * phi))
    return float(z.real) / (2.0 * np.pi)


def wootters_target(rho_small, n: int, phi: float) -> float:
    """Continuum limit of the scaled sign-kernel Wigner value at ``(phi, n)``.

    Exact anti-diagonal sum of the state at level ``n``; out-of-range
    elements vanish.
    """
    r = np.asarray(rho_small, dtype=complex)
    dim = r.shape[0]
    acc = 0.0 + 0.0j
    for s in range(-n, n + 1):
        a, b = n - s, n + s
        if a < dim and b < dim:
            acc += np.exp(2j * s * phi) * r[a, b]
    return float(acc.real) / (2.0 * np.pi)


def phase_density(rho_small, phi: float) -> float:
    """Continuum phase marginal ``<phi|rho|phi>`` of a finite-rank state."""
    r = np.asarray(rho_small, dtype=complex)
    idx = np.arange(r.shape[0])
    v = np.exp(1j * idx * phi)
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

    def monotone(self, floor: float = 1e-12) -> bool:
        """Whether errors never increase beyond a roundoff floor."""
        e = self.errors()
        return all(e[i + 1] <= e[i] + floor for i in range(len(e) - 1))

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("N,n,phi_grid,scaled_value,target,abs_error\n")
            for r in self.rows:
                fh.write(
                    f"{r.N},{r.n},{r.phi_grid:.17g},{r.scaled_value:.17g},"
                    f"{r.target:.17g},{r.abs_error:.17g}\n"
                )


def _nearest_grid_index(grid: PhaseGrid, phi: float) -> int:
    frac = (phi - grid.phi0) * grid.dim / (2.0 * np.pi)
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

    The state is zero-padded into each grid dimension, the Wigner value
    is sampled at the grid angle nearest ``phi`` and scaled by
    ``dim / (2 pi)``, and the target is the continuum value at ``phi``
    itself (the sampled angle is reported so the offset is visible).
    Kernel families: ``symmetric`` and ``almost-symmetric`` share the
    number-phase target; ``wootters`` keeps its own anti-diagonal target,
    whose level sum stays flat in ``phi`` (the marginal defect of that
    route).
    """
    if kernel_family not in ("symmetric", "wootters", "almost-symmetric"):
        raise ValueError(f"unknown kernel family {kernel_family!r}")
    r = check_density(rho_small)
    n_max = r.shape[0] - 1
    n_list = list(N_list)
    if not n_list:
        raise EmbeddingError("need at least one grid size")
    if any(N < 1 for N in n_list):
        raise EmbeddingError("grid sizes must be positive")
    smallest = min(n_list)
    if n_max + n >= smallest:
        raise EmbeddingError(
            f"state support {n_max} plus query level {n} too close to N={smallest}"
        )

    rows = []
    for N in n_list:
        dim = 2 * N if kernel_family == "almost-symmetric" else 2 * N + 1
        grid = PhaseGrid(dim, phi0)
        m_star = _nearest_grid_index(grid, phi)
        phi_grid = grid.phi(m_star)
        rho = embed_state(r, dim)
        if kernel_family == "symmetric":
            w = wigner_symmetric(grid, rho)
            target = number_phase_target(r, n, phi)
        elif kernel_family == "almost-symmetric":
            eps = 1.0 / (2 * N)
            w = wigner_almost_symmetric(grid, rho, eps)
            target = number_phase_target(r, n, phi)
        else:
            w = wigner_wootters(grid, rho)
            target = wootters_target(r, n, phi)
        scaled = dim / (2.0 * np.pi) * float(w.values[m_star, n])
        rows.append(
            ConvergenceRow(
                N=int(N),
                dim=dim,
                n=n,
                phi_grid=float(phi_grid),
                scaled_value=scaled,
                target=target,
            )
        )
    return ConvergenceReport(kernel_label=kernel_family, n=n, phi=phi, rows=rows)
