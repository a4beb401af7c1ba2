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

from ._jsonio import integer, number, number_table, open_out, read_json, write_json
from .kernels import Kernel, _admissible_eps, symmetric_kernel, wootters_kernel
from .phasespace import PhaseGrid, _angles, _as_index, _displacement_sum, _reduced
from .quantizer import Quantizer, _checked, _chunks, _line_sums, _max_norm, _place_lines, _warn_if_ill_conditioned
from .wigner import WignerGrid, _real_or_raise, check_density


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
    d = q.grid.dim
    if d % 2 == 0:
        raise ValueError("line projectors are defined for odd dimensions here")
    if line.dim != d:
        raise ValueError("line dimension does not match the quantizer grid")
    if line.degenerate:
        raise ValueError("degenerate line: both direction coefficients vanish")
    if line.family_gcd > 1:
        raise ValueError(f"degenerate line family (gcd {line.family_gcd}); refusing to sum")
    return _line_sums(q, line.n1, line.n2, offsets)


def _line_families(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Direction labels ``(n1, n2)`` of the parallel line families of a grid.

    One label per family: ``(c*n1, c*n2)`` with ``c`` a unit mod ``dim``
    gives the same lines, so only the smallest such pair (in ``n1``, then
    ``n2``) is kept; pairs with ``gcd(n1, n2, dim) > 1`` are left out.

    The codes ``n1*dim + n2`` are walked in ascending order: an open code is
    the smallest of its family, whose unit multiples are then closed at once.
    """
    n1, n2 = np.divmod(np.arange(dim * dim), dim)
    is_open = np.gcd(np.gcd(n1, n2), dim) == 1
    c = np.arange(1, dim + 1)
    units = c[np.gcd(c, dim) == 1]
    labels = []
    code = 0
    while is_open[code:].any():
        code += int(np.argmax(is_open[code:]))
        labels.append(code)
        is_open[(units * n1[code] % dim) * dim + units * n2[code] % dim] = False
    return n1[labels], n2[labels]


@dataclass(frozen=True)
class LineReport:
    """Worst deviations of the line-projector identities.

    ``projectivity_dev`` is the largest ``||P @ P - P||_F`` and
    ``completeness_dev`` the largest Frobenius distance of a family's
    projector sum from the identity, over every line of ``checked`` of the
    ``families`` families: all of them, or a sample drawn with ``seed``
    (``None`` when every family was checked).
    """

    projectivity_dev: float
    completeness_dev: float
    checked: int
    families: int
    seed: int | None


def verify_lines(q: Quantizer) -> LineReport:
    """Check that every line family gives projectors that resolve the identity.

    Each line of a family is a displacement conjugate of the family's line
    through the origin, for any kernel, and conjugation keeps ``||P @ P -
    P||_F``: projectivity is that exact norm of one projector per family.
    The family's sum is, by linearity, the displacement sum of its placed
    coefficients summed over all offsets.  The families chosen by the
    quantizer's budget (all of them for ``dim <= 45``) go in chunks of at
    most ``dim`` families and ``BUDGET`` entries: O(dim**3) per family.
    """
    d = q.grid.dim
    if d % 2 == 0:
        raise ValueError("line projectors are defined for odd dimensions here")
    n1, n2 = _line_families(d)
    chosen, seed = _checked(d, len(n1), d**3)
    j = np.arange(d)
    summed = np.exp(-2j * np.pi * (np.outer(j, j) % d) / d).sum(axis=0)  # over the offsets n3
    projectivity = completeness = 0.0
    for part in _chunks(len(chosen), d):
        f = chosen[part]
        origin = _displacement_sum(q.grid, _place_lines(q, n1[f], n2[f], 1.0))
        projectivity = max(projectivity, _max_norm(origin @ origin - origin))
        total = _displacement_sum(q.grid, _place_lines(q, n1[f], n2[f], summed))
        completeness = max(completeness, _max_norm(total - np.eye(d)))
    return LineReport(projectivity, completeness, len(chosen), len(n1), seed)


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
    of indices gives the stack of their kets, one per row.  The entries
    are integer multiples of the angle, so ``phi0`` enters reduced mod 2 pi.
    """
    phi = _reduced(phi0) + np.pi * np.asarray(j2) / dim
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
    indexed by ``b - a mod 4N`` and weighted by ``exp(i*(b - a)*phi0)``
    (``phi0`` reduced mod 2 pi).  The table is real and sums to one over
    all ``16 N**2`` points.
    """
    d = 2 * N
    r = check_density(rho) if validate_state else np.asarray(rho, dtype=complex)
    if r.shape != (d, d):
        raise ValueError(f"state dimension {r.shape[0]} does not match 2N={d}")
    a = np.arange(d)
    jr = a - a[:, None]  # b - a
    g = np.zeros((4 * N, 4 * N), dtype=complex)
    g[a[:, None] + a, jr % (4 * N)] = r * np.exp(1j * jr * _reduced(phi0))
    raw = np.fft.ifft(g).T
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
    return np.exp(1j * jr * _reduced(w.phi0)) * f[jr % (4 * N), a[:, None] + a]


def relate(w: WignerGrid, kernel_from: Kernel, kernel_to: Kernel) -> WignerGrid:
    """Map a Wigner grid of one kernel to the grid of another kernel on the same grid.

    Exact finite-dimension identity: on one grid the two tables differ by
    the kernel ratio in Fourier space, ``W_to = Re fft2(ifft2(W_from) *
    K_to / K_from)`` (the angle factor cancels).  Division by ``K_from``
    amplifies noise by up to ``max |K_to / K_from|``.  Input and output
    share the grid and the state.
    """
    if kernel_from.label != w.kernel_label:
        raise ValueError(
            f"kernel {kernel_from.label!r} does not match grid kernel {w.kernel_label!r}"
        )
    if kernel_from.dim != w.dim or kernel_to.dim != w.dim:
        raise ValueError("kernel dimension does not match the Wigner grid")
    _warn_if_ill_conditioned(kernel_from)
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero K_from leaves NaN: _real_or_raise raises
        ratio = kernel_to.values / kernel_from.values
        raw = np.fft.fft2(np.fft.ifft2(w.values) * ratio)
    scale = float(np.max(np.abs(ratio))) * max(1.0, float(np.max(np.abs(w.values))))
    return WignerGrid(
        grid=w.grid, kernel_label=kernel_to.label, values=_real_or_raise(raw, scale), epsilon=kernel_to.eps
    )


def relate_odd(w: WignerGrid) -> WignerGrid:
    """Map a sign-kernel Wigner grid to the symmetric-kernel one (see :func:`relate`)."""
    if w.kernel_label != "wootters":
        raise ValueError(
            f"odd relation needs a sign-kernel grid, got {w.kernel_label!r}"
        )
    d = w.dim
    if d % 2 == 0:
        raise ValueError("odd relation requires an odd dimension")
    if d == 1:  # both kernels are the table [[1]]
        return WignerGrid(grid=w.grid, kernel_label="symmetric", values=w.values)
    return relate(w, wootters_kernel(d // 2), symmetric_kernel(d // 2))


def relate_even(w: HalfIntegerWignerGrid, eps: float) -> WignerGrid:
    """Map a half-integer-grid Wigner table to the skewed even-dimension one.

    Exact finite-dimension identity: the table circularly convolved (one FFT2
    product) with ``cos(pi*x*y/dim - eps) / (2N cos(eps))`` on the doubled grid,
    sampled at even indices, i.e. on the integer ``2N x 2N`` grid.
    """
    _admissible_eps(eps)
    N = w.n_half
    d = 2 * N
    jidx = np.arange(4 * N)
    c = np.cos(np.pi * (np.outer(jidx, jidx) % (2 * d)) / d - eps)
    out = np.fft.irfft2(np.fft.rfft2(w.values) * np.fft.rfft2(c), s=c.shape)[::2, ::2] / (2 * N * np.cos(eps))
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
    Every factor is ``e^{i k phi}`` with an integer ``k``, taken at ``phi``
    reduced mod 2 pi (so for :func:`wootters_target` and :func:`phase_density`).
    """
    r = np.asarray(rho_small, dtype=complex)
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
    offsets, coeffs = _antidiagonal(r, n)
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
        with open_out(path) as fh:
            fh.write("N,n,phi_grid,scaled_value,target,abs_error\n")
            for r in self.rows:
                fh.write(
                    f"{r.N},{r.n},{r.phi_grid:.17g},{r.scaled_value:.17g},"
                    f"{r.target:.17g},{r.abs_error:.17g}\n"
                )


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
    ``cos eps``, ``eps = 1/(2N)``) or the anti-diagonal sum
    ``Re sum_{a+b=2n} rho[a, b] e^{i(b - a) phi_m}`` (wootters; no pair
    wraps modulo ``dim`` because ``n + s < N``).  Each size costs O(s).
    The nearest index and the factors ``e^{i k phi_m}`` take both angles
    reduced mod 2 pi, so a large ``phi`` or ``phi0`` keeps its precision.
    """
    if kernel_family not in ("symmetric", "wootters", "almost-symmetric"):
        raise ValueError(f"unknown kernel family {kernel_family!r}")
    r = check_density(rho_small)
    n = _as_index(n, "query level")
    if not math.isfinite(phi):
        raise ValueError(f"target angle phi must be finite, got {phi!r}")
    n_max = r.shape[0] - 1
    n_list = list(N_list)
    if not n_list:
        raise EmbeddingError("need at least one grid size")
    if any(N < 1 for N in n_list):
        raise EmbeddingError("grid sizes must be positive")
    if n < 0:
        raise EmbeddingError(f"query level {n} is negative")
    smallest = min(n_list)
    if n_max + n >= smallest:
        raise EmbeddingError(
            f"state support {n_max} plus query level {n} too close to N={smallest}"
        )

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
        eps = 1.0 / np.array([float(g.dim) for g in grids])  # dim = 2N
        z = np.exp(1j * eps) * z / np.cos(eps)
    scaled = z.real / (2.0 * np.pi)
    rows = [
        ConvergenceRow(
            N=int(N), dim=g.dim, n=n, phi_grid=float(p), scaled_value=float(v), target=target
        )
        for N, g, p, v in zip(n_list, grids, phi_grid, scaled)
    ]
    return ConvergenceReport(kernel_label=kernel_family, n=n, phi=phi, rows=rows)
