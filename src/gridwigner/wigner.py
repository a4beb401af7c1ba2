"""Wigner functions of states, expectations, marginals and reconstruction,
and both kinds of grid: the kernel grid and the half-integer (Leonhardt) grid.

The Wigner grid of a state is the normalised table of phase-point
overlaps.  Computed values are asserted real before the imaginary part
is dropped, so kernel bugs cannot hide behind a silent truncation.
Both grid kinds check their table alike and name their kernel in
``kernel_label``; one decoder reads both files, whose ``kernel`` field picks the kind.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._jsonio import integer, number, number_table, read_json, write_grid_csv, write_json
from .linalg import _frob, _hermitian_average, _is_psd_hermitian, within
from .kernels import Kernel, _check_inversion, _positive_half, validate
from .phasespace import PhaseGrid, _as_angle, _chirp_map, _chirp_phases, _displacement_sum, _fft2, _kernel_map, _sheared_weights
from .quantizer import Quantizer, build_quantizer

class ReconstructionError(ValueError):
    """Raised when a Wigner grid does not determine a valid state."""


def check_density(rho) -> np.ndarray:
    """Validate a density operator: finite, Hermitian, unit trace and PSD, on the scale 1 of a state.
    One Hermitian sum ``h = (r + r^+) / 2`` serves the distance ``||r - r^+||_F = 2 ||r - h||_F`` and the factorization."""
    r = np.asarray(rho, dtype=complex)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError(f"density operator must be square, got shape {r.shape}")
    if not np.isfinite(r).all():
        raise ValueError("density operator has non-finite entries")
    h = r.conj().T  # a new table: the Hermitian part is formed in it
    h += r
    h *= 0.5
    if not within(2 * _frob(r - h)):
        raise ValueError("density operator is not Hermitian")
    if not within(abs(r.trace() - 1.0)):
        raise ValueError("density operator trace differs from 1")
    if not _is_psd_hermitian(h, 1.0):
        raise ValueError("density operator is not positive semidefinite")
    return r


def _checked_table(values, side: int, kind: str, wrong_shape: str, non_finite: str) -> np.ndarray:
    """The table of a grid, refused unless real, ``side x side`` and finite (``kind`` names it in the
    first refusal), as a C-contiguous float64 table that owns its memory, copied only when it is not
    one: no view keeps a complex table, or another table, alive behind a grid."""
    if np.iscomplexobj(values):
        raise ValueError(f"{kind} table must be real, got a complex table")
    v = np.asarray(values, dtype=float)
    v = v if v.flags.c_contiguous and v.flags.owndata else v.copy()
    if v.shape != (side, side):
        raise ValueError(wrong_shape)
    if not np.isfinite(v).all():
        raise ValueError(non_finite)
    return v


@dataclass(frozen=True, eq=False)
class WignerGrid:
    """Real Wigner table on a grid, tagged with the kernel that made it: the table is checked
    finite once and held as :func:`_checked_table` makes it, ``epsilon`` (if any) as a Python float."""

    grid: PhaseGrid
    kernel_label: str
    values: np.ndarray
    epsilon: float | None = None

    def __post_init__(self):
        shape, finite = "Wigner table shape does not match the grid", "Wigner table has non-finite entries"
        object.__setattr__(self, "values", _checked_table(self.values, self.grid.dim, "Wigner", shape, finite))
        object.__setattr__(self, "epsilon", None if self.epsilon is None else _as_angle(self.epsilon, "grid epsilon"))

    @property
    def dim(self) -> int:
        return self.grid.dim


@dataclass(frozen=True, eq=False)
class HalfIntegerWignerGrid:
    """Wigner table on the doubled half-integer grid of an even dimension.

    ``values[jm, jn]`` belongs to angle index ``jm/2`` and level
    ``jn/2``; both doubled indices run over ``0 .. 4N-1`` for Hilbert
    dimension ``2N``.  Table and ``phi0`` are held as a :class:`WignerGrid` holds its own.
    """

    n_half: int
    phi0: float
    values: np.ndarray
    kernel_label = "leonhardt"  # a class attribute, not a field: the label of every half grid

    def __post_init__(self):
        object.__setattr__(self, "n_half", _positive_half(self.n_half))
        object.__setattr__(self, "phi0", _as_angle(self.phi0, "half-integer grid phi0"))
        non_finite = "half-integer grid has a non-finite value or phi0"
        v = _checked_table(self.values, 4 * self.n_half, "half-integer", "half-integer table must be 4N x 4N", non_finite)
        if not np.isfinite(self.phi0):
            raise ValueError(non_finite)
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        """Hilbert-space dimension ``2N``."""
        return 2 * self.n_half


def _real_or_raise(values: np.ndarray, scale: float = 1.0, rho: np.ndarray | None = None) -> np.ndarray:
    """The real part, a view, of a forward map's table, whose imaginary part is roundoff on the size of the terms
    summed into it: ``scale`` (``max |K|``, 1 for the half grid) times ``max(1, max |rho|)`` for an unchecked state
    ``rho``.  A state that passed :func:`check_density` is passed as ``None``: its ``|rho_ab| <= 1``, with no pass."""
    scale *= 1.0 if rho is None else max(1.0, float(np.abs(rho).max()))
    resid = float(np.abs(values.imag).max())
    if not within(resid, scale):
        raise ValueError(f"Wigner values have imaginary residue {resid:.3e} beyond tolerance")
    return values.real


def _wigner(grid: PhaseGrid, kernel: Kernel, rho, validate_state: bool, q: Quantizer | None = None) -> WignerGrid:
    """The Wigner grid of a state: the chirp map of a kernel in chirp form, else the map of ``q``'s sheared weights."""
    r = check_density(rho) if validate_state else np.asarray(rho, dtype=complex)
    if r.shape != (grid.dim, grid.dim):
        raise ValueError("state dimension does not match the grid")
    unchecked = None if validate_state else r
    if kernel.chirps:  # + 0.0 owns the table and signs its zeros alike: the one transform leaves -0.0 by row
        phases = _chirp_phases(grid, kernel.chirps) if q is None else q.chirp_phases
        values = _real_or_raise(_chirp_map(grid, kernel.chirps, phases, r), kernel.max_modulus, unchecked) + 0.0
    else:
        values = _real_or_raise(_kernel_map(grid, q.weights, r), kernel.moduli[1], unchecked)
    return WignerGrid(grid, kernel.label, values, kernel.eps)


def wigner(q: Quantizer, rho, validate_state: bool = True) -> WignerGrid:
    """Wigner function of a state on the quantizer's grid (see :func:`wigner_grid`)."""
    return _wigner(q.grid, q.kernel, rho, validate_state, q)


def wigner_grid(grid: PhaseGrid, kernel: Kernel, rho, validate_state: bool = True) -> WignerGrid:
    """Wigner function of a state: the normalised phase-point overlaps.

    ``W = fft2(K * chi * exp(-i*k*phi0)) / dim**2`` with ``chi`` the characteristic function
    of the state.  A built-in kernel times the shear is at most two chirps ``omega**(c*k*l)``: the sum
    over ``l`` is a skewed read of the state's cyclic diagonals, then one FFT along ``k``, and neither
    the kernel table nor the sheared weights of :func:`build_quantizer`, which any other kernel's map
    reads, are built (:func:`phasespace._chirp_map`).  O(dim**2 log dim) time and O(dim**2) memory.
    """
    if kernel.dim != grid.dim or not kernel.chirps:  # build_quantizer refuses the first
        return wigner(build_quantizer(grid, kernel, check=False), rho, validate_state)
    return _wigner(grid, kernel, rho, validate_state)


def expectation(w: WignerGrid, values) -> complex:
    """Grid average of a function against the Wigner table."""
    v = np.asarray(values, dtype=complex)
    if v.shape != w.values.shape:
        raise ValueError("grid function shape does not match the Wigner grid")
    return complex(np.sum(v * w.values))


def marginals(w: WignerGrid):
    """Phase marginal (sum over levels) and number marginal (sum over angles)."""
    return w.values.sum(axis=1), w.values.sum(axis=0)


def reconstruct(w: WignerGrid, kernel: Kernel, validate_state: bool = True) -> np.ndarray:
    """Recover the density operator behind a Wigner grid.

    The exact inverse of :func:`wigner_grid`: ``fft2(W) / (conj(S) * dim**3)``, ``S`` the sheared
    weights, is ``conj(chi) / dim`` sheared (``chi`` the state's characteristic function, ``W``
    real), and the state the adjoint of its displacement sum.  A kernel of another dimension or label,
    or of another ``eps`` than a grid that records one, raises ``ValueError``; so does one with a zero
    entry, before the division (:func:`kernels._check_inversion`, which warns on a small entry).  One
    that fails a pairing :func:`kernels.validate` owns (interior, edge lines, corner) raises
    ``ReconstructionError``; with them the inverse of a real table is Hermitian, and it is averaged
    with its adjoint: off-diagonal pairs bitwise conjugates, diagonal imaginary parts +0.0.  With
    ``validate_state`` it must pass :func:`check_density`.
    """
    if kernel.dim != w.dim:
        raise ValueError("kernel dimension does not match the Wigner grid")
    if kernel.label != w.kernel_label:
        raise ValueError(f"kernel {kernel.label!r} does not match grid kernel {w.kernel_label!r}")
    if w.epsilon is not None and kernel.eps != w.epsilon:
        raise ValueError(f"kernel eps={kernel.eps!r} does not match grid epsilon {w.epsilon!r}")
    _check_inversion(kernel)
    v = validate(kernel)
    if not (v.hermitian_pairing and v.first_row_hermitian and v.first_col_hermitian and v.corner_real):
        raise ReconstructionError("kernel fails the conjugation pairing: its phase-point operators are not Hermitian")
    h = _displacement_sum(w.grid, _fft2(w.values) / (np.conj(_sheared_weights(w.grid, kernel.values)) * w.dim**3))
    rho = _hermitian_average(h.conj().T, h)
    if validate_state:
        try:
            check_density(rho)
        except ValueError as exc:
            raise ReconstructionError(str(exc)) from exc
    return rho


def wigner_to_json(w: WignerGrid, path) -> None:
    """Write a Wigner grid as JSON with dim/phi0/kernel/values fields."""
    obj: dict = {"dim": w.dim, "phi0": w.grid.phi0, "kernel": w.kernel_label, "values": w.values}
    if w.epsilon is not None:
        obj["epsilon"] = w.epsilon
    write_json(path, obj)


def halfgrid_to_json(w: HalfIntegerWignerGrid, path) -> None:
    """Write a half-integer grid as JSON (kernel tag ``leonhardt``)."""
    write_json(path, {"dim": w.dim, "phi0": w.phi0, "kernel": w.kernel_label, "values": w.values})


def load_wigner(path) -> WignerGrid:
    """Read a kernel grid from its JSON format; a half-integer grid file raises ``ValueError``."""
    return _grid_from_json(read_json(path, "values", 2), WignerGrid)


def load_halfgrid(path) -> HalfIntegerWignerGrid:
    """Read a half-integer grid from its JSON format; any other grid file raises ``ValueError``."""
    return _grid_from_json(read_json(path, "values", 2), HalfIntegerWignerGrid)


def _grid_from_json(obj: dict, kind: type | None = None) -> WignerGrid | HalfIntegerWignerGrid:
    """The grid of a decoded grid file, of the kind its ``kernel`` label names: a half-integer grid
    for ``leonhardt``, a kernel grid for any other label.  A label that is not a JSON string, or a
    file of another kind than ``kind``, if given, raises ``ValueError`` before its table is read."""
    label = obj.get("kernel")
    if not isinstance(label, str):
        raise ValueError(f"grid kernel must be a JSON string, got {label!r}")
    half = label == HalfIntegerWignerGrid.kernel_label
    if kind is not None and half != (kind is HalfIntegerWignerGrid):
        raise ValueError("a half-integer grid file: read it with load_halfgrid" if half else "not a half-integer grid file")
    d = integer(obj["dim"], "grid dim")
    if half and d % 2:
        raise ValueError("half-integer grids require an even integer Hilbert dimension")
    phi0 = number(obj.get("phi0", 0.0), "grid phi0")
    if half:
        return HalfIntegerWignerGrid(d // 2, phi0, number_table(obj["values"], 2, "grid values"))
    grid, eps = PhaseGrid(d, phi0), obj.get("epsilon")
    values = number_table(obj["values"], 2, "grid values")
    return WignerGrid(grid, label, values, None if eps is None else number(eps, "grid epsilon"))


def wigner_to_csv(w: WignerGrid, path) -> None:
    """Write a Wigner grid as CSV rows ``m,n,phi,value`` (17 digits)."""
    write_grid_csv(path, w.grid.phis, w.values)
