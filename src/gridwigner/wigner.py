"""Wigner functions of states, expectations, marginals and reconstruction.

The Wigner grid of a state is the normalised table of phase-point
overlaps.  Computed values are asserted real before the imaginary part
is dropped, so kernel bugs cannot hide behind a silent truncation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._jsonio import integer, number, number_table, open_out, read_json, write_json
from .linalg import is_hermitian, is_positive_semidefinite, within
from .kernels import Kernel
from .phasespace import PhaseGrid, _displacement_sum, characteristic
from .quantizer import Quantizer, _kernel_weights, _warn_if_ill_conditioned

class ReconstructionError(ValueError):
    """Raised when a Wigner grid does not determine a valid state."""


def check_density(rho) -> np.ndarray:
    """Validate a density operator: finite, Hermitian, unit trace and PSD, on the scale 1 of a state."""
    r = np.asarray(rho, dtype=complex)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError(f"density operator must be square, got shape {r.shape}")
    if not np.isfinite(r).all():
        raise ValueError("density operator has non-finite entries")
    if not is_hermitian(r):
        raise ValueError("density operator is not Hermitian")
    if not within(abs(np.trace(r) - 1.0)):
        raise ValueError("density operator trace differs from 1")
    if not is_positive_semidefinite(r):
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


def _real_or_raise(values: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """The real part of a table whose imaginary part is roundoff on the ``scale``
    of the terms summed into it (``max |K|`` for a kernel map of a state)."""
    resid = float(np.max(np.abs(values.imag)))
    if not within(resid, scale):
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
        values=_real_or_raise(raw, kernel.scale),
        epsilon=kernel.eps,
    )


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

    The exact inverse of :func:`wigner_grid`: ``chi = ifft2(W) / weights`` is
    the state's characteristic function, its conjugate ``fft2(W) / conj(weights)
    / dim**2`` as ``W`` is real, and the state the adjoint of the displacement
    sum of ``conj(chi) / dim``.  A kernel without the conjugation pairing leaves an
    anti-Hermitian part; it raises when that part fails the tolerance on
    the scale ``max |K| * max(1, max |rho|)``.  The result is averaged with
    its adjoint, so its off-diagonal pairs are bitwise conjugates and its
    diagonal imaginary parts are +0.0.  With ``validate_state`` it must
    pass :func:`check_density`.
    """
    if kernel.dim != w.dim:
        raise ValueError("kernel dimension does not match the Wigner grid")
    if kernel.label != w.kernel_label:
        raise ValueError(
            f"kernel {kernel.label!r} does not match grid kernel {w.kernel_label!r}"
        )
    _warn_if_ill_conditioned(kernel)
    # conj(chi) / dim; one complex division, as dividing by a real scalar costs one as well
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero weight leaves NaN: the defect check raises
        h = _displacement_sum(w.grid, np.fft.fft2(w.values) / (np.conj(_kernel_weights(w.grid, kernel)) * w.dim**3))
    rho = h.conj().T
    defect = float(np.max(np.abs(rho - h)))
    if not within(defect, kernel.scale * max(1.0, float(np.max(np.abs(rho))))):
        raise ReconstructionError(f"inconsistent Wigner grid: anti-Hermitian part {defect:.3e}")
    rho = (rho + h) / 2
    # equal imaginary parts average to +0.0 on both sides: give the lower one the conjugate's sign
    np.copysign(rho.imag, -rho.imag.T, out=rho.imag, where=np.tri(w.dim, k=-1, dtype=bool))
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
