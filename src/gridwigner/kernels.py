"""Kernel tables weighting the displacement operators, plus validity checks.

A kernel is a ``dim x dim`` complex table ``K[k, l]``.  Valid kernels are
nonvanishing, obey the conjugation pairing that makes every phase-point
operator Hermitian, and carry ones along both edge lines so that
phase-only and number-only functions quantize spectrally.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import astuple, dataclass
from functools import cached_property

import numpy as np

from ._jsonio import complex_table, integer, read_json, write_json
from .linalg import within
from .phasespace import _as_angle, _as_index, _product_table

#: Entries smaller than this are treated as structural zeros.
ZERO_TOL = 1e-12

#: Kernel moduli below this trigger a conditioning warning on inversion.
CONDITION_TOL = 1e-6

#: Labels of the built-in kernel families, the names the command line takes.
FAMILIES = ("symmetric", "wootters", "almost-symmetric")


@dataclass(frozen=True, eq=False)
class Kernel:
    """A kernel table with a text label and optional skew angle.

    ``eps`` is only meaningful for the almost-symmetric family, where it records the angle used
    to dodge the cosine zeros of even dimensions.  The table must not be changed after
    construction: ``moduli``, like a ``Quantizer``'s weights, is read from it once.  A built-in
    family's kernel builds its table on the first read of ``values`` (:class:`_ChirpKernel`).
    Like a quantizer and a grid, a kernel holds an array, so ``==`` and ``hash`` go by identity.
    """

    values: np.ndarray
    label: str = "custom"
    eps: float | None = None

    #: A built-in family's chirp form, at most two terms ``(a, c)`` with ``K[k, l] exp(-i*pi*k*l/dim) =
    #: sum a * omega**(c*k*l)``, ``omega = exp(-2*pi*i/dim)`` (:func:`phasespace._chirp_map`); none for a table.
    chirps = ()

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.ndim != 2 or v.shape[0] != v.shape[1] or not v.size:
            raise ValueError(f"kernel table must be square and non-empty, got shape {v.shape}")
        object.__setattr__(self, "values", v)

    @cached_property
    def dim(self) -> int:
        return self.values.shape[0]

    @cached_property
    def moduli(self) -> tuple[float, float]:
        """``(min |K|, max |K|)``, from one pass on first access: the conditioning of every
        inversion and the scale of every check on what is linear in the kernel."""
        moduli = np.abs(self.values)
        return float(moduli.min()), float(moduli.max())


class _ChirpKernel(Kernel):
    """A built-in family's kernel: ``dim``, ``chirps`` and the real period of ``K[k, l] = period[k*l mod len(period)]``
    (2*dim cosine samples, wootters' [1, -1]).  ``moduli`` and :func:`validate` read no table; ``values`` builds it for
    ``build_quantizer``'s weights, ``reconstruct``'s sheared weights (so ``relate``), ``symbol``, ``quantize``, the
    line sums and ``verify_quantizer``."""

    def __init__(self, dim: int, chirps: tuple, period: np.ndarray, label: str, eps: float | None = None):
        vars(self).update(dim=dim, chirps=chirps, _period=period, label=label, eps=eps)  # frozen: no setattr

    @cached_property
    def values(self) -> np.ndarray:
        return _product_table(self._period.astype(complex), self.dim)

    @cached_property
    def moduli(self) -> tuple[float, float]:
        """``(min |K|, max |K|)`` of the period, O(dim): a sample no ``k*l`` reaches is minus one that does, to rounding."""
        moduli = np.abs(self._period)
        return float(moduli.min()), float(moduli.max())


@dataclass(frozen=True)
class KernelValidity:
    """One boolean per kernel condition; ``valid`` is their conjunction."""

    nonvanishing: bool
    hermitian_pairing: bool
    first_row_hermitian: bool
    first_col_hermitian: bool
    corner_real: bool
    first_col_unit: bool
    first_row_unit: bool

    @property
    def valid(self) -> bool:
        return all(astuple(self))


def validate(kernel: Kernel) -> KernelValidity:
    """Check every kernel condition and report them individually.

    The conjugation pairing couples ``K[k, l]`` with ``K[d-k, d-l]``
    through the sign ``(-1)**(d+k+l)``; together with nonvanishing
    entries and unit edge lines it characterises admissible kernels.
    The interior pairing is measured on the scale ``max |K|``, the edge
    lines and the corner on the scale 1 of their unit entries.
    """
    if isinstance(kernel, _ChirpKernel):  # its real period is 1 at k*l = 0 and period[j + d] = -period[j]: all paired
        return KernelValidity(kernel.moduli[0] > ZERO_TOL, *[True] * 6)
    v, d = kernel.values, kernel.dim
    k = np.arange(1, d)
    defect = np.conj(v[:0:-1, :0:-1])  # conj(K[d-k, d-l]) for 1 <= k, l <= d-1, one table signed in place:
    defect *= (1 - 2 * ((d + k) & 1))[:, None]  # (-1)**(d+k)
    defect *= 1 - 2 * (k & 1)  # (-1)**l
    np.subtract(v[1:, 1:], defect, out=defect)  # the conjugate of the pairing defect, of the same modulus
    # the edge and interior tables are empty at d = 1: a maximum of 0
    return KernelValidity(
        nonvanishing=kernel.moduli[0] > ZERO_TOL,
        hermitian_pairing=within(np.abs(defect).max(initial=0.0), kernel.moduli[1]),
        first_row_hermitian=within(np.abs(v[0, 1:].conj() - v[0, :0:-1]).max(initial=0.0)),
        first_col_hermitian=within(np.abs(v[1:, 0].conj() - v[:0:-1, 0]).max(initial=0.0)),
        corner_real=within(abs(v[0, 0].imag)),
        first_col_unit=within(np.abs(v[:, 0] - 1.0).max()),
        first_row_unit=within(np.abs(v[0] - 1.0).max()),
    )


def _check_inversion(kernel: Kernel) -> None:
    """The rule of the maps dividing by ``kernel`` (``symbol``, ``reconstruct``, so ``relate``), run first: failing ``validate``'s
    ``nonvanishing`` (a NaN entry too) raises, min |K| < ``CONDITION_TOL`` warns at the first calling line outside the package."""
    low = kernel.moduli[0]
    if not low > ZERO_TOL:
        raise ValueError(f"kernel has a zero entry (min |K| = {low:.3e}): the map divides by it")
    if low < CONDITION_TOL:
        level, frame = 1, sys._getframe()
        while frame is not None and frame.f_globals.get("__name__", "").startswith(__package__ + "."):
            level, frame = level + 1, frame.f_back
        warnings.warn(f"kernel inversion is ill-conditioned (min |K| = {low:.3e})", stacklevel=level)


def symmetric_kernel(N: int) -> Kernel:
    """Cosine kernel of odd dimension ``2N+1`` (symmetric ordering): ``(1 + omega**(k*l)) / 2`` sheared."""
    d = 2 * _as_index(N, "N", 1) + 1
    return _ChirpKernel(d, ((0.5, 0), (0.5, 1)), np.cos(np.pi * np.arange(2 * d) / d), "symmetric")


def wootters_kernel(N: int) -> Kernel:
    """Sign kernel ``(-1)**(k*l)`` of odd dimension ``2N+1``: ``omega**(-N*k*l)`` sheared.

    Unimodular; its line sums are projectors (see the tomography module).
    """
    d = 2 * _as_index(N, "N", 1) + 1
    return _ChirpKernel(d, ((1.0, -(d // 2)),), np.array([1.0, -1.0]), "wootters")


def default_epsilon(N: int) -> float:
    """Default skew angle ``1/(2N)`` for even dimension ``2N``.

    Vanishes as the dimension grows, which the continuum limit requires.
    """
    return 1.0 / (2 * _as_index(N, "N", 1))


def almost_symmetric_kernel(N: int, eps: float | None = None) -> Kernel:
    """Skewed cosine kernel of even dimension ``2N``.

    The plain cosine vanishes on part of an even grid, so the argument is
    shifted by ``eps`` and renormalised by ``cos(eps)``.  Raises if the
    chosen ``eps`` leaves a vanishing entry; the caller should then pick
    another value.
    """
    d = 2 * _as_index(N, "N", 1)
    eps = default_epsilon(N) if eps is None else _as_angle(eps, "eps")
    if not np.isfinite(eps):
        raise ValueError(f"eps={eps!r} rejected: not a finite angle")
    if abs(np.cos(eps)) <= ZERO_TOL:
        raise ValueError(f"eps={eps!r} rejected: cos(eps) vanishes")
    t, a = np.tan(eps), np.pi * np.arange(2 * d) / d
    period = np.cos(a) - t * np.sin(a)  # cos(a + eps) / cos(eps): a large eps keeps its precision
    chirps = (((1 + 1j * t) / 2, 0), ((1 - 1j * t) / 2, 1))  # (e^{i eps} + e^{-i eps} omega**(k*l)) / (2 cos(eps))
    kernel = _ChirpKernel(d, chirps, period, "almost-symmetric", eps)
    if kernel.moduli[0] * abs(np.cos(eps)) <= ZERO_TOL:  # min |K cos(eps)|: the period is real
        raise ValueError(f"eps={eps!r} rejected: a kernel entry vanishes; pick another eps")
    return kernel


def _family_dim(label: str, N: int) -> int:
    """The paper's parity rule: dimension ``2N+1`` for symmetric and wootters, ``2N`` for almost-symmetric."""
    return 2 * N + (label != "almost-symmetric")


def _family_kernel(label: str, dim: int, eps: float | None = None) -> Kernel:
    """The kernel of the family ``label`` of :data:`FAMILIES` on ``dim``, the one owner of the parity rule
    (:func:`_family_dim`): symmetric and wootters on ``dim >= 3`` with no ``eps``, almost-symmetric on ``dim >= 2``
    with ``eps`` as :func:`almost_symmetric_kernel` takes it.  Any other ``dim`` or ``eps`` raises ``ValueError``."""
    odd = _family_dim(label, 0)
    if dim != _family_dim(label, dim // 2) or dim < 2 + odd:
        raise ValueError(f"kernel {label!r} requires an {'odd' if odd else 'even'} dimension >= {2 + odd}, got {dim}")
    if odd:
        if eps is not None:
            raise ValueError(f"kernel {label!r} takes no skew angle, got eps={eps!r}")
        return {"symmetric": symmetric_kernel, "wootters": wootters_kernel}[label](dim // 2)
    return almost_symmetric_kernel(dim // 2, eps)


def is_unimodular(kernel: Kernel) -> bool:
    """True iff every entry has unit modulus within ``TOL``: ``max ||K| - 1| = max(max |K| - 1, 1 - min |K|)``."""
    return within(max(kernel.moduli[1] - 1.0, 1.0 - kernel.moduli[0]))


def save_kernel(kernel: Kernel, path) -> None:
    """Write a kernel as JSON ``{"dim": d, "values": [[[re, im], ...]]}``."""
    write_json(path, {"dim": kernel.dim, "values": kernel.values})


def load_kernel(path) -> Kernel:
    """Read a kernel from the JSON table format; its label is ``"file"``."""
    obj = read_json(path, "values", 3)
    d = integer(obj["dim"], "kernel file dim")
    return Kernel(complex_table(obj["values"], d, "kernel file table"), label="file")
