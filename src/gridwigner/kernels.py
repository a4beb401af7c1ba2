"""Kernel tables weighting the displacement operators, plus validity checks.

A kernel is a ``dim x dim`` complex table ``K[k, l]``.  Valid kernels are
nonvanishing, obey the conjugation pairing that makes every phase-point
operator Hermitian, and carry ones along both edge lines so that
phase-only and number-only functions quantize spectrally.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from functools import cached_property

import numpy as np

from ._jsonio import complex_table, integer, read_json, write_json
from .linalg import within
from .phasespace import _as_index

#: Entries smaller than this are treated as structural zeros.
ZERO_TOL = 1e-12

#: Labels of the built-in kernel families, the names the command line takes.
FAMILIES = ("symmetric", "wootters", "almost-symmetric")


@dataclass(frozen=True)
class Kernel:
    """A kernel table with a text label and optional skew angle.

    ``eps`` is only meaningful for the almost-symmetric family, where it records the angle used
    to dodge the cosine zeros of even dimensions.  The table must not be changed after
    construction: ``moduli``, like a ``Quantizer``'s weights, is read from it once.
    """

    values: np.ndarray
    label: str = "custom"
    eps: float | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.ndim != 2 or v.shape[0] != v.shape[1] or not v.size:
            raise ValueError(f"kernel table must be square and non-empty, got shape {v.shape}")
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    @cached_property
    def moduli(self) -> tuple[float, float]:
        """``(min |K|, max |K|)``, from one pass on first access: the conditioning of every
        inversion and the scale of every check on what is linear in the kernel."""
        moduli = np.abs(self.values)
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
    v = kernel.values
    d = kernel.dim
    sub = v[1:, 1:]
    flipped = sub[::-1, ::-1]  # K[d-k, d-l] for 1 <= k, l <= d-1
    k = np.arange(1, d)
    signs = 1 - 2 * ((d + k[:, None] + k) & 1)
    # the edge and interior tables are empty at d = 1: a maximum of 0
    return KernelValidity(
        nonvanishing=kernel.moduli[0] > ZERO_TOL,
        hermitian_pairing=within(np.abs(sub.conj() - signs * flipped).max(initial=0.0), kernel.moduli[1]),
        first_row_hermitian=within(np.abs(v[0, 1:].conj() - v[0, :0:-1]).max(initial=0.0)),
        first_col_hermitian=within(np.abs(v[1:, 0].conj() - v[:0:-1, 0]).max(initial=0.0)),
        corner_real=within(abs(v[0, 0].imag)),
        first_col_unit=within(np.abs(v[:, 0] - 1.0).max()),
        first_row_unit=within(np.abs(v[0] - 1.0).max()),
    )


def _positive_half(N) -> int:
    """``N`` of a dimension ``2N`` or ``2N+1``, an integer of at least 1."""
    N = _as_index(N, "N")
    if N < 1:
        raise ValueError("N must be a positive integer")
    return N


def _cosine_angles(d: int) -> np.ndarray:
    """``pi*k*l/d`` with ``k*l`` reduced mod ``2d`` in integers: the pairing holds to roundoff."""
    k = np.arange(d)
    return np.pi * (np.multiply.outer(k, k) % (2 * d)) / d


def symmetric_kernel(N: int) -> Kernel:
    """Cosine kernel of odd dimension ``2N+1`` (symmetric ordering)."""
    return Kernel(np.cos(_cosine_angles(2 * _positive_half(N) + 1)), label="symmetric")


def wootters_kernel(N: int) -> Kernel:
    """Sign kernel ``(-1)**(k*l)`` of odd dimension ``2N+1``.

    Unimodular; its line sums are projectors (see the tomography module).
    """
    d = 2 * _positive_half(N) + 1
    k = np.arange(d)[:, None]
    l = np.arange(d)[None, :]
    return Kernel((-1.0) ** (k * l), label="wootters")


def default_epsilon(N: int) -> float:
    """Default skew angle ``1/(2N)`` for even dimension ``2N``.

    Vanishes as the dimension grows, which the continuum limit requires.
    """
    return 1.0 / (2 * _positive_half(N))


def _admissible_eps(eps: float) -> float:
    """``eps`` itself; raises unless it is a finite angle whose cosine does not vanish."""
    if not np.isfinite(eps):
        raise ValueError(f"eps={eps!r} rejected: not a finite angle")
    if abs(np.cos(eps)) <= ZERO_TOL:
        raise ValueError(f"eps={eps!r} rejected: cos(eps) vanishes")
    return eps


def almost_symmetric_kernel(N: int, eps: float | None = None) -> Kernel:
    """Skewed cosine kernel of even dimension ``2N``.

    The plain cosine vanishes on part of an even grid, so the argument is
    shifted by ``eps`` and renormalised by ``cos(eps)``.  Raises if the
    chosen ``eps`` leaves a vanishing entry; the caller should then pick
    another value.
    """
    N = _positive_half(N)
    eps = default_epsilon(N) if eps is None else _admissible_eps(eps)
    a = _cosine_angles(2 * N)
    # cos(a + eps) / cos(eps), expanded so that a large eps keeps its precision
    kernel = Kernel(np.cos(a) - np.tan(eps) * np.sin(a), label="almost-symmetric", eps=float(eps))
    if kernel.moduli[0] * abs(np.cos(eps)) <= ZERO_TOL:  # min |K cos(eps)|: the table is real
        raise ValueError(f"eps={eps!r} rejected: a kernel entry vanishes; pick another eps")
    return kernel


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
