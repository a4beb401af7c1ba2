"""Kernel tables weighting the displacement operators, plus validity checks.

A kernel is a ``dim x dim`` complex table ``K[k, l]``.  Valid kernels are
nonvanishing, obey the conjugation pairing that makes every phase-point
operator Hermitian, and carry ones along both edge lines so that
phase-only and number-only functions quantize spectrally.
"""

from __future__ import annotations

import warnings
from dataclasses import astuple, dataclass
from functools import cached_property, partial

import numpy as np

from ._jsonio import complex_table, integer, read_json, write_json
from .linalg import within
from .phasespace import _as_index, _product_table

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
    """A built-in family's kernel: its ``dim``, ``chirps`` and ``table()``, run on the first read of ``values``
    (a module-level callable or a ``partial`` of one, so that the kernel pickles)."""

    def __init__(self, dim: int, chirps: tuple, table, label: str, eps: float | None = None):
        for name, value in zip(("dim", "chirps", "_table", "label", "eps"), (dim, chirps, table, label, eps)):
            object.__setattr__(self, name, value)

    @cached_property
    def values(self) -> np.ndarray:
        return np.asarray(self._table(), dtype=complex)

    @cached_property
    def max_modulus(self) -> float:
        """``max |K|``: ``sum |a|`` if ``K = sum a`` at ``k = 0`` reaches it (symmetric, wootters), else ``moduli[1]``."""
        bound = sum(abs(a) for a, _ in self.chirps)
        return bound if bound == abs(sum(a for a, _ in self.chirps)) else self.moduli[1]


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


def _check_inversion(kernel: Kernel) -> None:
    """The rule of every map that divides by ``kernel`` (``symbol``, ``reconstruct``, ``relate``), called before it
    divides: failing :func:`validate`'s ``nonvanishing`` (a NaN entry too) raises, min |K| < ``CONDITION_TOL`` warns."""
    low = kernel.moduli[0]
    if not low > ZERO_TOL:
        raise ValueError(f"kernel has a zero entry (min |K| = {low:.3e}): the map divides by it")
    if low < CONDITION_TOL:
        warnings.warn(f"kernel inversion is ill-conditioned (min |K| = {low:.3e})", stacklevel=3)


def _positive_half(N) -> int:
    """``N`` of a dimension ``2N`` or ``2N+1``, an integer of at least 1."""
    N = _as_index(N, "N")
    if N < 1:
        raise ValueError("N must be a positive integer")
    return N


def _cosine_table(d: int, f) -> np.ndarray:
    """``f(pi*k*l/d)``, a complex table read from its length ``2d`` period (the pairing holds to roundoff)."""
    return _product_table(f(np.pi * np.arange(2 * d) / d).astype(complex), d)


def symmetric_kernel(N: int) -> Kernel:
    """Cosine kernel of odd dimension ``2N+1`` (symmetric ordering): ``(1 + omega**(k*l)) / 2`` sheared."""
    d = 2 * _positive_half(N) + 1
    return _ChirpKernel(d, ((0.5, 0), (0.5, 1)), partial(_cosine_table, d, np.cos), "symmetric")


def wootters_kernel(N: int) -> Kernel:
    """Sign kernel ``(-1)**(k*l)`` of odd dimension ``2N+1``: ``omega**(-N*k*l)`` sheared.

    Unimodular; its line sums are projectors (see the tomography module).
    """
    d = 2 * _positive_half(N) + 1
    return _ChirpKernel(d, ((1.0, -(d // 2)),), partial(_product_table, np.array([1.0, -1.0]), d), "wootters")


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
    t = np.tan(eps)
    table = _cosine_table(2 * N, lambda a: np.cos(a) - t * np.sin(a))  # cos(a + eps) / cos(eps): a large eps keeps its precision
    chirps = (((1 + 1j * t) / 2, 0), ((1 - 1j * t) / 2, 1))  # (e^{i eps} + e^{-i eps} omega**(k*l)) / (2 cos(eps))
    kernel = _ChirpKernel(2 * N, chirps, partial(np.asarray, table), "almost-symmetric", float(eps))
    if kernel.moduli[0] * abs(np.cos(eps)) <= ZERO_TOL:  # min |K cos(eps)|: the table is real
        raise ValueError(f"eps={eps!r} rejected: a kernel entry vanishes; pick another eps")
    return kernel


def _family_kernel(label: str, dim: int, eps: float | None = None) -> Kernel:
    """The kernel of the family ``label`` of :data:`FAMILIES` on ``dim``, the one owner of the paper's parity rule:
    symmetric and wootters on an odd ``dim = 2N+1 >= 3`` with no ``eps``, almost-symmetric on an even ``dim = 2N >= 2``
    with ``eps`` as :func:`almost_symmetric_kernel` takes it.  Any other ``dim`` or ``eps`` raises ``ValueError``."""
    odd = label != "almost-symmetric"
    if dim % 2 != odd or dim < 2 + odd:
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
