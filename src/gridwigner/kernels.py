"""Kernel tables weighting the displacement operators, plus validity checks.

A kernel is a ``dim x dim`` complex table ``K[k, l]``.  Valid kernels are
nonvanishing, obey the conjugation pairing that makes every phase-point
operator Hermitian, and carry ones along both edge lines so that
phase-only and number-only functions quantize spectrally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._jsonio import complex_table, integer, read_json, write_json
from .linalg import TOL

#: Entries smaller than this are treated as structural zeros.
ZERO_TOL = 1e-12


@dataclass(frozen=True)
class Kernel:
    """A kernel table with a text label and optional skew angle.

    ``eps`` is only meaningful for the almost-symmetric family, where it
    records the angle used to dodge the cosine zeros of even dimensions.
    """

    values: np.ndarray
    label: str = "custom"
    eps: float | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError(f"kernel table must be square, got shape {v.shape}")
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[0]


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
        return all(
            (
                self.nonvanishing,
                self.hermitian_pairing,
                self.first_row_hermitian,
                self.first_col_hermitian,
                self.corner_real,
                self.first_col_unit,
                self.first_row_unit,
            )
        )


def validate(kernel: Kernel, tol: float = TOL) -> KernelValidity:
    """Check every kernel condition and report them individually.

    The conjugation pairing couples ``K[k, l]`` with ``K[d-k, d-l]``
    through the sign ``(-1)**(d+k+l)``; together with nonvanishing
    entries and unit edge lines it characterises admissible kernels.
    """
    v = kernel.values
    d = kernel.dim

    nonvanishing = bool(np.min(np.abs(v)) > ZERO_TOL)

    if d > 1:
        sub = v[1:, 1:]
        flipped = sub[::-1, ::-1]  # K[d-k, d-l] for 1 <= k, l <= d-1
        k = np.arange(1, d)[:, None]
        l = np.arange(1, d)[None, :]
        signs = (-1.0) ** (d + k + l)
        hermitian_pairing = bool(np.max(np.abs(sub.conj() - signs * flipped)) <= tol)
        first_row_hermitian = bool(
            np.max(np.abs(v[0, 1:].conj() - v[0, 1:][::-1])) <= tol
        )
        first_col_hermitian = bool(
            np.max(np.abs(v[1:, 0].conj() - v[1:, 0][::-1])) <= tol
        )
    else:
        hermitian_pairing = True
        first_row_hermitian = True
        first_col_hermitian = True

    corner_real = bool(abs(v[0, 0].imag) <= tol)
    first_col_unit = bool(np.max(np.abs(v[:, 0] - 1.0)) <= tol)
    first_row_unit = bool(np.max(np.abs(v[0, :] - 1.0)) <= tol)

    return KernelValidity(
        nonvanishing=nonvanishing,
        hermitian_pairing=hermitian_pairing,
        first_row_hermitian=first_row_hermitian,
        first_col_hermitian=first_col_hermitian,
        corner_real=corner_real,
        first_col_unit=first_col_unit,
        first_row_unit=first_row_unit,
    )


def symmetric_kernel(N: int) -> Kernel:
    """Cosine kernel of odd dimension ``2N+1`` (symmetric ordering)."""
    if N < 1:
        raise ValueError("N must be a positive integer")
    d = 2 * N + 1
    k = np.arange(d)[:, None]
    l = np.arange(d)[None, :]
    return Kernel(np.cos(np.pi * k * l / d), label="symmetric")


def wootters_kernel(N: int) -> Kernel:
    """Sign kernel ``(-1)**(k*l)`` of odd dimension ``2N+1``.

    Unimodular; its line sums are projectors (see the tomography module).
    """
    if N < 1:
        raise ValueError("N must be a positive integer")
    d = 2 * N + 1
    k = np.arange(d)[:, None]
    l = np.arange(d)[None, :]
    return Kernel((-1.0) ** (k * l), label="wootters")


def default_epsilon(N: int) -> float:
    """Default skew angle ``1/(2N)`` for even dimension ``2N``.

    Vanishes as the dimension grows, which the continuum limit requires.
    """
    return 1.0 / (2 * N)


def almost_symmetric_kernel(N: int, eps: float | None = None) -> Kernel:
    """Skewed cosine kernel of even dimension ``2N``.

    The plain cosine vanishes on part of an even grid, so the argument is
    shifted by ``eps`` and renormalised by ``cos(eps)``.  Raises if the
    chosen ``eps`` leaves a vanishing entry; the caller should then pick
    another value.
    """
    if N < 1:
        raise ValueError("N must be a positive integer")
    if eps is None:
        eps = default_epsilon(N)
    if not np.isfinite(eps):
        raise ValueError(f"eps={eps!r} rejected: not a finite angle")
    if abs(np.cos(eps)) <= ZERO_TOL:
        raise ValueError(f"eps={eps!r} rejected: cos(eps) vanishes")
    d = 2 * N
    a = np.pi * np.outer(np.arange(d), np.arange(d)) / d
    # cos(a + eps) / cos(eps), expanded so that a large eps keeps its precision
    values = np.cos(a) - np.tan(eps) * np.sin(a)
    if np.min(np.abs(values * np.cos(eps))) <= ZERO_TOL:
        raise ValueError(
            f"eps={eps!r} rejected: a kernel entry vanishes; pick another eps"
        )
    return Kernel(values, label="almost-symmetric", eps=float(eps))


def is_unimodular(kernel: Kernel, tol: float = TOL) -> bool:
    """True iff every entry has unit modulus within ``tol``."""
    return bool(np.max(np.abs(np.abs(kernel.values) - 1.0)) <= tol)


def kernel_from_table(values, label: str = "custom") -> Kernel:
    """Wrap a user-supplied square table; the caller must validate it."""
    return Kernel(np.asarray(values, dtype=complex), label=label)


def save_kernel(kernel: Kernel, path) -> None:
    """Write a kernel as JSON ``{"dim": d, "values": [[[re, im], ...]]}``."""
    write_json(path, {"dim": kernel.dim, "values": kernel.values})


def load_kernel(path, label: str = "file") -> Kernel:
    """Read a kernel from the JSON table format."""
    obj = read_json(path)
    d = integer(obj["dim"], "kernel file dim")
    return Kernel(complex_table(obj["values"], d, "kernel file table"), label=label)
