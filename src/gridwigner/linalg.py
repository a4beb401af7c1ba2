"""Dense complex linear algebra helpers shared by the whole package.

Operators are plain square complex numpy arrays and kets are 1-D complex
arrays, stored dense in raw double precision; the grid maps run at
d = 4097, where one complex d x d table holds 269 MB.
"""

from __future__ import annotations

import math

import numpy as np

#: The one tolerance of the package, applied by :func:`within`.
TOL = 1e-10


def within(dev, scale=1.0) -> bool:
    """The tolerance rule: ``dev <= TOL * scale``; a NaN deviation fails.

    ``scale`` is the size of what the deviation is measured on: 1 for a state,
    a kernel's edge lines or a unit modulus, ``max |K|`` for anything linear in
    the kernel ``K``, ``max |K|**2`` for what is quadratic in it.
    """
    return bool(dev <= TOL * scale)


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a square complex matrix."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def frob_dist(a, b) -> float:
    """Frobenius norm of ``a - b``; the library-wide equality metric."""
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return _frob(a - b)


def _frob(x) -> float:
    """Frobenius norm of ``x`` as one dot product, ``sqrt(vdot(x, x))``."""
    return math.sqrt(np.vdot(x, x).real)


def _hermitian_average(a: np.ndarray, adjoint: np.ndarray) -> np.ndarray:
    """``(a + adjoint) / 2``, its off-diagonal pairs bitwise conjugates and its diagonal imaginary parts +0.0."""
    h = np.add(a, adjoint, order="C")
    parts = h.view(float)
    parts *= 0.5  # in place: a complex / 2 takes four times as long
    # equal imaginary parts average to +0.0 on both sides: give the lower one the conjugate's sign
    im = h.imag
    np.copysign(im, -im.T, out=im, where=np.tri(len(h), k=-1, dtype=bool))
    return h


def _hermitian_part(a) -> np.ndarray | None:
    """The :func:`_hermitian_average` of ``a`` and its adjoint, or None when ``a`` has a non-finite entry."""
    m = as_matrix(a)
    if not np.isfinite(m).all():
        return None
    return _hermitian_average(m, m.conj().T)


def _cholesky_succeeds(h: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        return False
    return True


def psd_deficit(a) -> float:
    """``max(0, -lambda_min)`` of the Hermitian part of ``a``; ``inf`` if ``a`` is not finite.

    ``0.0`` without an eigendecomposition when a Cholesky factor exists (every full-rank state).
    """
    h = _hermitian_part(a)
    if h is None:
        return np.inf
    return 0.0 if _cholesky_succeeds(h) else max(0.0, -float(np.linalg.eigvalsh(h)[0]))


def is_positive_semidefinite(a) -> bool:
    """Whether ``a`` is finite and its Hermitian part ``h`` has no eigenvalue below
    ``-TOL * max(1, max |h|)``, the tolerance on the size of ``h`` (1 for a state).

    One Cholesky factorization of ``h`` plus that shift times ``I``; being backward
    stable on semidefinite matrices (Higham 1990), it passes rank-deficient ones.
    """
    h = _hermitian_part(a)
    return h is not None and _is_psd_hermitian(h, np.abs(h).max(initial=1.0))


def _is_psd_hermitian(h: np.ndarray, scale: float) -> bool:
    """Whether the Hermitian ``h`` has no eigenvalue below ``-TOL * scale``, ``scale`` the size
    of ``h`` (1 for a state): the Cholesky test of :func:`is_positive_semidefinite`, shifting ``h`` in place."""
    h.flat[:: len(h) + 1] += TOL * scale
    return _cholesky_succeeds(h)
