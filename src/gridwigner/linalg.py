"""Dense complex linear algebra helpers shared by the whole package.

Operators are plain square complex numpy arrays and kets are 1-D complex
arrays, stored dense in raw double precision; the grid maps run at
d = 4097, where one complex d x d table holds 269 MB.
"""

from __future__ import annotations

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


def adjoint(a) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(a).conj().T


def frob_dist(a, b) -> float:
    """Frobenius norm of ``a - b``; the library-wide equality metric."""
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def is_hermitian(a) -> bool:
    return within(frob_dist(a, adjoint(a)))


def is_unitary(a) -> bool:
    a = as_matrix(a)
    return within(frob_dist(a @ a.conj().T, np.eye(a.shape[0])))


def _hermitian_part(a) -> np.ndarray | None:
    """``(a + a^H) / 2``, or None when ``a`` has a non-finite entry."""
    m = as_matrix(a)
    if not np.isfinite(m).all():
        return None
    return (m + m.conj().T) / 2.0


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
    """Whether ``a`` is finite and its Hermitian part has no eigenvalue below ``-TOL``.

    One Cholesky factorization of the Hermitian part plus ``TOL * I`` (the scale of a
    state is 1); being backward stable on semidefinite matrices (Higham 1990), it
    passes rank-deficient states.
    """
    h = _hermitian_part(a)
    return h is not None and _cholesky_succeeds(h + TOL * np.eye(len(h)))
