"""Dense complex linear algebra helpers shared by the whole package.

Operators are plain square complex numpy arrays and kets are 1-D complex
arrays.  Grids of interest stay below a few hundred points per axis, so
dense storage and raw double precision are used throughout.
"""

from __future__ import annotations

import numpy as np

#: Global tolerance for equality, Hermiticity and unitarity checks.
TOL = 1e-10


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a square complex matrix."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def as_vector(v) -> np.ndarray:
    """Coerce ``v`` to a 1-D complex vector."""
    u = np.asarray(v, dtype=complex)
    if u.ndim != 1:
        raise ValueError(f"expected a vector, got shape {u.shape}")
    return u


def _same_shape(a, b):
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")


def matmul(a, b) -> np.ndarray:
    """Product of two square matrices of equal dimension."""
    a, b = as_matrix(a), as_matrix(b)
    _same_shape(a, b)
    return a @ b


def adjoint(a) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(a).conj().T


def trace(a) -> complex:
    """Sum of the diagonal entries."""
    return complex(np.trace(as_matrix(a)))


def outer(u, v) -> np.ndarray:
    """Dyad |u><v|, entries ``u[i] * conj(v[j])``."""
    u, v = as_vector(u), as_vector(v)
    _same_shape(u, v)
    return np.outer(u, v.conj())


def frob_dist(a, b) -> float:
    """Frobenius norm of ``a - b``; the library-wide equality metric."""
    a, b = as_matrix(a), as_matrix(b)
    _same_shape(a, b)
    return float(np.linalg.norm(a - b))


def is_hermitian(a, tol: float = TOL) -> bool:
    a = as_matrix(a)
    return frob_dist(a, adjoint(a)) <= tol


def is_unitary(a, tol: float = TOL) -> bool:
    a = as_matrix(a)
    return frob_dist(a @ a.conj().T, np.eye(a.shape[0])) <= tol


def min_diag_pivot(a) -> float:
    """Smallest diagonal pivot met while eliminating a Hermitian matrix.

    Runs diagonal-pivoted symmetric (Cholesky-style) elimination.  All
    pivots of a positive semidefinite matrix are nonnegative up to
    roundoff, so a return value below roughly ``-1e-8`` rules PSD out.
    A pivot within ``1e-14`` times the largest entry counts as zero, and
    the block left at that point must vanish as well.  No
    eigendecomposition is involved.
    """
    m = as_matrix(a).copy()
    tiny = 1e-14 * float(np.max(np.abs(m), initial=0.0))
    smallest = np.inf
    for j in range(m.shape[0]):
        rest = m[j:, j:]  # view of the block not yet eliminated
        diag = rest.diagonal().real
        i = int(np.argmax(diag))
        pivot = float(diag[i])
        if pivot <= tiny:
            # No usable pivot left.  A PSD remainder then vanishes up to
            # roundoff (|m_ij|**2 <= m_ii m_jj); an off-diagonal entry x
            # bounds its smallest eigenvalue from above by pivot - |x|.
            off = float(np.max(np.abs(rest - np.diag(rest.diagonal()))))
            return float(min(smallest, diag.min(), pivot - off))
        smallest = min(smallest, pivot)
        if i:  # move the pivot to the front of the block
            rest[[0, i]] = rest[[i, 0]]
            rest[:, [0, i]] = rest[:, [i, 0]]
        col = rest[1:, 0]
        rest[1:, 1:] -= np.outer(col, col.conj() / pivot)
    return float(smallest)


def is_positive_semidefinite(a, slack: float = 1e-8) -> bool:
    """PSD check with tolerance ``-slack`` on the smallest pivot."""
    return min_diag_pivot(a) >= -slack
