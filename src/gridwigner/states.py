"""Density-operator generators and JSON state files."""

from __future__ import annotations

import numpy as np

from ._jsonio import complex_table, integer, read_json, write_json
from .phasespace import PhaseGrid, _as_angle, _as_index, phase_ket
from .wigner import check_density

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def fock_state(dim: int, n: int) -> np.ndarray:
    """Pure number state |n><n| in the given dimension."""
    dim, n = _as_index(dim, "dimension", 1), _as_index(n, "number level")
    if not 0 <= n < dim:
        raise ValueError(f"number level {n} outside 0..{dim - 1}")
    rho = np.zeros((dim, dim), dtype=complex)
    rho[n, n] = 1.0
    return rho


def phase_state(dim: int, m: int, phi0: float = 0.0) -> np.ndarray:
    """Pure phase state |phi_m><phi_m| on the grid with angle phi0."""
    v = phase_ket(PhaseGrid(dim, phi0), m)
    return np.outer(v, v.conj())


def maximally_mixed(dim: int) -> np.ndarray:
    """The state 1/dim."""
    dim = _as_index(dim, "dimension", 1)
    return np.eye(dim, dtype=complex) / dim


def qubit_state(a1: float, a2: float, a3: float) -> np.ndarray:
    """Two-level state with the given Bloch vector."""
    a1, a2, a3 = (_as_angle(a, "Bloch component") for a in (a1, a2, a3))
    if not a1 * a1 + a2 * a2 + a3 * a3 <= 1.0 + 1e-12:  # a NaN component fails too
        raise ValueError("Bloch vector must be finite with length at most 1")
    rho = np.eye(2, dtype=complex)
    for a, s in zip((a1, a2, a3), PAULI):
        rho += a * s
    return rho / 2.0


def superposition01(dim: int = 2) -> np.ndarray:
    """Equal superposition of the two lowest number states, as a density matrix."""
    dim = _as_index(dim, "dimension")
    if dim < 2:
        raise ValueError("need dimension at least 2")
    rho = np.zeros((dim, dim), dtype=complex)
    rho[:2, :2] = 0.5
    return rho


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank density operator (Gram construction)."""
    dim = _as_index(dim, "dimension", 1)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def save_density_json(rho, path) -> None:
    """Write a density matrix, a non-empty square table, as JSON ``{"dim": d, "matrix": [[[re, im], ...]]}``."""
    r = np.asarray(rho, dtype=complex)
    if r.ndim != 2 or r.shape[0] != r.shape[1] or not r.size:
        raise ValueError(f"density matrix must be a non-empty square matrix, got shape {r.shape}")
    write_json(path, {"dim": r.shape[0], "matrix": r})


def load_density_json(path) -> np.ndarray:
    """Read and validate a density matrix from its JSON format."""
    obj = read_json(path, "matrix", 3)
    d = integer(obj["dim"], "density file dim")
    return check_density(complex_table(obj["matrix"], d, "density file matrix"))
