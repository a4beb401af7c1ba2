"""Plain-numpy input generation and correctness gate for the benchmark.

Nothing here imports ``gridwigner``: the gate must stay independent of
the library routes it checks, and the input files are written in the
documented JSON formats by this module so that set-up time does not
depend on the library's own writers.

Every ``check_*`` function returns ``None`` when the output is correct
and a one-line description of the first problem otherwise.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

#: Absolute tolerance on grid values, matrix entries and marginals.
TOL = 1e-9


# --- states and grids ---------------------------------------------------------


def random_state(d: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank density matrix: a Gram matrix mixed with 1/d.

    The admixture keeps the smallest eigenvalue well above the library's
    positivity slack at every benchmark size.
    """
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    g = a @ a.conj().T
    g = (g + g.conj().T) / 2.0
    rho = 0.9 * g / np.trace(g).real + 0.1 * np.eye(d) / d
    return (rho + rho.conj().T) / 2.0


def fock(d: int, n: int) -> np.ndarray:
    rho = np.zeros((d, d), dtype=complex)
    rho[n, n] = 1.0
    return rho


def phase_basis(d: int, phi0: float) -> np.ndarray:
    """``P[n, m] = <n|phi_m> = exp(i n phi_m) / sqrt(d)``, ``phi_m = phi0 + 2 pi m / d``."""
    phis = phi0 + 2.0 * np.pi * np.arange(d) / d
    return np.exp(1j * np.arange(d)[:, None] * phis[None, :]) / math.sqrt(d)


def phase_projector(d: int, phi0: float, m: int) -> np.ndarray:
    v = phase_basis(d, phi0)[:, m]
    return np.outer(v, v.conj())


def overlap_table(rho: np.ndarray, phi0: float) -> np.ndarray:
    """``z[m, n] = <n|rho|phi_m><phi_m|n>``."""
    p = phase_basis(rho.shape[0], phi0)
    return ((rho @ p) * p.conj()).T


def wootters_values(rho: np.ndarray, phi0: float) -> np.ndarray:
    """Sign-kernel Wigner table of an odd-dimension state.

    ``W[m, n] = (1/d) sum_a rho[a, b] exp(i (b - a) phi_m)`` with
    ``b = 2n - a mod d``.  For odd ``d`` the offsets ``b - a`` of one
    level are distinct mod ``d``, so each level is one inverse DFT.
    """
    d = rho.shape[0]
    a = np.arange(d)[None, :]
    n = np.arange(d)[:, None]
    b = (2 * n - a) % d
    coef = rho[a, b] * np.exp(1j * (b - a) * phi0)
    g = np.zeros((d, d), dtype=complex)
    g[n, (b - a) % d] = coef
    return np.fft.ifft(g, axis=1).T.real


def wigner_values(kernel: str, rho: np.ndarray, phi0: float, eps: float | None = None) -> np.ndarray:
    """Closed-form Wigner table for the three built-in kernel families."""
    if kernel == "symmetric":
        return overlap_table(rho, phi0).real
    if kernel == "almost-symmetric":
        return np.real(np.exp(1j * eps) * overlap_table(rho, phi0)) / math.cos(eps)
    if kernel == "wootters":
        return wootters_values(rho, phi0)
    raise ValueError(f"no closed form for kernel {kernel!r}")


def leonhardt_values(rho: np.ndarray, phi0: float) -> np.ndarray:
    """Half-integer-grid Wigner table (``4N x 4N``) of a dimension-``2N`` state.

    ``W[jm, jn] = (1/4N) sum rho[a, b] exp(i (b - a) theta_jm)`` over
    ``a + b = jn``, with angles ``theta_j = phi0 + pi j / (2N)``.
    """
    d = rho.shape[0]
    thetas = phi0 + np.pi * np.arange(2 * d) / d
    w = np.zeros((2 * d, 2 * d), dtype=complex)
    for jn in range(2 * d):
        for a in range(max(0, jn - d + 1), min(jn, d - 1) + 1):
            b = jn - a
            w[:, jn] += rho[a, b] * np.exp(1j * (b - a) * thetas)
    return w.real / (2 * d)


# --- file formats -------------------------------------------------------------


def write_state(path, rho: np.ndarray) -> None:
    obj = {"dim": rho.shape[0], "matrix": [[[z.real, z.imag] for z in row] for row in rho.tolist()]}
    with open(path, "w") as fh:
        json.dump(obj, fh)


def read_state(path) -> np.ndarray:
    with open(path) as fh:
        obj = json.load(fh)
    m = np.array(obj["matrix"], dtype=float)
    return m[..., 0] + 1j * m[..., 1]


def write_grid(path, kernel: str, phi0: float, values: np.ndarray, dim: int, eps: float | None = None) -> None:
    obj = {"dim": dim, "phi0": phi0, "kernel": kernel, "values": values.tolist()}
    if eps is not None:
        obj["epsilon"] = eps
    with open(path, "w") as fh:
        json.dump(obj, fh)


def read_grid(path) -> tuple[dict, np.ndarray]:
    """Header fields and value table of a Wigner grid file (JSON or CSV)."""
    if str(path).endswith(".csv"):
        with open(path) as fh:
            rows = list(csv.reader(fh))
        if rows[0] != ["m", "n", "phi", "value"]:
            raise ValueError(f"unexpected CSV header {rows[0]}")
        body = np.array(rows[1:], dtype=float)
        d = int(round(math.sqrt(len(body))))
        values = np.full((d, d), np.nan)
        values[body[:, 0].astype(int), body[:, 1].astype(int)] = body[:, 3]
        return {"dim": d}, values
    with open(path) as fh:
        obj = json.load(fh)
    return obj, np.array(obj["values"], dtype=float)


# --- checks -------------------------------------------------------------------


def _dev(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def check_wigner(values: np.ndarray, rho: np.ndarray, phi0: float, kernel: str, eps: float | None = None):
    """Normalization, both marginals and the closed form of one Wigner table."""
    d = rho.shape[0]
    if values.shape != (d, d) or not np.all(np.isfinite(values)):
        return f"table has shape {values.shape} or non-finite entries"
    if abs(values.sum() - 1.0) > TOL:
        return f"normalization off by {abs(values.sum() - 1.0):.3e}"
    p = phase_basis(d, phi0)
    phase_true = np.real(np.einsum("nm,nk,km->m", p.conj(), rho, p))
    if _dev(values.sum(axis=1), phase_true) > TOL:
        return f"phase marginal off by {_dev(values.sum(axis=1), phase_true):.3e}"
    if _dev(values.sum(axis=0), np.diagonal(rho).real) > TOL:
        return f"number marginal off by {_dev(values.sum(axis=0), np.diagonal(rho).real):.3e}"
    dev = _dev(values, wigner_values(kernel, rho, phi0, eps))
    if dev > TOL:
        return f"{kernel} closed form off by {dev:.3e}"
    return None


def check_close(got, expected, what: str):
    got = np.asarray(got)
    if got.shape != np.shape(expected):
        return f"{what}: shape {got.shape}, expected {np.shape(expected)}"
    dev = _dev(got, expected)
    return None if dev <= TOL else f"{what} off by {dev:.3e}"


def check_projector(op: np.ndarray, rank: int):
    """Hermitian, idempotent, and of the given trace."""
    if _dev(op, op.conj().T) > TOL:
        return "line projector is not Hermitian"
    if _dev(op @ op, op) > TOL:
        return "line projector is not idempotent"
    if abs(np.trace(op) - rank) > TOL:
        return f"line projector trace {np.trace(op).real:.6f}, expected {rank}"
    return None


def check_table(path, n_rows: int):
    """A converge CSV: the expected number of rows, every number finite."""
    with open(path) as fh:
        rows = list(csv.reader(fh))
    if len(rows) != n_rows + 1:
        return f"converge table has {len(rows) - 1} rows, expected {n_rows}"
    body = np.array(rows[1:], dtype=float)
    if not np.all(np.isfinite(body)):
        return "converge table has non-finite entries"
    return None
