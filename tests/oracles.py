"""Slow, literal routes kept as test oracles for the FFT core.

Each function is the direct sum its library counterpart reorganises:
the displacement tensor with the einsum-built phase-point operators, the
einsum Wigner function, quantization and symbol, the double loop of the
phase-basis inversion, the shift-power loop of the unimodular shortcut,
the point sum of a line projector, the dyad sum of a half-integer
phase-point operator, the operator sum of the half-integer
reconstruction and the point loops of both relation transforms.  They
cost O(dim**4) to O(dim**6) and are meant for small grids only.  The
file writers at the end are the ``json.dump`` and per-value CSV forms
whose output the streaming writers must reproduce byte for byte.
"""

from __future__ import annotations

import json

import numpy as np

import gridwigner as gw


def fourier_factors(grid):
    """``E[k, m] = exp(-i*k*phi_m)`` and ``F[l, n] = exp(-2*pi*i*l*n/dim)``."""
    idx = np.arange(grid.dim)
    e = np.exp(-1j * np.outer(idx, grid.phis))
    f = np.exp(-2j * np.pi * np.outer(idx, idx) / grid.dim)
    return e, f


def displacement_tensor(grid):
    """``dtensor[k, l] = D(k, l)`` for ``0 <= k, l < dim``, from powers of U."""
    d = grid.dim
    upow = np.empty((d, d, d), dtype=complex)
    upow[0] = np.eye(d)
    u = gw.u_op(grid)
    for k in range(1, d):
        upow[k] = upow[k - 1] @ u
    idx = np.arange(d)
    vph = np.exp(2j * np.pi * np.outer(idx, idx) / d)  # vph[l, b]
    pref = np.exp(-1j * np.pi * np.outer(idx, idx) / d)  # pref[k, l]
    return pref[:, :, None, None] * upow[:, None, :, :] * vph[None, :, None, :]


def omega(grid, kernel):
    """Phase-point operators as the kernel-weighted displacement einsum."""
    e, f = fourier_factors(grid)
    return np.einsum(
        "kl,klab,km,ln->mnab", kernel.values, displacement_tensor(grid), e, f, optimize=True
    ) / grid.dim


def wigner(grid, kernel, rho):
    """``trace(rho omega[m, n]) / dim``, imaginary part kept."""
    return np.einsum("ab,mnba->mn", rho, omega(grid, kernel)) / grid.dim


def quantize(grid, kernel, values):
    return np.einsum("mn,mnab->ab", values, omega(grid, kernel)) / grid.dim


def symbol(grid, kernel, op):
    """Displacement traces of ``op`` divided by the kernel, Fourier-summed."""
    t = np.einsum("ab,klab->kl", op, displacement_tensor(grid).conj())
    e, f = fourier_factors(grid)
    return np.einsum("kl,km,ln->mn", t / kernel.values, e.conj(), f.conj()) / grid.dim


def phase_matrix_elements(w, kernel):
    """Upper triangle by the pair-by-pair kernel division, lower by conjugation."""
    d = w.dim
    idx = np.arange(d)
    dft = np.exp(2j * np.pi * np.outer(idx, idx) / d)
    s = dft @ w.values @ dft.T
    elements = np.zeros((d, d), dtype=complex)
    for r in range(d):
        for rp in range(r + 1):
            l = r - rp
            k_phase = np.exp(-1j * np.pi * idx * (r + rp) / d)
            elements[rp, r] = np.sum(k_phase * s[:, l] / kernel.values[:, l]) / d
    lower = np.tril_indices(d, -1)
    elements[lower] = elements.T[lower].conj()
    np.fill_diagonal(elements, np.diagonal(elements).real)
    return elements


def reconstruct(w, kernel):
    p = gw.phase_basis(w.grid)
    return p @ phase_matrix_elements(w, kernel) @ p.conj().T


def reconstruct_unimodular(w, kernel):
    """``sum_{m,n} W[m, n] omega[m, n]`` through running powers of U."""
    grid = w.grid
    d = grid.dim
    e, f = fourier_factors(grid)
    coeffs = kernel.values * (e @ w.values @ f.T) / d
    idx = np.arange(d)
    u = gw.u_op(grid)
    rho = np.zeros((d, d), dtype=complex)
    uk = np.eye(d, dtype=complex)
    for k in range(d):
        pref = np.exp(-1j * np.pi * k * idx / d) * coeffs[k]
        rho += uk * (np.exp(2j * np.pi * np.outer(idx, idx) / d) @ pref)[None, :]
        uk = uk @ u
    return rho


def line_projector(grid, kernel, line):
    """Average of the oracle phase-point operators over the line's points."""
    om = omega(grid, kernel)
    return sum(om[m, n] for m, n in gw.line_points(line)) / grid.dim


def leonhardt_phase_point_op(N, phi0, jm, jn):
    """Half-step sum of ``4N`` phase dyads, one outer product each."""
    d = 2 * N
    acc = np.zeros((d, d), dtype=complex)
    for jp in range(-2 * N, 2 * N):
        phase = np.exp(-1j * np.pi * jp * jn / d)
        acc += phase * np.outer(
            gw.half_phase_ket(d, phi0, jm + jp), gw.half_phase_ket(d, phi0, jm - jp).conj()
        )
    return acc / 2.0


def leonhardt_reconstruct(w):
    """Table-weighted sum of the half-integer phase-point operators."""
    N = w.n_half
    rho = np.zeros((2 * N, 2 * N), dtype=complex)
    for jm in range(4 * N):
        for jn in range(4 * N):
            rho += w.values[jm, jn] * gw.leonhardt_phase_point_op(N, w.phi0, jm, jn)
    return rho


def relate_odd(values):
    """Cosine average ``sum cos(4*pi*(m - a)*(n - b)/d) * W[a, b] / d``, point by point."""
    d = values.shape[0]
    idx = np.arange(d)
    out = np.empty((d, d))
    for m in range(d):
        for n in range(d):
            ang = 4.0 * np.pi * np.outer(m - idx, n - idx) / d
            out[m, n] = np.sum(np.cos(ang) * values) / d
    return out


def relate_even(values, eps):
    """Shifted-cosine half-step average onto the integer grid, point by point."""
    d = values.shape[0] // 2
    jidx = np.arange(2 * d)
    out = np.empty((d, d))
    for m in range(d):
        for n in range(d):
            ang = np.pi * np.outer(2 * m - jidx, 2 * n - jidx) / d - eps
            out[m, n] = np.sum(np.cos(ang) * values) / (d * np.cos(eps))
    return out


def random_kernel(d, rng, unimodular=False):
    """A valid kernel built from the pairing rule, moduli in [0.5, 2].

    Edge lines are ones; each interior entry ``K[k, l]`` is random and its
    partner is ``K[d-k, d-l] = (-1)**(d+k+l) * conj(K[k, l])``.  The
    self-paired centre of an even grid gets a real value.
    """
    k = np.ones((d, d), dtype=complex)
    for a in range(1, d):
        for b in range(1, d):
            pa, pb = d - a, d - b
            if (pa, pb) < (a, b):
                continue
            r = 1.0 if unimodular else rng.uniform(0.5, 2.0)
            if (pa, pb) == (a, b):
                k[a, b] = r * rng.choice((-1.0, 1.0))
                continue
            z = r * np.exp(2j * np.pi * rng.uniform())
            k[a, b] = z
            k[pa, pb] = (-1.0) ** (d + a + b) * np.conj(z)
    kernel = gw.kernel_from_table(k)
    assert gw.validate(kernel).valid
    return kernel


def save_density_json(rho, path):
    r = np.asarray(rho, dtype=complex)
    obj = {"dim": r.shape[0], "matrix": [[[z.real, z.imag] for z in row] for row in r]}
    with open(path, "w") as fh:
        json.dump(obj, fh)


def save_kernel(kernel, path):
    obj = {"dim": kernel.dim, "values": [[[z.real, z.imag] for z in row] for row in kernel.values]}
    with open(path, "w") as fh:
        json.dump(obj, fh)


def wigner_to_json(w, path):
    obj = {"dim": w.dim, "phi0": w.grid.phi0, "kernel": w.kernel_label, "values": w.values.tolist()}
    if w.epsilon is not None:
        obj["epsilon"] = w.epsilon
    with open(path, "w") as fh:
        json.dump(obj, fh)


def halfgrid_to_json(w, path):
    obj = {"dim": w.dim, "phi0": w.phi0, "kernel": "leonhardt", "values": w.values.tolist()}
    with open(path, "w") as fh:
        json.dump(obj, fh)


def wigner_to_csv(w, path):
    phis = w.grid.phis
    with open(path, "w") as fh:
        fh.write("m,n,phi,value\n")
        for m in range(w.dim):
            for n in range(w.dim):
                fh.write(f"{m},{n},{phis[m]:.17g},{w.values[m, n]:.17g}\n")
