"""Slow, literal routes kept as test oracles for the FFT core.

Each function is the direct sum its library counterpart reorganises:
the displacement tensor with the einsum-built phase-point operators, the
einsum Wigner function, quantization and symbol, the double loop of the
phase-basis inversion with the dense rotation back to the number basis,
the dense ``rho @ P`` table of phase overlaps, the shift-power loop of the
unimodular shortcut,
the point sum of a line projector, the code walk that labels the line
families, the explicit ``P @ P - P`` of a family's projector, the explicit
axis line sums against their basis projectors, the dense identity suite over the
whole operator table with the per-labelling line loop, the real Gram
product of the overlaps of every pair of operators, the overlap and
displacement routes through that table, the half-index phase vectors and
their dyad sum (a half-integer phase-point operator, which the library
never builds), the operator sum of the half-integer reconstruction and
the point loops of both relation transforms.  They
cost O(dim**4) to O(dim**6) and are meant for small grids only.
``relate_ratio`` keeps the kernel-ratio formula in Fourier space that
``relate`` replaced by the inverse map followed by the forward map.  The
pivot loop of diagonal-pivoted elimination is the positivity check that
the Cholesky and eigenvalue routes replaced, and the density check through
the adjoint, Hermiticity and PSD predicates is the one-pass
``check_density``'s reference, and so is the route it replaced: the norm of
``r - r^+``, ``np.trace`` and the Cholesky of the signed Hermitian average
shifted by its own size; the unitarity predicate checks the clock,
shift and displacement operators.  The continuum sweep that builds a whole
table per grid size checks the point evaluation.  The
closed forms are second constructions of library objects: the dense
products of a phase-operator function, the spectral shift unitary, the
dyad sums of the displacement, of the sign-kernel phase-point operator
and of the symmetric and almost-symmetric ones, the sign kernel's matrix
elements, the displacement without its reference angle phase, the
phase-vector and operator-trace half-integer Wigner tables, the closed
inversion of the symmetric kernel (an O(dim**4) loop), the point loop of
``line_points``, the closed-form Wigner maps of the three built-in
kernels (phase overlaps and anti-diagonal sums) and the cosine
convolution of the odd relation.  The file writers at the end are
the ``json.dump`` and per-value CSV forms whose output the streaming
writers must reproduce byte for byte.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

import gridwigner as gw
from gridwigner import linalg
from gridwigner.phasespace import _angles
from gridwigner.wigner import _real_or_raise


def fourier_factors(grid):
    """``E[k, m] = exp(-i*k*phi_m)`` and ``F[l, n] = exp(-2*pi*i*l*n/dim)``; the
    exponents are integer multiples of ``phi_m``, taken at the reduced angle."""
    idx = np.arange(grid.dim)
    e = np.exp(-1j * np.outer(idx, _angles(grid, idx)))
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


def to_number_basis(grid, elements):
    """The dense rotation ``P @ elements @ P^H`` from the phase basis."""
    p = gw.phase_basis(grid)
    return p @ elements @ p.conj().T


def reconstruct(w, kernel):
    return to_number_basis(w.grid, phase_matrix_elements(w, kernel))


def phase_overlap_table(grid, rho):
    """``z[m, n] = <n|rho|phi_m><phi_m|n>`` from the dense product ``rho @ P``."""
    p = gw.phase_basis(grid)
    return ((np.asarray(rho, dtype=complex) @ p) * p.conj()).T


def wigner_symmetric(grid, rho):
    """Closed form of the symmetric-kernel Wigner function: ``Re z``."""
    return gw.WignerGrid(grid=grid, kernel_label="symmetric", values=phase_overlap_table(grid, rho).real)


def wigner_almost_symmetric(grid, rho, eps):
    """Closed form of the even-dimension skewed Wigner function:
    ``Re(exp(i*eps) * z) / cos(eps)``."""
    vals = np.real(np.exp(1j * eps) * phase_overlap_table(grid, rho)) / np.cos(eps)
    return gw.WignerGrid(grid=grid, kernel_label="almost-symmetric", values=vals, epsilon=float(eps))


def wigner_wootters(grid, rho):
    """Closed form of the sign-kernel Wigner function (odd dimensions).

    Sums the state's anti-diagonals: the pair ``(n', n'')`` contributes
    at level ``n`` when ``n' + n''`` is congruent to ``2n`` mod dim.
    """
    d = grid.dim
    if d % 2 == 0:
        raise ValueError("sign kernel requires an odd dimension")
    r = np.asarray(rho, dtype=complex)
    a = np.arange(d)
    b = (2 * a[:, None] - a) % d  # b[n, a]: the partner of a at level n
    # the offsets b - a of one level are distinct mod odd d: one inverse DFT
    g = np.zeros((d, d), dtype=complex)
    g[a[:, None], (b - a) % d] = r[a, b] * np.exp(1j * (b - a) * grid.phi0_reduced)
    return gw.WignerGrid(grid=grid, kernel_label="wootters", values=_real_or_raise(np.fft.ifft(g).T))


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
    return sum(om[m, n] for m, n in line_points(line)) / grid.dim


def line_families(dim):
    """Direction labels ``(n1, n2)`` of the parallel line families, by walking the
    codes ``n1*dim + n2`` in ascending order: an open code is the smallest of its
    family, whose unit multiples are then closed at once."""
    n1, n2 = np.divmod(np.arange(dim * dim), dim)
    is_open = np.gcd(np.gcd(n1, n2), dim) == 1
    c = np.arange(1, dim + 1)
    units = c[np.gcd(c, dim) == 1]
    labels = []
    code = 0
    while is_open[code:].any():
        code += int(np.argmax(is_open[code:]))
        labels.append(code)
        is_open[(units * n1[code] % dim) * dim + units * n2[code] % dim] = False
    return n1[labels], n2[labels]


def origin_line_sum(q, n1, n2):
    """``quantize`` of the indicator of the line ``n1*m + n2*n = 0 (mod dim)``: the
    line sum by its definition, at any parity (and for the family ``(0, 0)``, the whole grid)."""
    idx = np.arange(q.grid.dim)
    return gw.quantize(q, ((n1 * idx[:, None] + n2 * idx) % q.grid.dim == 0).astype(float))


def axis_sum_devs(q):
    """``(phase, number)``: Frobenius distances of the explicit line sums at ``m = 0``
    and ``n = 0`` from ``|phi_0><phi_0|`` and ``|0><0|``."""
    ket = gw.phase_ket(q.grid, 0)
    eye = np.eye(q.grid.dim)
    phase = gw.frob_dist(origin_line_sum(q, 1, 0), np.outer(ket, ket.conj()))
    return phase, gw.frob_dist(origin_line_sum(q, 0, 1), eye[:, :1] * eye[0])


def line_projectivity(q, n1, n2):
    """``||P @ P - P||_F`` of the family's line through the origin, from its explicit
    projector :func:`origin_line_sum` (which also admits the one family ``(0, 0)`` of
    ``dim = 1``): O(dim**3)."""
    p = origin_line_sum(q, n1, n2)
    return float(np.linalg.norm(p @ p - p))


def symbol_via_overlaps(q, op):
    """Symbol from the phase-point-operator overlaps, divided by ``|K|**2``."""
    g = np.einsum("ab,mnba->mn", np.asarray(op, dtype=complex), q.omega)
    return np.fft.ifft2(np.fft.fft2(g) / np.abs(q.kernel.values) ** 2)


def symbol_unimodular(q, op):
    """Plain overlap traces: the symbol of a unimodular kernel."""
    if not gw.is_unimodular(q.kernel):
        raise ValueError("shortcut requires a unimodular kernel")
    return np.einsum("ab,mnba->mn", np.asarray(op, dtype=complex), q.omega)


def displacement_from_quantizer(q, k, l):
    """``D(k, l)`` from the kernel-weighted Fourier sum of the operator table."""
    d = q.grid.dim
    if not (0 <= k < d and 0 <= l < d):
        raise ValueError("indices must lie in the principal range")
    e, f = fourier_factors(q.grid)
    acc = np.einsum("m,n,mnab->ab", e[k].conj(), f[l].conj(), q.omega)
    return acc / (d * q.kernel.values[k, l])


def _max_frob(a, b):
    return float(np.max(np.linalg.norm(a - b, axis=(-2, -1))))


def verify_dense(q, lines=False):
    """Every identity deviation over the whole ``dim**4`` operator table.

    The complex ``dim**2 x dim**2`` overlap product against the einsum of
    the predicted overlaps, O(dim**6); ``overlap_imag`` is the largest
    imaginary part of that product, zero but for roundoff.  With ``lines``, also the line
    checks: ``P @ P - P`` per projector of each family (smallest label
    among its unit multiples) and the family sum once per labelling.
    """
    d = q.grid.dim
    omega = q.omega
    out = {
        "hermiticity_dev": _max_frob(omega, omega.conj().swapaxes(-1, -2)),
        "trace_dev": float(np.max(np.abs(np.trace(omega, axis1=-2, axis2=-1) - 1.0))),
    }
    p = gw.phase_basis(q.grid).T  # row m is |phi_m>
    out["phase_sum_dev"] = _max_frob(omega.sum(axis=1) / d, p[:, :, None] * p.conj()[:, None, :])
    eye = np.eye(d)
    out["number_sum_dev"] = _max_frob(omega.sum(axis=0) / d, eye[:, :, None] * eye[:, None, :])
    out["completeness_dev"] = float(gw.frob_dist(omega.sum(axis=(0, 1)) / d, eye))
    flat = omega.reshape(d * d, d * d)
    overlaps = (flat @ omega.swapaxes(-1, -2).reshape(d * d, d * d).T).reshape((d,) * 4)
    e, f = fourier_factors(q.grid)
    w = np.abs(q.kernel.values) ** 2
    predicted = np.einsum("kl,km,kp,ln,lq->mnpq", w, e, e.conj(), f, f.conj(), optimize=True) / d
    out["overlap_dev"] = float(np.max(np.abs(overlaps - predicted)))
    out["overlap_imag"] = float(np.max(np.abs(overlaps.imag)))
    delta = np.einsum("mp,nq->mnpq", eye, eye) * d
    out["orthogonality_dev"] = float(np.max(np.abs(overlaps - delta)))
    if lines:
        units = [c for c in range(1, d) if math.gcd(c, d) == 1]
        worst_p = worst_c = 0.0
        for n1 in range(d):
            for n2 in range(d):
                labels = [((c * n1) % d, (c * n2) % d) for c in units]
                if math.gcd(math.gcd(n1, n2), d) > 1 or min(labels) < (n1, n2):
                    continue
                projs = gw.family_projectors(q, n1, n2)
                worst_p = max(worst_p, float(np.max(np.linalg.norm(projs @ projs - projs, axis=(-2, -1)))))
                by_line = projs.transpose(1, 2, 0)
                for c in units:
                    total = np.take(by_line, np.arange(d) * pow(c, -1, d) % d, axis=-1).sum(-1)
                    worst_c = max(worst_c, gw.frob_dist(total, eye))
        out["projectivity_dev"] = worst_p
        out["line_completeness_dev"] = worst_c
    return out


def overlap_gram(q):
    """``(overlap_dev, orthogonality_dev)`` of every pair of operators on the grid,
    from the explicit real Gram product ``B @ B.T`` of the rows ``[Re Omega, Im
    Omega]``: O(dim**6).  Each operator is ``dim * quantize`` of its point."""
    d = q.grid.dim
    m, n = np.divmod(np.arange(d * d), d)
    points = np.zeros((len(m), d, d))
    points[np.arange(len(m)), m, n] = d
    ops = gw.quantize(q, points)
    rows = np.concatenate([ops.real, ops.imag], axis=1).reshape(len(m), -1)
    overlaps = rows @ rows.T
    predicted = np.fft.fft2(np.abs(q.kernel.values) ** 2) / d
    overlap_dev = float(np.max(np.abs(overlaps - predicted[(m[:, None] - m) % d, (n[:, None] - n) % d])))
    overlaps[np.diag_indices(len(m))] -= d
    return overlap_dev, float(np.max(np.abs(overlaps)))


@functools.lru_cache(maxsize=4096)
def half_phase_ket(dim, phi0, j2):
    """Phase-type unit vector for a doubled angle index ``j2``.

    Extends the grid phase kets to half-integer indices; for even ``j2``
    it coincides with the ordinary phase ket of index ``j2/2``.  The
    entries are integer multiples of the angle, so ``phi0`` enters reduced
    mod 2 pi.  Cached, as the dyad sums ask for each ket many times; every
    caller only reads it.
    """
    phi = math.remainder(phi0, 2 * math.pi) + np.pi * j2 / dim
    return np.exp(1j * phi * np.arange(dim)) / np.sqrt(dim)


def leonhardt_phase_point_op(N, phi0, jm, jn):
    """Half-step sum of ``4N`` phase dyads, one outer product each."""
    d = 2 * N
    acc = np.zeros((d, d), dtype=complex)
    for jp in range(-2 * N, 2 * N):
        phase = np.exp(-1j * np.pi * jp * jn / d)
        acc += phase * np.outer(half_phase_ket(d, phi0, jm + jp), half_phase_ket(d, phi0, jm - jp).conj())
    return acc / 2.0


def leonhardt_reconstruct(w):
    """Table-weighted sum of the half-integer phase-point operators."""
    N = w.n_half
    rho = np.zeros((2 * N, 2 * N), dtype=complex)
    for jm in range(4 * N):
        for jn in range(4 * N):
            rho += w.values[jm, jn] * leonhardt_phase_point_op(N, w.phi0, jm, jn)
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


def relate_ratio(values, k_from, k_to):
    """The kernel-ratio route of a relation between two kernel tables on one grid: ``Re fft2(ifft2(W) * K_to / K_from)``."""
    return np.fft.fft2(np.fft.ifft2(values) * (np.asarray(k_to) / np.asarray(k_from))).real


def relate_odd_convolution(values):
    """The same cosine average as one circular convolution, by FFT2."""
    d = values.shape[0]
    idx = np.arange(d)
    c = np.cos(4.0 * np.pi * (np.outer(idx, idx) % d) / d) / d
    return np.fft.irfft2(np.fft.rfft2(values) * np.fft.rfft2(c), s=values.shape)


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


def phase_function_op(grid, values):
    """Spectral function of the phase operator by the dense products ``P diag(values) P^H``."""
    p = gw.phase_basis(grid)
    return (p * np.asarray(values, dtype=complex)[None, :]) @ p.conj().T


def u_op_spectral(grid):
    """The shift unitary built spectrally from the phase basis."""
    return gw.phase_function_op(grid, np.exp(1j * _angles(grid, np.arange(grid.dim))))


def displacement_phase_form(grid, k, l):
    """Displacement operator assembled from phase-basis dyads."""
    d = grid.dim
    out = np.zeros((d, d), dtype=complex)
    for m in range(d):
        out += np.exp(1j * k * _angles(grid, m)) * np.outer(
            gw.phase_ket(grid, m + l), gw.phase_ket(grid, m).conj()
        )
    return np.exp(1j * np.pi * k * l / d) * out


def displacement_zero_phase(grid, k, l):
    """Displacement operator with the reference-angle phase stripped.

    Satisfies the exact power identity
    ``displacement_zero_phase(a*r, b*r) == displacement_zero_phase(a, b)**r``
    over the integers, which underpins the line-projector algebra.
    """
    return np.exp(-1j * k * grid.phi0_reduced) * gw.displacement(grid, k, l)


def symmetric_phase_point_op(grid, m, n):
    """``(dim/2) * (|phi_m><phi_m|n><n| + |n><n|phi_m><phi_m|)``."""
    pm = gw.phase_ket(grid, m)
    en = gw.number_ket(grid, n)
    half = np.outer(pm, pm.conj()) @ np.outer(en, en.conj())
    return grid.dim / 2.0 * (half + half.conj().T)


def almost_symmetric_phase_point_op(grid, m, n, eps):
    """The even-dimension skewed phase-point operator: the symmetrized dyad
    product plus ``i*tan(eps)`` times its commutator, both times ``dim/2``."""
    if grid.dim % 2:
        raise ValueError("almost-symmetric construction needs an even dimension")
    half_n = grid.dim // 2
    pm = gw.phase_ket(grid, m)
    en = gw.number_ket(grid, n)
    p = np.outer(pm, pm.conj()) @ np.outer(en, en.conj())
    pd = p.conj().T
    return half_n * (p + pd) + 1j * half_n * np.tan(eps) * (p - pd)


def wootters_matrix_element(grid, m, n, a, b):
    """Number-basis entry ``<a|Omega(phi_m, n)|b>`` of the sign-kernel
    phase-point operator: nonzero only when ``a + b`` is congruent to ``2n``."""
    if (a + b - 2 * n) % grid.dim != 0:
        return 0.0 + 0.0j
    return complex(np.exp(1j * (a - b) * _angles(grid, m)))


def wootters_omega(grid, m, n):
    """Sign-kernel phase-point operator as a sum of phase-basis dyads."""
    d = grid.dim
    half = (d - 1) // 2
    acc = np.zeros((d, d), dtype=complex)
    for p in range(-half, half + 1):
        acc += np.exp(-4j * np.pi * p * n / d) * np.outer(
            gw.phase_ket(grid, m + p), gw.phase_ket(grid, m - p).conj()
        )
    return acc


def line_points(line):
    """The grid points of a line, by a loop over every point."""
    d = line.dim
    return [
        (m, n)
        for m in range(d)
        for n in range(d)
        if (line.n1 * m + line.n2 * n - line.n3) % d == 0
    ]


def leonhardt_wigner_phase_form(N, phi0, rho):
    """Half-integer Wigner table from the extended half-index phase vectors.

    The half-odd offsets double-count the exact anti-diagonal sum, hence
    the period-averaged prefactor ``1/(8N)``.
    """
    d = 2 * N
    r = np.asarray(rho, dtype=complex)
    kets = [half_phase_ket(d, phi0, j2) for j2 in range(-4 * N, 8 * N)]
    raw = np.zeros((4 * N, 4 * N), dtype=complex)
    for jm in range(4 * N):
        for jn in range(4 * N):
            acc = 0.0 + 0.0j
            for jp in range(4 * N):
                left, right = kets[jm - jp + 4 * N], kets[jm + jp + 4 * N]
                acc += np.exp(-1j * np.pi * jp * jn / d) * (left.conj() @ r @ right)
            raw[jm, jn] = acc / (8 * N)
    return gw.HalfIntegerWignerGrid(n_half=N, phi0=phi0, values=_real_or_raise(raw))


def leonhardt_wigner_via_ops(N, phi0, rho):
    """Half-integer Wigner table as ``trace(rho A) / (4N)`` over the dyad-sum
    phase-point operators; the halved prefactor mirrors the weight-two
    identity resolution of the operator family."""
    r = np.asarray(rho, dtype=complex)
    raw = np.empty((4 * N, 4 * N), dtype=complex)
    for jm in range(4 * N):
        for jn in range(4 * N):
            raw[jm, jn] = np.trace(r @ leonhardt_phase_point_op(N, phi0, jm, jn)) / (4 * N)
    return gw.HalfIntegerWignerGrid(n_half=N, phi0=phi0, values=_real_or_raise(raw))


def phase_matrix_elements_symmetric(w):
    """Phase-basis elements by the closed inversion of the symmetric kernel.

    Uses the two-exponential expansion of the cosine kernel.  Near-zero
    denominators (possible only off the principal branch) fall back to
    the library inversion for that entry.
    """
    if w.kernel_label != "symmetric":
        raise ValueError("closed inversion applies to the symmetric kernel only")
    d = w.dim
    grid = w.grid
    half = (d - 1) // 2
    ks = np.arange(-half, half + 1)
    ekm = np.exp(1j * np.outer(ks, _angles(grid, np.arange(d))))  # ekm[k, m]
    generic = None
    elements = np.zeros((d, d), dtype=complex)
    for r in range(d):
        for rp in range(d):
            den = np.exp(1j * ks * _angles(grid, r)) + np.exp(1j * ks * _angles(grid, rp))
            if np.min(np.abs(den)) < 1e-9:
                if generic is None:
                    generic = phase_matrix_elements(w, gw.symmetric_kernel(half))
                elements[rp, r] = generic[rp, r]
                continue
            coef = (ekm / den[:, None]).sum(axis=0)  # over k, per m
            nphase = np.exp(1j * np.arange(d) * (_angles(grid, r) - _angles(grid, rp)))
            elements[rp, r] = 2.0 / d * np.sum(coef[:, None] * nphase[None, :] * w.values)
    return elements


def reconstruct_symmetric(w):
    """Closed-form reconstruction for the symmetric kernel, rotated densely."""
    return to_number_basis(w.grid, phase_matrix_elements_symmetric(w))


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
    kernel = gw.Kernel(k)
    assert gw.validate(kernel).valid
    return kernel


def adjoint(a) -> np.ndarray:
    """Conjugate transpose."""
    return linalg.as_matrix(a).conj().T


def is_hermitian(a) -> bool:
    return linalg.within(linalg.frob_dist(a, adjoint(a)))


def is_unitary(a) -> bool:
    a = linalg.as_matrix(a)
    return linalg.within(linalg.frob_dist(a @ a.conj().T, np.eye(a.shape[0])))


def check_density(rho):
    """``gw.check_density`` through the predicates, each coercing ``rho`` on its own."""
    r = np.asarray(rho, dtype=complex)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError(f"density operator must be square, got shape {r.shape}")
    if not np.isfinite(r).all():
        raise ValueError("density operator has non-finite entries")
    if not is_hermitian(r):
        raise ValueError("density operator is not Hermitian")
    if not linalg.within(abs(np.trace(r) - 1.0)):
        raise ValueError("density operator trace differs from 1")
    if not gw.is_positive_semidefinite(r):
        raise ValueError("density operator is not positive semidefinite")
    return r


def check_density_average(rho):
    """``gw.check_density`` before its one Hermitian sum: the Hermiticity distance from the adjoint,
    the trace by ``np.trace``, and the Cholesky of ``linalg._hermitian_average`` shifted by
    ``TOL * max(1, max |h|)``."""
    r = np.asarray(rho, dtype=complex)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError(f"density operator must be square, got shape {r.shape}")
    if not np.isfinite(r).all():
        raise ValueError("density operator has non-finite entries")
    adj = r.conj().T
    if not linalg.within(np.linalg.norm(r - adj)):
        raise ValueError("density operator is not Hermitian")
    if not linalg.within(abs(np.trace(r) - 1.0)):
        raise ValueError("density operator trace differs from 1")
    h = linalg._hermitian_average(r, adj)
    h.flat[:: len(h) + 1] += linalg.TOL * np.abs(h).max(initial=1.0)
    try:
        np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        raise ValueError("density operator is not positive semidefinite") from None
    return r


def validity_formulas(kernel) -> dict:
    """Each ``validate`` flag from its defining formula, entry by entry.  The pairing is measured
    on the scale ``max |K|``, NaN if an entry is NaN, which fails the pairing also at ``d = 1``."""
    v, d = kernel.values.tolist(), kernel.dim
    scale = float(np.max(np.abs(kernel.values)))
    pairing = [
        abs(v[k][l].conjugate() - (-1.0) ** (d + k + l) * v[d - k][d - l]) for k in range(1, d) for l in range(1, d)
    ]
    return {
        "nonvanishing": all(abs(z) > gw.kernels.ZERO_TOL for row in v for z in row),
        "hermitian_pairing": linalg.within(max(pairing, default=0.0), scale),
        "first_row_hermitian": all(linalg.within(abs(v[0][l].conjugate() - v[0][d - l])) for l in range(1, d)),
        "first_col_hermitian": all(linalg.within(abs(v[k][0].conjugate() - v[d - k][0])) for k in range(1, d)),
        "corner_real": linalg.within(abs(v[0][0].imag)),
        "first_col_unit": all(linalg.within(abs(v[k][0] - 1.0)) for k in range(d)),
        "first_row_unit": all(linalg.within(abs(v[0][l] - 1.0)) for l in range(d)),
    }


def min_diag_pivot(a) -> float:
    """Smallest diagonal pivot met while eliminating a Hermitian matrix.

    Runs diagonal-pivoted symmetric (Cholesky-style) elimination.  All
    pivots of a positive semidefinite matrix are nonnegative up to
    roundoff, so a return value below roughly ``-1e-8`` rules PSD out.
    A pivot within ``1e-14`` times the largest entry counts as zero, and
    the block left at that point must vanish as well.  No
    eigendecomposition is involved.
    """
    m = gw.linalg.as_matrix(a).copy()
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


def continuum_study_table(rho_small, kernel_family, n, phi, N_list, phi0=0.0):
    """``continuum_study`` read from the whole Wigner table of each padded state.

    Zero-pads the state into every grid dimension, builds the closed-form
    table (O(dim**3)) and reads entry ``[m*, n]`` at the grid angle
    nearest ``phi``.
    """
    r = gw.check_density(rho_small)
    rows = []
    for N in N_list:
        dim = 2 * N if kernel_family == "almost-symmetric" else 2 * N + 1
        grid = gw.PhaseGrid(dim, phi0)
        m_star = gw.tomography._nearest_grid_index(grid, phi)
        rho = np.zeros((dim, dim), dtype=complex)
        rho[: len(r), : len(r)] = r
        if kernel_family == "symmetric":
            w = wigner_symmetric(grid, rho)
            target = gw.number_phase_target(r, n, phi)
        elif kernel_family == "almost-symmetric":
            w = wigner_almost_symmetric(grid, rho, 1.0 / (2 * N))
            target = gw.number_phase_target(r, n, phi)
        else:
            w = wigner_wootters(grid, rho)
            target = gw.wootters_target(r, n, phi)
        scaled = dim / (2.0 * np.pi) * float(w.values[m_star, n])
        rows.append(gw.ConvergenceRow(int(N), dim, n, float(grid.phi(m_star)), scaled, target))
    return gw.ConvergenceReport(kernel_label=kernel_family, n=n, phi=phi, rows=rows)


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


def convergence_to_csv(report, path):
    with open(path, "w") as fh:
        fh.write("N,n,phi_grid,scaled_value,target,abs_error\n")
        for r in report.rows:
            fh.write(f"{r.N},{r.n},{r.phi_grid:.17g},{r.scaled_value:.17g},{r.target:.17g},{r.abs_error:.17g}\n")
