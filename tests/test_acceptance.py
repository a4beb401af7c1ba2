"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failing run) and asserts the criterion.
"""

import math

import numpy as np
import pytest

import gridwigner as gw
import oracles
from conftest import random_complex


def report(ok: bool, label: str):
    print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'}: {label}")
    assert ok, label


def qubit_formula(a1, a2, a3, eps, phi0):
    t = np.tan(eps)
    c, s = np.cos(phi0), np.sin(phi0)
    return np.array(
        [
            [
                1 + (a1 + a2 * t) * c + (a2 - a1 * t) * s + a3,
                1 + (a1 - a2 * t) * c + (a2 + a1 * t) * s - a3,
            ],
            [
                1 - (a1 + a2 * t) * c - (a2 - a1 * t) * s + a3,
                1 - (a1 - a2 * t) * c - (a2 + a1 * t) * s - a3,
            ],
        ]
    ) / 4.0


def builtin_kernels_for(dim):
    if dim % 2:
        n = (dim - 1) // 2
        return [gw.symmetric_kernel(n), gw.wootters_kernel(n)]
    return [gw.almost_symmetric_kernel(dim // 2)]


def test_criterion_1_qubit_wigner_values(rng):
    q = gw.build_quantizer(
        gw.PhaseGrid(2, 0.0), gw.almost_symmetric_kernel(1, np.pi / 4)
    )
    worst = 0.0
    for _ in range(100):
        a = rng.standard_normal(3)
        a *= rng.uniform(0, 1) / np.linalg.norm(a)
        w = gw.wigner(q, gw.qubit_state(*a))
        worst = max(worst, np.max(np.abs(w.values - qubit_formula(*a, np.pi / 4, 0.0))))
    w_z = gw.wigner(q, gw.qubit_state(0, 0, 1))
    exact = np.max(np.abs(w_z.values - np.array([[0.5, 0.0], [0.5, 0.0]])))
    report(
        worst <= 1e-10 and exact <= 1e-12,
        f"qubit Wigner values match the closed form "
        f"(max dev {worst:.2e}; z-pole case dev {exact:.2e})",
    )


def test_criterion_2_quantizer_identity_suite():
    worst_core = 0.0
    ok = True
    for dim in (3, 5, 7, 2, 4, 6):
        for kernel in builtin_kernels_for(dim):
            q = gw.build_quantizer(gw.PhaseGrid(dim, 0.0), kernel)
            rep = gw.verify_quantizer(q)
            core = max(
                rep.hermiticity_dev,
                rep.trace_dev,
                rep.phase_sum_dev,
                rep.number_sum_dev,
                rep.completeness_dev,
                rep.overlap_dev,
            )
            worst_core = max(worst_core, core)
            ok &= core <= 1e-10
            if kernel.label == "wootters":
                ok &= rep.orthogonality_dev <= 1e-10
            elif kernel.label == "symmetric" and dim >= 3:
                ok &= rep.orthogonality_dev > 1e-3
    report(
        ok,
        f"phase-point identities hold at dims 2-7 (worst core dev {worst_core:.2e}); "
        "overlap orthogonality holds for the sign kernel and fails for the cosine kernel",
    )


def test_criterion_3_ordering(rng):
    q7 = gw.build_quantizer(gw.PhaseGrid(7, 0.0), gw.symmetric_kernel(3))
    worst = 0.0
    for _ in range(20):
        repc = gw.ordering_check(q7, random_complex(rng, 7), random_complex(rng, 7))
        worst = max(worst, repc.deviation)
    q4 = gw.build_quantizer(gw.PhaseGrid(4, 0.0), gw.almost_symmetric_kernel(2))
    worst4 = 0.0
    for _ in range(20):
        repc = gw.ordering_check(q4, random_complex(rng, 4), random_complex(rng, 4))
        worst4 = max(worst4, repc.deviation)
    report(
        worst <= 1e-10 and worst4 <= 1e-10,
        f"symmetric ordering at dim 7 (dev {worst:.2e}) and almost-symmetric "
        f"ordering with commutator term at dim 4 (dev {worst4:.2e})",
    )


def test_criterion_4_round_trips(rng):
    worst_symbol = 0.0
    worst_state = 0.0
    for dim in (3, 5, 7, 2, 4, 6):
        for kernel in builtin_kernels_for(dim):
            q = gw.build_quantizer(gw.PhaseGrid(dim, 0.0), kernel)
            for _ in range(50):
                f = random_complex(rng, dim, dim)
                worst_symbol = max(
                    worst_symbol,
                    np.max(np.abs(gw.symbol(q, gw.quantize(q, f)) - f)),
                )
                rho = gw.random_density(dim, rng)
                rec = gw.reconstruct(gw.wigner(q, rho), kernel)
                worst_state = max(worst_state, np.max(np.abs(rec - rho)))
    worst_leon = 0.0
    for n_half in (1, 2):
        for _ in range(50):
            rho = gw.random_density(2 * n_half, rng)
            w = gw.leonhardt_wigner(n_half, 0.0, rho)
            worst_leon = max(
                worst_leon, np.max(np.abs(gw.leonhardt_reconstruct(w) - rho))
            )
    report(
        worst_symbol <= 1e-9 and worst_state <= 1e-9 and worst_leon <= 1e-9,
        f"round trips: symbol {worst_symbol:.2e}, state {worst_state:.2e}, "
        f"half-integer grid {worst_leon:.2e}",
    )


def test_criterion_5_displacement_algebra(rng):
    worst = 0.0
    for dim in (3, 4, 5):
        g = gw.PhaseGrid(dim, 0.0)
        ops = {(k, l): gw.displacement(g, k, l) for k in range(dim) for l in range(dim)}
        for (k, l), d_op in ops.items():
            worst = max(
                worst, np.max(np.abs(d_op.conj().T - gw.displacement(g, -k, -l)))
            )
            tr = np.trace(d_op)
            expected = dim if (k == 0 and l == 0) else 0.0
            worst = max(worst, abs(tr - expected))
            for (kp, lp), other in ops.items():
                tr2 = np.trace(d_op @ other.conj().T)
                expected2 = dim if (k, l) == (kp, lp) else 0.0
                worst = max(worst, abs(tr2 - expected2))
        for _ in range(10):
            k = int(rng.integers(-2 * dim, 2 * dim + 1))
            l = int(rng.integers(-2 * dim, 2 * dim + 1))
            worst = max(
                worst,
                np.max(
                    np.abs(
                        gw.displacement(g, k, l) - oracles.displacement_phase_form(g, k, l)
                    )
                ),
            )
    report(worst <= 1e-12, f"displacement algebra exact to 1e-12 (worst {worst:.2e})")


def test_criterion_6_line_projectors():
    worst = 0.0
    for dim in (3, 5):
        n_half = (dim - 1) // 2
        g = gw.PhaseGrid(dim, 0.0)
        q = gw.build_quantizer(g, gw.wootters_kernel(n_half))
        for n1 in range(dim):
            for n2 in range(dim):
                if n1 == 0 and n2 == 0:
                    continue
                if math.gcd(math.gcd(n1, n2), dim) > 1:
                    continue
                total = np.zeros((dim, dim), dtype=complex)
                for n3 in range(dim):
                    p = gw.line_projector(q, gw.Line(n1, n2, n3, dim))
                    worst = max(worst, gw.frob_dist(p @ p, p))
                    total += p
                worst = max(worst, gw.frob_dist(total, np.eye(dim)))
        for n3 in range(dim):
            pm = gw.phase_ket(g, n3)
            worst = max(
                worst,
                np.max(
                    np.abs(
                        gw.line_projector(q, gw.Line(1, 0, n3, dim))
                        - np.outer(pm, pm.conj())
                    )
                ),
            )
            en = gw.number_ket(g, n3)
            worst = max(
                worst,
                np.max(
                    np.abs(
                        gw.line_projector(q, gw.Line(0, 1, n3, dim))
                        - np.outer(en, en.conj())
                    )
                ),
            )
    q3 = gw.build_quantizer(gw.PhaseGrid(3, 0.0), gw.symmetric_kernel(1))
    p_tilted = gw.line_projector(q3, gw.Line(1, 1, 0, 3))
    tilted_defect = gw.frob_dist(p_tilted @ p_tilted, p_tilted)
    report(
        worst <= 1e-10 and tilted_defect > 1e-3,
        f"sign-kernel line projectors (worst dev {worst:.2e}); cosine-kernel "
        f"tilted line is non-projective (defect {tilted_defect:.2e})",
    )


def test_criterion_7_inter_kernel_relations(rng):
    worst_odd = 0.0
    for dim in (3, 5):
        g = gw.PhaseGrid(dim, 0.0)
        for _ in range(20):
            rho = gw.random_density(dim, rng)
            out = gw.relate_odd(oracles.wigner_wootters(g, rho))
            worst_odd = max(
                worst_odd,
                np.max(np.abs(out.values - oracles.wigner_symmetric(g, rho).values)),
            )
    worst_even = 0.0
    for n_half in (1, 3):  # pi/4 voids a kernel entry at dim 4, which relate_even refuses
        dim = 2 * n_half
        g = gw.PhaseGrid(dim, 0.0)
        for eps in (np.pi / 4, 1.0 / (2 * n_half)):
            for _ in range(10):
                rho = gw.random_density(dim, rng)
                out = gw.relate_even(gw.leonhardt_wigner(n_half, 0.0, rho), eps)
                direct = oracles.wigner_almost_symmetric(g, rho, eps)
                worst_even = max(worst_even, np.max(np.abs(out.values - direct.values)))
    report(
        worst_odd <= 1e-10 and worst_even <= 1e-10,
        f"inter-kernel relations exact (odd {worst_odd:.2e}, even {worst_even:.2e})",
    )


def test_criterion_8_continuum_convergence():
    rho = gw.superposition01()
    ok = True
    details = []
    for n in (0, 1):
        rep = gw.continuum_study(rho, "wootters", n, 0.0, [5, 10, 20, 40, 80])
        final = rep.rows[-1].abs_error
        ok &= final <= 1e-6 and rep.monotone()
        ok &= abs(rep.rows[-1].target - 1 / (4 * np.pi)) <= 1e-12
        details.append(f"sign-kernel n={n} err {final:.2e}")
    rep = gw.continuum_study(rho, "symmetric", 0, 0.0, [5, 10, 20, 40, 80])
    ok &= rep.rows[-1].abs_error <= 1e-10 and rep.monotone()
    ok &= abs(rep.rows[-1].target - 1 / (2 * np.pi)) <= 1e-12
    details.append(f"number-phase n=0 err {rep.rows[-1].abs_error:.2e}")
    # marginal contrast: the sign-kernel target level-sum stays flat in phi
    for phi in (0.0, 0.9, 2.2):
        swoot = sum(gw.wootters_target(rho, n, phi) for n in range(12))
        ssym = sum(gw.number_phase_target(rho, n, phi) for n in range(12))
        ok &= abs(swoot - 1 / (2 * np.pi)) <= 1e-12
        ok &= abs(ssym - gw.phase_density(rho, phi)) <= 1e-12
    ok &= abs(gw.phase_density(rho, 0.9) - 1 / (2 * np.pi)) > 1e-2
    report(ok, "continuum convergence and marginal contrast (" + "; ".join(details) + ")")


def test_criterion_9_marginals_finite_dimension(rng):
    worst = 0.0
    for dim in (2, 3, 4, 5, 6, 7):
        for kernel in builtin_kernels_for(dim):
            g = gw.PhaseGrid(dim, 0.0)
            q = gw.build_quantizer(g, kernel)
            p = gw.phase_basis(g)
            for _ in range(5):
                rho = gw.random_density(dim, rng)
                phase_m, number_m = gw.marginals(gw.wigner(q, rho))
                expected_phase = np.real(np.einsum("nm,nk,km->m", p.conj(), rho, p))
                worst = max(worst, np.max(np.abs(phase_m - expected_phase)))
                worst = max(worst, np.max(np.abs(number_m - np.real(np.diag(rho)))))
    report(
        worst <= 1e-10,
        f"both marginal identities hold for every kernel at dims 2-7 "
        f"(worst dev {worst:.2e})",
    )
