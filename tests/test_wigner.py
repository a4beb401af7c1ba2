"""Tests for Wigner grids, expectations, marginals and reconstruction."""

import numpy as np
import pytest

import gridwigner as gw
from conftest import random_complex


def qubit_wigner_formula(a1, a2, a3, eps, phi0):
    """Independent evaluation of the closed-form qubit Wigner values."""
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


def builtin_kernel(dim, eps=None):
    if dim % 2:
        return gw.symmetric_kernel((dim - 1) // 2)
    return gw.almost_symmetric_kernel(dim // 2, eps)


class TestWignerValues:
    def test_maximally_mixed_flat(self):
        for kernel in (
            gw.symmetric_kernel(2),
            gw.wootters_kernel(2),
        ):
            q = gw.build_quantizer(gw.PhaseGrid(5, 0.3), kernel)
            w = gw.wigner(q, gw.maximally_mixed(5))
            np.testing.assert_allclose(w.values, np.full((5, 5), 1 / 25), atol=1e-12)

    def test_fock_state_symmetric(self):
        q = gw.build_quantizer(gw.PhaseGrid(5, 0.7), gw.symmetric_kernel(2))
        w = gw.wigner(q, gw.fock_state(5, 2))
        expected = np.zeros((5, 5))
        expected[:, 2] = 1 / 5
        np.testing.assert_allclose(w.values, expected, atol=1e-12)

    def test_qubit_bloch_z(self):
        q = gw.build_quantizer(
            gw.PhaseGrid(2, 0.0), gw.almost_symmetric_kernel(1, np.pi / 4)
        )
        w = gw.wigner(q, gw.qubit_state(0, 0, 1))
        np.testing.assert_allclose(
            w.values, [[0.5, 0.0], [0.5, 0.0]], atol=1e-12
        )

    def test_qubit_random_bloch(self, rng):
        q = gw.build_quantizer(
            gw.PhaseGrid(2, 0.0), gw.almost_symmetric_kernel(1, np.pi / 4)
        )
        for _ in range(100):
            a = rng.standard_normal(3)
            a *= rng.uniform(0, 1) / np.linalg.norm(a)
            w = gw.wigner(q, gw.qubit_state(*a))
            np.testing.assert_allclose(
                w.values, qubit_wigner_formula(*a, np.pi / 4, 0.0), atol=1e-10
            )

    def test_wootters_antidiagonal_form(self, rng):
        g = gw.PhaseGrid(3, 0.5)
        q = gw.build_quantizer(g, gw.wootters_kernel(1))
        rho = gw.random_density(3, rng)
        np.testing.assert_allclose(
            gw.wigner_wootters(g, rho).values, gw.wigner(q, rho).values, atol=1e-10
        )

    def test_memory_light_route_agrees(self, rng):
        for dim, kernel in ((5, gw.wootters_kernel(2)), (4, gw.almost_symmetric_kernel(2))):
            g = gw.PhaseGrid(dim, 0.2)
            q = gw.build_quantizer(g, kernel)
            rho = gw.random_density(dim, rng)
            np.testing.assert_allclose(
                gw.wigner_grid(g, kernel, rho).values,
                gw.wigner(q, rho).values,
                atol=1e-12,
            )

    def test_closed_forms_agree(self, rng):
        g = gw.PhaseGrid(5, 0.4)
        rho = gw.random_density(5, rng)
        q = gw.build_quantizer(g, gw.symmetric_kernel(2))
        np.testing.assert_allclose(
            gw.wigner_symmetric(g, rho).values, gw.wigner(q, rho).values, atol=1e-12
        )
        g4 = gw.PhaseGrid(4, 0.4)
        rho4 = gw.random_density(4, rng)
        q4 = gw.build_quantizer(g4, gw.almost_symmetric_kernel(2, 0.25))
        np.testing.assert_allclose(
            gw.wigner_almost_symmetric(g4, rho4, 0.25).values,
            gw.wigner(q4, rho4).values,
            atol=1e-12,
        )

    def test_normalization_and_reality(self, rng):
        for dim, kernel in (
            (5, gw.symmetric_kernel(2)),
            (5, gw.wootters_kernel(2)),
            (6, gw.almost_symmetric_kernel(3)),
        ):
            q = gw.build_quantizer(gw.PhaseGrid(dim, 0.6), kernel)
            w = gw.wigner(q, gw.random_density(dim, rng))
            assert w.values.dtype == float
            assert w.values.sum() == pytest.approx(1, abs=1e-10)

    def test_linearity(self, rng):
        g = gw.PhaseGrid(5, 0.1)
        q = gw.build_quantizer(g, gw.symmetric_kernel(2))
        r1 = gw.random_density(5, rng)
        r2 = gw.random_density(5, rng)
        alpha = 0.3
        mixed = alpha * r1 + (1 - alpha) * r2
        np.testing.assert_allclose(
            gw.wigner(q, mixed).values,
            alpha * gw.wigner(q, r1).values + (1 - alpha) * gw.wigner(q, r2).values,
            atol=1e-12,
        )

    def test_invalid_state_rejected(self):
        q = gw.build_quantizer(gw.PhaseGrid(3), gw.symmetric_kernel(1))
        with pytest.raises(ValueError):
            gw.wigner(q, np.eye(3))  # trace 3


class TestCheckDensity:
    def test_rejects_state_with_negative_eigenvalue(self):
        # Hermitian, unit trace, eigenvalues (-1, 1, 1)
        with pytest.raises(ValueError, match="positive semidefinite"):
            gw.check_density([[1, 0, 0], [0, 0, 1], [0, 1, 0]])

    @pytest.mark.parametrize("phi0", [0.0, 0.37, 0.99])
    def test_accepts_rank_one_states_at_d129(self, phi0):
        for m in (0, 1, 64, 128):
            gw.check_density(gw.phase_state(129, m, phi0))
            gw.check_density(gw.fock_state(129, m))

    def test_accepts_low_rank_mixture(self, rng):
        kets = random_complex(rng, 3, 129)
        kets /= np.linalg.norm(kets, axis=1, keepdims=True)
        rho = sum(np.outer(k, k.conj()) for k in kets) / 3
        gw.check_density(rho)


class TestExpectation:
    def test_constant_one(self, rng):
        q = gw.build_quantizer(gw.PhaseGrid(4, 0.8), gw.almost_symmetric_kernel(2))
        w = gw.wigner(q, gw.random_density(4, rng))
        assert gw.expectation(w, np.ones((4, 4))) == pytest.approx(1, abs=1e-10)

    def test_number_function_on_fock(self):
        q = gw.build_quantizer(gw.PhaseGrid(5, 0.0), gw.symmetric_kernel(2))
        w = gw.wigner(q, gw.fock_state(5, 3))
        values = np.tile(np.arange(5.0)[None, :], (5, 1))
        assert gw.expectation(w, values) == pytest.approx(3, abs=1e-10)

    def test_matches_operator_trace(self, rng):
        q = gw.build_quantizer(gw.PhaseGrid(5, 0.3), gw.symmetric_kernel(2))
        rho = gw.random_density(5, rng)
        w = gw.wigner(q, rho)
        f = random_complex(rng, 5, 5)
        assert gw.expectation(w, f) == pytest.approx(
            np.trace(gw.quantize(q, f) @ rho), abs=1e-10
        )


class TestMarginals:
    def test_phase_state(self):
        g = gw.PhaseGrid(3, 0.9)
        q = gw.build_quantizer(g, gw.symmetric_kernel(1))
        w = gw.wigner(q, gw.phase_state(3, 1, 0.9))
        phase_m, _ = gw.marginals(w)
        np.testing.assert_allclose(phase_m, [0, 1, 0], atol=1e-10)

    def test_fock_state(self):
        q = gw.build_quantizer(gw.PhaseGrid(3, 0.9), gw.symmetric_kernel(1))
        _, number_m = gw.marginals(gw.wigner(q, gw.fock_state(3, 2)))
        np.testing.assert_allclose(number_m, [0, 0, 1], atol=1e-10)

    @pytest.mark.parametrize(
        "dim,kernel_fn",
        [
            (7, lambda: gw.symmetric_kernel(3)),
            (7, lambda: gw.wootters_kernel(3)),
            (6, lambda: gw.almost_symmetric_kernel(3)),
        ],
    )
    def test_random_states_all_kernels(self, dim, kernel_fn, rng):
        g = gw.PhaseGrid(dim, 0.35)
        q = gw.build_quantizer(g, kernel_fn())
        rho = gw.random_density(dim, rng)
        phase_m, number_m = gw.marginals(gw.wigner(q, rho))
        p = gw.phase_basis(g)
        expected_phase = np.real(np.einsum("nm,nk,km->m", p.conj(), rho, p))
        np.testing.assert_allclose(phase_m, expected_phase, atol=1e-10)
        np.testing.assert_allclose(number_m, np.real(np.diag(rho)), atol=1e-10)


class TestReconstruct:
    @pytest.mark.parametrize(
        "dim,kernel_fn",
        [
            (3, lambda: gw.symmetric_kernel(1)),
            (5, lambda: gw.symmetric_kernel(2)),
            (3, lambda: gw.wootters_kernel(1)),
            (5, lambda: gw.wootters_kernel(2)),
            (4, lambda: gw.almost_symmetric_kernel(2)),
        ],
    )
    def test_round_trip_many_states(self, dim, kernel_fn, rng):
        kernel = kernel_fn()
        g = gw.PhaseGrid(dim, 0.45)
        q = gw.build_quantizer(g, kernel)
        for _ in range(50):
            rho = gw.random_density(dim, rng)
            rec = gw.reconstruct(gw.wigner(q, rho), kernel)
            assert gw.frob_dist(rec, rho) <= 1e-9

    def test_wigner_of_reconstruction(self, rng):
        kernel = gw.symmetric_kernel(2)
        g = gw.PhaseGrid(5, 0.0)
        q = gw.build_quantizer(g, kernel)
        w = gw.wigner(q, gw.random_density(5, rng))
        np.testing.assert_allclose(
            gw.wigner(q, gw.reconstruct(w, kernel)).values, w.values, atol=1e-10
        )

    def test_unimodular_shortcut_agrees(self, rng):
        kernel = gw.wootters_kernel(2)
        g = gw.PhaseGrid(5, 0.25)
        q = gw.build_quantizer(g, kernel)
        w = gw.wigner(q, gw.random_density(5, rng))
        np.testing.assert_allclose(
            gw.reconstruct_unimodular(w, kernel), gw.reconstruct(w, kernel), atol=1e-10
        )

    def test_symmetric_closed_inversion_agrees(self, rng):
        kernel = gw.symmetric_kernel(2)
        g = gw.PhaseGrid(5, 0.65)
        q = gw.build_quantizer(g, kernel)
        w = gw.wigner(q, gw.random_density(5, rng))
        np.testing.assert_allclose(
            gw.reconstruct_symmetric(w), gw.reconstruct(w, kernel), atol=1e-10
        )

    def test_number_elements_literal_sum(self, rng):
        # quadruple-sum route to the number-basis elements as an oracle
        kernel = gw.symmetric_kernel(1)
        g = gw.PhaseGrid(3, 0.3)
        q = gw.build_quantizer(g, kernel)
        rho = gw.random_density(3, rng)
        w = gw.wigner(q, rho)
        d = 3
        half = 1
        ks = np.arange(-half, half + 1)
        oracle = np.zeros((d, d), dtype=complex)
        for np_ in range(d):
            for npp in range(d):
                acc = 0.0 + 0.0j
                for rp in range(d):
                    for rpp in range(d):
                        den = np.exp(1j * ks * g.phi(rp)) + np.exp(1j * ks * g.phi(rpp))
                        for m in range(d):
                            coef = np.sum(np.exp(1j * ks * g.phi(m)) / den)
                            for n in range(d):
                                acc += (
                                    coef
                                    * np.exp(
                                        1j
                                        * (
                                            (np_ - n) * g.phi(rp)
                                            + (n - npp) * g.phi(rpp)
                                        )
                                    )
                                    * w.values[m, n]
                                )
                oracle[np_, npp] = 2 * acc / d**2
        np.testing.assert_allclose(oracle, gw.reconstruct_symmetric(w), atol=1e-10)

    def test_kernel_mismatch_rejected(self, rng):
        g = gw.PhaseGrid(5, 0.0)
        q = gw.build_quantizer(g, gw.symmetric_kernel(2))
        w = gw.wigner(q, gw.random_density(5, rng))
        with pytest.raises(ValueError):
            gw.reconstruct(w, gw.wootters_kernel(2))

    def test_tampered_grid_rejected(self, rng):
        kernel = gw.symmetric_kernel(1)
        g = gw.PhaseGrid(3, 0.0)
        q = gw.build_quantizer(g, kernel)
        w = gw.wigner(q, gw.random_density(3, rng))
        bad = gw.WignerGrid(
            grid=w.grid, kernel_label=w.kernel_label, values=w.values + 0.1 * np.eye(3)
        )
        with pytest.raises(gw.ReconstructionError):
            gw.reconstruct(bad, kernel)


class TestSerialization:
    def test_json_round_trip(self, tmp_path, rng):
        q = gw.build_quantizer(gw.PhaseGrid(4, 0.3), gw.almost_symmetric_kernel(2))
        w = gw.wigner(q, gw.random_density(4, rng))
        path = tmp_path / "w.json"
        gw.wigner_to_json(w, path)
        loaded = gw.load_wigner(path)
        np.testing.assert_allclose(loaded.values, w.values)
        assert loaded.kernel_label == w.kernel_label
        assert loaded.grid.phi0 == w.grid.phi0
        assert loaded.epsilon == pytest.approx(w.epsilon)
        path2 = tmp_path / "w2.json"
        gw.wigner_to_json(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_csv_format(self, tmp_path, rng):
        q = gw.build_quantizer(gw.PhaseGrid(3, 0.0), gw.symmetric_kernel(1))
        w = gw.wigner(q, gw.random_density(3, rng))
        path = tmp_path / "w.csv"
        gw.wigner_to_csv(w, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "m,n,phi,value"
        assert len(lines) == 1 + 9
        m, n, phi, value = lines[1].split(",")
        assert (m, n) == ("0", "0")
        assert float(value) == pytest.approx(w.values[0, 0], abs=1e-16)
