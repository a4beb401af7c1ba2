"""Tests for phase-point operators, quantization, symbols and orderings."""

import numpy as np
import pytest

import gridwigner as gw
import oracles
from gridwigner.states import PAULI
from conftest import random_complex


def build(dim, kernel, phi0=0.0):
    return gw.build_quantizer(gw.PhaseGrid(dim, phi0), kernel)


class TestBuild:
    def test_symmetric_closed_form(self):
        g = gw.PhaseGrid(3, 0.4)
        q = gw.build_quantizer(g, gw.symmetric_kernel(1))
        for m in range(3):
            for n in range(3):
                np.testing.assert_allclose(
                    q.omega[m, n],
                    oracles.symmetric_phase_point_op(g, m, n),
                    atol=1e-12,
                )

    def test_almost_symmetric_closed_form(self):
        g = gw.PhaseGrid(4, 0.2)
        q = gw.build_quantizer(g, gw.almost_symmetric_kernel(2, 0.25))
        for m in range(4):
            for n in range(4):
                np.testing.assert_allclose(
                    q.omega[m, n],
                    oracles.almost_symmetric_phase_point_op(g, m, n, 0.25),
                    atol=1e-12,
                )

    def test_qubit_pauli_form(self):
        # eps = pi/4, phi0 = 0 reproduces the standard qubit phase-point set
        q = build(2, gw.almost_symmetric_kernel(1, np.pi / 4))
        s1, s2, s3 = PAULI
        for m in range(2):
            for n in range(2):
                expected = 0.5 * (
                    np.eye(2)
                    + (-1.0) ** n * s3
                    + (-1.0) ** m * s1
                    + (-1.0) ** (m + n) * np.tan(np.pi / 4) * s2
                )
                np.testing.assert_allclose(q.omega[m, n], expected, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gw.build_quantizer(gw.PhaseGrid(4), gw.symmetric_kernel(1))

    def test_invalid_kernel_rejected(self):
        with pytest.raises(ValueError):
            gw.build_quantizer(gw.PhaseGrid(3), gw.Kernel(np.zeros((3, 3))))

    def test_invariants(self):
        q = build(5, gw.wootters_kernel(2), phi0=0.8)
        for m in range(5):
            for n in range(5):
                assert oracles.is_hermitian(q.omega[m, n])
                assert np.trace(q.omega[m, n]) == pytest.approx(1, abs=1e-10)


class TestQuantize:
    def test_constant_gives_identity(self):
        for kernel in (gw.symmetric_kernel(2), gw.wootters_kernel(2)):
            q = build(5, kernel, phi0=0.3)
            np.testing.assert_allclose(
                gw.quantize(q, np.ones((5, 5))), np.eye(5), atol=1e-12
            )

    def test_phase_only_function(self):
        q = build(5, gw.symmetric_kernel(2), phi0=0.6)
        f1 = np.cos(q.grid.phis)
        values = np.tile(f1[:, None], (1, 5))
        np.testing.assert_allclose(
            gw.quantize(q, values),
            gw.phase_function_op(q.grid, f1),
            atol=1e-12,
        )

    def test_number_only_function(self):
        q = build(5, gw.symmetric_kernel(2))
        f2 = np.arange(5.0) ** 2
        values = np.tile(f2[None, :], (5, 1))
        np.testing.assert_allclose(gw.quantize(q, values), np.diag(f2), atol=1e-12)

    def test_delta_gives_phase_projector(self):
        q = build(3, gw.symmetric_kernel(1), phi0=0.2)
        m0 = 1
        values = np.zeros((3, 3))
        values[m0, :] = 1.0
        pm = gw.phase_ket(q.grid, m0)
        np.testing.assert_allclose(
            gw.quantize(q, values), np.outer(pm, pm.conj()), atol=1e-12
        )

    def test_separable_symmetric_ordering(self, rng):
        q = build(7, gw.symmetric_kernel(3), phi0=0.15)
        f1 = random_complex(rng, 7)
        f2 = random_complex(rng, 7)
        a = gw.phase_function_op(q.grid, f1)
        b = np.diag(f2)
        np.testing.assert_allclose(
            gw.quantize(q, np.outer(f1, f2)), (a @ b + b @ a) / 2, atol=1e-12
        )

    def test_real_function_gives_hermitian(self, rng):
        for kernel in (
            gw.symmetric_kernel(2),
            gw.wootters_kernel(2),
        ):
            q = build(5, kernel, phi0=0.7)
            op = gw.quantize(q, rng.standard_normal((5, 5)))
            assert oracles.is_hermitian(op)

    def test_linear(self, rng):
        q = build(4, gw.almost_symmetric_kernel(2, 0.25))
        f = random_complex(rng, 4, 4)
        g_ = random_complex(rng, 4, 4)
        np.testing.assert_allclose(
            gw.quantize(q, 2 * f + 1j * g_),
            2 * gw.quantize(q, f) + 1j * gw.quantize(q, g_),
            atol=1e-12,
        )


class TestSymbol:
    def test_identity_symbol_is_one(self):
        q = build(3, gw.symmetric_kernel(1))
        np.testing.assert_allclose(gw.symbol(q, np.eye(3)), np.ones((3, 3)), atol=1e-12)

    @pytest.mark.parametrize(
        "dim,kernel_fn",
        [
            (3, lambda: gw.symmetric_kernel(1)),
            (5, lambda: gw.symmetric_kernel(2)),
            (7, lambda: gw.symmetric_kernel(3)),
            (9, lambda: gw.symmetric_kernel(4)),
            (3, lambda: gw.wootters_kernel(1)),
            (5, lambda: gw.wootters_kernel(2)),
            (7, lambda: gw.wootters_kernel(3)),
            (9, lambda: gw.wootters_kernel(4)),
            (2, lambda: gw.almost_symmetric_kernel(1)),
            (4, lambda: gw.almost_symmetric_kernel(2)),
            (6, lambda: gw.almost_symmetric_kernel(3)),
            (8, lambda: gw.almost_symmetric_kernel(4)),
        ],
    )
    def test_round_trips(self, dim, kernel_fn, rng):
        q = build(dim, kernel_fn(), phi0=0.25)
        f = random_complex(rng, dim, dim)
        np.testing.assert_allclose(gw.symbol(q, gw.quantize(q, f)), f, atol=1e-10)
        op = random_complex(rng, dim, dim)
        np.testing.assert_allclose(gw.quantize(q, gw.symbol(q, op)), op, atol=1e-10)

    def test_overlap_route_agrees(self, rng):
        q = build(5, gw.symmetric_kernel(2), phi0=0.4)
        op = random_complex(rng, 5, 5)
        np.testing.assert_allclose(
            oracles.symbol_via_overlaps(q, op), gw.symbol(q, op), atol=1e-10
        )

    def test_unimodular_shortcut(self, rng):
        q = build(3, gw.wootters_kernel(1), phi0=0.9)
        op = random_complex(rng, 3, 3)
        np.testing.assert_allclose(
            oracles.symbol_unimodular(q, op), gw.symbol(q, op), atol=1e-12
        )

    def test_shortcut_needs_unimodular(self):
        q = build(3, gw.symmetric_kernel(1))
        with pytest.raises(ValueError):
            oracles.symbol_unimodular(q, np.eye(3))

    def test_symbol_linear(self, rng):
        q = build(3, gw.wootters_kernel(1))
        a = random_complex(rng, 3, 3)
        b = random_complex(rng, 3, 3)
        np.testing.assert_allclose(
            gw.symbol(q, a + 2j * b),
            gw.symbol(q, a) + 2j * gw.symbol(q, b),
            atol=1e-12,
        )


class TestDisplacementIdentity:
    @pytest.mark.parametrize("kernel_fn", [gw.symmetric_kernel, gw.wootters_kernel])
    def test_rebuild_displacement(self, kernel_fn):
        q = build(5, kernel_fn(2), phi0=0.5)
        for k in range(5):
            for l in range(5):
                np.testing.assert_allclose(
                    oracles.displacement_from_quantizer(q, k, l),
                    gw.displacement(q.grid, k, l),
                    atol=1e-10,
                )


class TestVerify:
    def test_symmetric_dims(self):
        for n in (1, 2, 3):
            q = build(2 * n + 1, gw.symmetric_kernel(n), phi0=0.3)
            report = gw.verify_quantizer(q)
            assert report.core_pass()
            assert not report.unimodular
            # orthogonality genuinely fails for a non-unimodular kernel
            assert report.orthogonality_dev > 1e-3

    def test_wootters_dim3(self):
        report = gw.verify_quantizer(build(3, gw.wootters_kernel(1)))
        assert report.core_pass()
        assert report.unimodular
        assert report.orthogonality_pass()

    def test_almost_symmetric_dim4(self):
        report = gw.verify_quantizer(build(4, gw.almost_symmetric_kernel(2, 0.25)))
        assert report.core_pass()
        assert not report.unimodular
        assert report.orthogonality_dev > 1e-3


class TestOrdering:
    def test_symmetric_example(self):
        q = build(5, gw.symmetric_kernel(2), phi0=0.1)
        f1 = np.exp(1j * q.grid.phis)
        f2 = np.arange(5.0) ** 2
        assert gw.ordering_check(q, f1, f2).ok()

    def test_almost_symmetric_random(self, rng):
        q = build(4, gw.almost_symmetric_kernel(2, 0.25))
        rep = gw.ordering_check(q, random_complex(rng, 4), random_complex(rng, 4))
        assert rep.ok()
        assert rep.tan_eps == pytest.approx(np.tan(0.25))

    def test_commutator_weight_shrinks(self):
        weights = [
            gw.ordering_check(
                gw.build_quantizer(
                    gw.PhaseGrid(2 * n), gw.almost_symmetric_kernel(n)
                ),
                np.ones(2 * n),
                np.ones(2 * n),
            ).tan_eps
            for n in range(1, 11)
        ]
        assert all(w > 0 for w in weights)
        assert all(weights[i + 1] < weights[i] for i in range(9))

    def test_wrong_family_rejected(self):
        q = build(3, gw.wootters_kernel(1))
        with pytest.raises(ValueError):
            gw.ordering_check(q, np.ones(3), np.ones(3))
