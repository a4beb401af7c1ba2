"""Unit tests for the dense complex linear algebra helpers."""

import numpy as np
import pytest

import oracles
from gridwigner import linalg
from conftest import random_complex


def dft_matrix(d):
    # known unitary for testing
    j = np.arange(d)
    return np.exp(2j * np.pi * np.outer(j, j) / d) / np.sqrt(d)


class TestAdjoint:
    def test_identity(self):
        np.testing.assert_allclose(oracles.adjoint(np.eye(3)), np.eye(3))

    def test_involution(self, rng):
        a = random_complex(rng, 4, 4)
        np.testing.assert_allclose(oracles.adjoint(oracles.adjoint(a)), a)

    def test_hand_case(self):
        a = np.array([[0, 1j], [0, 0]])
        expected = np.array([[0, 0], [-1j, 0]])
        np.testing.assert_allclose(oracles.adjoint(a), expected)

    def test_product_rule(self, rng):
        a = random_complex(rng, 5, 5)
        b = random_complex(rng, 5, 5)
        np.testing.assert_allclose(
            oracles.adjoint(a @ b), oracles.adjoint(b) @ oracles.adjoint(a), atol=1e-12
        )


class TestFrobDist:
    def test_zero_on_equal(self, rng):
        a = random_complex(rng, 3, 3)
        assert linalg.frob_dist(a, a) == 0

    def test_identity_norm(self):
        assert linalg.frob_dist(np.eye(2), np.zeros((2, 2))) == pytest.approx(
            np.sqrt(2)
        )

    def test_triangle_inequality(self, rng):
        a, b, c = (random_complex(rng, 3, 3) for _ in range(3))
        assert linalg.frob_dist(a, c) <= (
            linalg.frob_dist(a, b) + linalg.frob_dist(b, c) + 1e-12
        )


class TestPredicates:
    def test_hermitian(self, rng):
        a = random_complex(rng, 4, 4)
        h = a + a.conj().T
        assert oracles.is_hermitian(h)
        assert not oracles.is_hermitian(h + 1e-3 * 1j * np.eye(4))

    def test_unitary(self):
        assert oracles.is_unitary(dft_matrix(6))
        assert not oracles.is_unitary(2 * np.eye(3))

    def test_psd_pivot(self, rng):
        a = random_complex(rng, 5, 5)
        psd = a @ a.conj().T
        assert oracles.min_diag_pivot(psd) >= -1e-12
        assert linalg.psd_deficit(psd) == 0.0
        assert linalg.is_positive_semidefinite(psd)
        indef = psd - 2 * np.linalg.norm(psd) * np.eye(5)
        assert not linalg.is_positive_semidefinite(indef)

    def test_zero_pivot_with_coupled_remainder_is_not_psd(self):
        # eigenvalues (-1, 1, 1): eliminating the first pivot leaves a block
        # with a zero diagonal but a unit off-diagonal entry
        swap = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)
        assert oracles.min_diag_pivot(swap) <= -1.0 + 1e-12
        assert linalg.psd_deficit(swap) >= 1.0 - 1e-12
        assert not linalg.is_positive_semidefinite(swap)
        assert not linalg.is_positive_semidefinite(1e-3 * swap)
        assert linalg.psd_deficit(1e-3 * swap) == pytest.approx(1e-3, rel=1e-12)

    def test_zero_matrix_is_psd(self):
        assert oracles.min_diag_pivot(np.zeros((3, 3))) == 0.0
        assert linalg.psd_deficit(np.zeros((3, 3))) == 0.0
        assert linalg.is_positive_semidefinite(np.zeros((3, 3)))

    def test_psd_rank_deficient(self, rng):
        v = random_complex(rng, 4)
        proj = np.outer(v, v.conj())
        assert linalg.is_positive_semidefinite(proj)
        assert linalg.psd_deficit(proj) <= 1e-12 * np.linalg.norm(proj)

    def test_deficit_is_of_the_hermitian_part(self):
        # the antihermitian part does not count: [[1, 2], [0, 1]] has Hermitian part [[1, 1], [1, 1]]
        assert linalg.psd_deficit([[1, 2], [0, 1]]) <= 1e-15
        assert linalg.is_positive_semidefinite([[1, 2], [0, 1]])
        assert linalg.psd_deficit([[1, 4], [0, 1]]) == pytest.approx(1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_non_finite_entries_are_rejected(self, bad):
        for where in ((1, 2), (2, 2)):
            a = np.eye(3, dtype=complex)
            a[where] = bad
            assert not linalg.is_positive_semidefinite(a)
            assert linalg.psd_deficit(a) == np.inf
        # a lone infinite diagonal entry factors as sqrt(inf) without a breakdown
        assert not linalg.is_positive_semidefinite([[bad]])
        assert linalg.psd_deficit([[bad]]) == np.inf
