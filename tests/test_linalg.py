"""Unit tests for the dense complex linear algebra helpers."""

import numpy as np
import pytest

from gridwigner import linalg
from conftest import random_complex


def dft_matrix(d):
    # known unitary for testing
    j = np.arange(d)
    return np.exp(2j * np.pi * np.outer(j, j) / d) / np.sqrt(d)


class TestMatmul:
    def test_identity(self, rng):
        a = random_complex(rng, 4, 4)
        np.testing.assert_allclose(linalg.matmul(np.eye(4), a), a)

    def test_unitary_inverse(self):
        f = dft_matrix(5)
        np.testing.assert_allclose(
            linalg.matmul(f, f.conj().T), np.eye(5), atol=1e-12
        )

    def test_hand_product(self):
        a = np.array([[1, 1j], [0, 1]])
        b = np.array([[1, 0], [1j, 1]])
        expected = np.array([[0, 1j], [1j, 1]])
        np.testing.assert_allclose(linalg.matmul(a, b), expected)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            linalg.matmul(np.eye(2), np.eye(3))


class TestAdjoint:
    def test_identity(self):
        np.testing.assert_allclose(linalg.adjoint(np.eye(3)), np.eye(3))

    def test_involution(self, rng):
        a = random_complex(rng, 4, 4)
        np.testing.assert_allclose(linalg.adjoint(linalg.adjoint(a)), a)

    def test_hand_case(self):
        a = np.array([[0, 1j], [0, 0]])
        expected = np.array([[0, 0], [-1j, 0]])
        np.testing.assert_allclose(linalg.adjoint(a), expected)

    def test_product_rule(self, rng):
        a = random_complex(rng, 5, 5)
        b = random_complex(rng, 5, 5)
        np.testing.assert_allclose(
            linalg.adjoint(a @ b), linalg.adjoint(b) @ linalg.adjoint(a), atol=1e-12
        )


class TestTrace:
    def test_identity(self):
        assert linalg.trace(np.eye(7)) == pytest.approx(7)

    def test_unit_vector_projector(self, rng):
        v = random_complex(rng, 6)
        v /= np.linalg.norm(v)
        assert linalg.trace(linalg.outer(v, v)) == pytest.approx(1, abs=1e-12)

    def test_cyclic(self, rng):
        a = random_complex(rng, 4, 4)
        b = random_complex(rng, 4, 4)
        assert linalg.trace(a @ b) == pytest.approx(linalg.trace(b @ a), abs=1e-12)

    def test_cyclic_three(self, rng):
        a, b, c = (random_complex(rng, 3, 3) for _ in range(3))
        assert linalg.trace(a @ b @ c) == pytest.approx(
            linalg.trace(c @ a @ b), abs=1e-12
        )

    def test_linear(self, rng):
        a = random_complex(rng, 3, 3)
        b = random_complex(rng, 3, 3)
        assert linalg.trace(2.5 * a + 1j * b) == pytest.approx(
            2.5 * linalg.trace(a) + 1j * linalg.trace(b), abs=1e-12
        )


class TestOuter:
    def test_basis_projector(self):
        e0 = np.array([1, 0, 0], dtype=complex)
        np.testing.assert_allclose(linalg.outer(e0, e0), np.diag([1, 0, 0]))

    def test_trace_is_inner_product(self, rng):
        u = random_complex(rng, 5)
        v = random_complex(rng, 5)
        assert linalg.trace(linalg.outer(u, v)) == pytest.approx(
            np.vdot(v, u), abs=1e-12
        )

    def test_rank_one(self, rng):
        u = random_complex(rng, 4)
        v = random_complex(rng, 4)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        m = linalg.outer(u, v)
        for i in range(4):
            for j in range(i + 1, 4):
                for k in range(4):
                    for l in range(k + 1, 4):
                        minor = m[i, k] * m[j, l] - m[i, l] * m[j, k]
                        assert abs(minor) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            linalg.outer(np.ones(2), np.ones(3))


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
        assert linalg.is_hermitian(h)
        assert not linalg.is_hermitian(h + 1e-3 * 1j * np.eye(4))

    def test_unitary(self):
        assert linalg.is_unitary(dft_matrix(6))
        assert not linalg.is_unitary(2 * np.eye(3))

    def test_psd_pivot(self, rng):
        a = random_complex(rng, 5, 5)
        psd = a @ a.conj().T
        assert linalg.min_diag_pivot(psd) >= -1e-12
        assert linalg.is_positive_semidefinite(psd)
        indef = psd - 2 * np.linalg.norm(psd) * np.eye(5)
        assert not linalg.is_positive_semidefinite(indef)

    def test_zero_pivot_with_coupled_remainder_is_not_psd(self):
        # eigenvalues (-1, 1, 1): eliminating the first pivot leaves a block
        # with a zero diagonal but a unit off-diagonal entry
        swap = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)
        assert linalg.min_diag_pivot(swap) <= -1.0 + 1e-12
        assert not linalg.is_positive_semidefinite(swap)
        assert not linalg.is_positive_semidefinite(1e-3 * swap)

    def test_zero_matrix_is_psd(self):
        assert linalg.min_diag_pivot(np.zeros((3, 3))) == 0.0

    def test_psd_rank_deficient(self, rng):
        v = random_complex(rng, 4)
        proj = np.outer(v, v.conj())
        assert linalg.is_positive_semidefinite(proj)
