"""Tests for grids, bases, clock/shift unitaries, displacements and the transform helper."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridwigner as gw
import oracles
from gridwigner import phasespace
from conftest import random_complex


class TestKets:
    def test_number_ket_dim3(self):
        g = gw.PhaseGrid(3)
        np.testing.assert_allclose(gw.number_ket(g, 0), [1, 0, 0])

    def test_number_ket_dim2(self):
        g = gw.PhaseGrid(2)
        np.testing.assert_allclose(gw.number_ket(g, 1), [0, 1])

    def test_number_orthonormal(self):
        g = gw.PhaseGrid(5)
        for n in range(5):
            for m in range(5):
                ip = np.vdot(gw.number_ket(g, n), gw.number_ket(g, m))
                assert ip == pytest.approx(1.0 if n == m else 0.0)

    def test_number_ket_range(self):
        with pytest.raises(ValueError):
            gw.number_ket(gw.PhaseGrid(3), 3)

    def test_phase_ket_uniform(self):
        g = gw.PhaseGrid(2, 0.0)
        np.testing.assert_allclose(gw.phase_ket(g, 0), [1, 1] / np.sqrt(2))

    def test_phase_orthonormal_random_phi0(self, rng):
        g = gw.PhaseGrid(5, rng.uniform(0, 2 * np.pi))
        for m in range(5):
            for mp in range(5):
                ip = np.vdot(gw.phase_ket(g, m), gw.phase_ket(g, mp))
                assert ip == pytest.approx(1.0 if m == mp else 0.0, abs=1e-12)

    @given(r=st.integers(-20, 20))
    @settings(max_examples=30, deadline=None)
    def test_phase_ket_periodic(self, r):
        g = gw.PhaseGrid(3, 0.7)
        np.testing.assert_allclose(
            gw.phase_ket(g, r + 3), gw.phase_ket(g, r), atol=1e-12
        )

    def test_both_bases_resolve_identity(self):
        g = gw.PhaseGrid(6, 0.3)
        acc_n = sum(
            np.outer(gw.number_ket(g, n), gw.number_ket(g, n).conj()) for n in range(6)
        )
        acc_p = sum(
            np.outer(gw.phase_ket(g, m), gw.phase_ket(g, m).conj()) for m in range(6)
        )
        np.testing.assert_allclose(acc_n, np.eye(6), atol=1e-12)
        np.testing.assert_allclose(acc_p, np.eye(6), atol=1e-12)


class TestOperators:
    def test_number_op_dim2(self):
        np.testing.assert_allclose(gw.number_op(gw.PhaseGrid(2)), np.diag([0, 1]))

    def test_phase_op_trace(self):
        g = gw.PhaseGrid(5, 0.4)
        assert np.trace(gw.phase_op(g)) == pytest.approx(np.sum(g.phis), abs=1e-12)

    def test_phase_op_corner_element(self):
        # dim 3, phi0 = 0: <0|phase_op|0> = (0 + 2pi/3 + 4pi/3)/3 = 2pi/3
        g = gw.PhaseGrid(3, 0.0)
        assert gw.phase_op(g)[0, 0] == pytest.approx(2 * np.pi / 3, abs=1e-12)

    def test_ops_hermitian(self):
        g = gw.PhaseGrid(4, 1.2)
        assert oracles.is_hermitian(gw.number_op(g))
        assert oracles.is_hermitian(gw.phase_op(g))

    def test_v_cyclic(self):
        g = gw.PhaseGrid(4, 0.0)
        np.testing.assert_allclose(
            np.linalg.matrix_power(gw.v_op(g), 4), np.eye(4), atol=1e-12
        )

    def test_u_cyclic_up_to_phase(self):
        g = gw.PhaseGrid(3, 0.7)
        np.testing.assert_allclose(
            np.linalg.matrix_power(gw.u_op(g), 3),
            np.exp(1j * 3 * 0.7) * np.eye(3),
            atol=1e-12,
        )

    def test_u_shift_equals_spectral(self):
        g = gw.PhaseGrid(5, 0.9)
        np.testing.assert_allclose(gw.u_op(g), oracles.u_op_spectral(g), atol=1e-12)

    def test_u_v_unitary(self):
        g = gw.PhaseGrid(6, 0.2)
        assert oracles.is_unitary(gw.u_op(g))
        assert oracles.is_unitary(gw.v_op(g))


class TestDisplacement:
    def test_zero_is_identity(self):
        g = gw.PhaseGrid(4, 0.3)
        np.testing.assert_allclose(gw.displacement(g, 0, 0), np.eye(4), atol=1e-14)

    def test_trace_rule(self):
        g = gw.PhaseGrid(3, 0.5)
        for k in range(3):
            for l in range(3):
                expected = 3.0 if (k == 0 and l == 0) else 0.0
                assert np.trace(gw.displacement(g, k, l)) == pytest.approx(
                    expected, abs=1e-12
                )

    def test_adjoint_rule(self):
        g = gw.PhaseGrid(4, 0.8)
        d = gw.displacement(g, 1, 3)
        np.testing.assert_allclose(
            d.conj().T, gw.displacement(g, -1, -3), atol=1e-12
        )

    def test_unitary(self):
        g = gw.PhaseGrid(5, 0.1)
        assert oracles.is_unitary(gw.displacement(g, 2, 4))

    @given(k=st.integers(-9, 9), l=st.integers(-9, 9))
    @settings(max_examples=40, deadline=None)
    def test_two_constructions_agree(self, k, l):
        g = gw.PhaseGrid(5, 0.37)
        np.testing.assert_allclose(
            gw.displacement(g, k, l),
            oracles.displacement_phase_form(g, k, l),
            atol=1e-12,
        )

    def test_orthogonality_relation(self):
        for d in (2, 3, 4, 5):
            g = gw.PhaseGrid(d, 0.21)
            ops = {
                (k, l): gw.displacement(g, k, l) for k in range(d) for l in range(d)
            }
            for (k, l), a in ops.items():
                for (kp, lp), b in ops.items():
                    expected = d if (k, l) == (kp, lp) else 0.0
                    got = np.trace(a @ b.conj().T)
                    assert got == pytest.approx(expected, abs=1e-10)

    @given(
        k=st.integers(-25, 25),
        l=st.integers(-25, 25),
        dim=st.sampled_from([2, 3, 5, 8, 12]),
    )
    @settings(max_examples=40, deadline=None)
    def test_weyl_commutation(self, k, l, dim):
        g = gw.PhaseGrid(dim, 0.63)
        u = gw.u_op(g)
        v = gw.v_op(g)
        uk = np.linalg.matrix_power(u, k) if k >= 0 else np.linalg.matrix_power(u.conj().T, -k)
        vl = np.linalg.matrix_power(v, l) if l >= 0 else np.linalg.matrix_power(v.conj().T, -l)
        lhs = np.exp(-2j * np.pi * k * l / dim) * (uk @ vl)
        np.testing.assert_allclose(lhs, vl @ uk, atol=1e-10)

    def test_index_shift_sign(self):
        # shifting k by dim multiplies by (-1)^l exp(i*dim*phi0)
        g = gw.PhaseGrid(3, 0.4)
        for l in (1, 2):
            np.testing.assert_allclose(
                gw.displacement(g, 1 + 3, l),
                (-1.0) ** l * np.exp(1j * 3 * 0.4) * gw.displacement(g, 1, l),
                atol=1e-12,
            )



@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(1, 33),
    phi0=st.one_of(st.floats(-2 * math.pi, 2 * math.pi), st.floats(-1e8, 1e8)),
    batch=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_gather_and_the_displacement_sum_match_their_definitions(d, phi0, batch, seed):
    """``_diagonals`` is the corner-phased cyclic-diagonal gather, and ``_displacement_sum`` of
    sheared coefficients the dense sum of displacements, C-contiguous and owning its memory
    (no doubled buffer)."""
    rng = np.random.default_rng(seed)
    grid = gw.PhaseGrid(d, phi0)
    a = random_complex(rng, batch, d, d)
    n, k = np.arange(d), np.arange(d)[:, None]
    corner = np.where(n < k, np.exp(1j * d * grid.phi0_reduced), 1.0)
    gathered = gw.phasespace._diagonals(grid, a)
    assert np.max(np.abs(gathered - a[:, n, (n - k) % d] * corner)) <= 1e-15 * np.max(np.abs(a))
    ops = np.array([[gw.displacement(grid, kk, ll) for ll in range(d)] for kk in range(d)])
    sheared = a * gw.phasespace._shear(grid)
    placed = gw.phasespace._displacement_sum(grid, sheared)
    assert np.max(np.abs(placed - np.einsum("bkl,klij->bij", a, ops))) <= 1e-13 * d * np.max(np.abs(a))
    for out in (placed, gw.phasespace._displacement_sum(grid, sheared[0])):
        assert out.flags.c_contiguous and out.base is None


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 65),
    phi0=st.one_of(st.floats(-2 * math.pi, 2 * math.pi), st.floats(-1e8, 1e8)),
    seed=st.integers(0, 2**32 - 1),
)
def test_phase_function_op_matches_the_dense_products(d, phi0, seed):
    """One inverse FFT of the eigenvalues, laid along the diagonals ``a - b``, is
    ``P diag(values) P^H``, C-contiguous and owning its memory; ``phase_op`` takes the angles."""
    grid = gw.PhaseGrid(d, phi0)
    values = random_complex(np.random.default_rng(seed), d)
    built = gw.phase_function_op(grid, values)
    assert built.flags.c_contiguous and built.base is None
    assert np.max(np.abs(built - oracles.phase_function_op(grid, values))) <= 1e-12 * np.max(np.abs(values))
    phis = grid.phis
    assert np.max(np.abs(gw.phase_op(grid) - oracles.phase_function_op(grid, phis))) <= 1e-12 * np.max(np.abs(phis))


class TestGrid:
    def test_phis_increasing(self):
        g = gw.PhaseGrid(6, -0.5)
        assert np.all(np.diff(g.phis) > 0)

    def test_bad_dim(self):
        with pytest.raises(ValueError):
            gw.PhaseGrid(0)


class TestGridValidation:
    @pytest.mark.parametrize("dim", [2.5, 3.0, "3", None])
    def test_non_integer_dim_rejected(self, dim):
        with pytest.raises(ValueError):
            gw.PhaseGrid(dim)

    @pytest.mark.parametrize("phi0", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_phi0_rejected(self, phi0):
        with pytest.raises(ValueError):
            gw.PhaseGrid(3, phi0)

    def test_numpy_integer_dim_accepted(self):
        g = gw.PhaseGrid(np.int64(4), 0.2)
        assert g.dim == 4 and type(g.dim) is int


class TestLargeAngle:
    def test_phi0_kept_and_reduced_once(self):
        g = gw.PhaseGrid(5, 1e8)
        assert g.phi0 == 1e8
        assert g.phi0_reduced == math.remainder(1e8, 2 * math.pi)
        assert g.phis[0] == 1e8  # the phase operator keeps the angles as given

    @pytest.mark.parametrize("phi0", [0.0, 0.37, 1.3, -2.5, math.pi])
    def test_reduction_leaves_small_angles_bit_for_bit(self, phi0):
        g = gw.PhaseGrid(7, phi0)
        assert g.phi0_reduced == phi0
        n = np.arange(7)[:, None]
        assert np.array_equal(gw.phase_basis(g), np.exp(1j * n * g.phis[None, :]) / np.sqrt(7))

    @pytest.mark.parametrize("phi0", [1e4, 1e8, -3e12])
    def test_round_trip_at_a_large_angle(self, rng, phi0):
        # before the reduction the error was 4.6e-13 at 1e4 and 4.1e-9 at 1e8
        grid = gw.PhaseGrid(21, phi0)
        kernel = gw.wootters_kernel(10)
        rho = gw.random_density(21, rng)
        back = gw.reconstruct(gw.wigner_grid(grid, kernel, rho), kernel)
        assert np.max(np.abs(back - rho)) <= 1e-12

    def test_factors_are_periodic_in_phi0(self):
        small, large = gw.PhaseGrid(9, 0.37), gw.PhaseGrid(9, 0.37 + 2 * math.pi * 10**6)
        assert abs(large.phi0_reduced - 0.37) < 1e-9
        for k, l in [(1, 0), (4, 7), (8, 8)]:
            np.testing.assert_allclose(
                gw.displacement(large, k, l), gw.displacement(small, k, l), atol=1e-8
            )
        np.testing.assert_allclose(gw.phase_basis(large), gw.phase_basis(small), atol=1e-8)


LIMIT = phasespace.DFT_MATRIX_LIMIT
PRIMES = [p for p in range(2, 2 * LIMIT + 1) if all(p % k for k in range(2, p))]
TRANSFORMS = {
    "fft": (phasespace._fft, np.fft.fft),
    "ifft": (phasespace._ifft, np.fft.ifft),
    "fft2": (phasespace._fft2, np.fft.fft2),
    "ifft2": (phasespace._ifft2, np.fft.ifft2),
}


@settings(max_examples=300, deadline=None)
@given(
    n=st.one_of(st.integers(1, 2 * LIMIT), st.sampled_from(PRIMES)),
    other=st.integers(1, 2 * LIMIT),
    batch=st.lists(st.integers(0, 3), max_size=2),
    name=st.sampled_from(sorted(TRANSFORMS)),
    axis=st.sampled_from((-1, -2)),
    norm=st.sampled_from(("backward", "forward")),
    real=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_transform_helper_matches_numpy(n, other, batch, name, axis, norm, real, seed):
    """Both routes, both parities and primes up to twice the limit, either axis, with batch axes."""
    ours, theirs = TRANSFORMS[name]
    shape = (*batch, n, other) if axis == -2 else (*batch, other, n)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape) if real else random_complex(rng, *shape)
    if name.endswith("2"):
        got, expected, points = ours(x, norm=norm), theirs(x, norm=norm), n * other
    else:
        got, expected, points = ours(x, axes=(axis,), norm=norm), theirs(x, axis=axis, norm=norm), n
    assert got.shape == expected.shape and got.dtype == np.complex128
    scale = float(np.max(np.abs(x), initial=0.0))
    assert float(np.max(np.abs(got - expected), initial=0.0)) <= 1e-13 * points * scale
    if max(n, other if name.endswith("2") else n) > LIMIT:  # numpy's own call, bit for bit
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", [1, 2, 7, 16, LIMIT, LIMIT + 1, 64])
@pytest.mark.parametrize("name", ["fft", "ifft"])
def test_a_row_transform_does_not_depend_on_its_batch(n, name, rng):
    ours = TRANSFORMS[name][0]
    x = random_complex(rng, 2, n + 3, n)
    stacked = ours(x, norm="forward")
    for i in (0, 1):
        for r in (0, n // 2, n + 2):
            alone = ours(x[i, r], norm="forward")
            assert stacked[i, r].tobytes() == alone.tobytes()
            assert ours(x[i, r : r + 1], norm="forward")[0].tobytes() == alone.tobytes()
            assert ours(x[i, : r + 1], norm="forward")[r].tobytes() == alone.tobytes()


def test_dft_matrices_are_cached_and_read_only():
    m = phasespace._dft_matrix(LIMIT, True, "forward")
    assert m is phasespace._dft_matrix(LIMIT, True, "forward")
    with pytest.raises(ValueError):
        m[0, 0] = 0.0


@pytest.mark.parametrize("d", [LIMIT, LIMIT + 1])
def test_kernel_maps_match_the_oracles_on_both_sides_of_the_limit(d, rng):
    n = d // 2
    kernels = [gw.almost_symmetric_kernel(n)] if d % 2 == 0 else [gw.symmetric_kernel(n), gw.wootters_kernel(n)]
    for kernel in kernels + [oracles.random_kernel(d, rng)]:
        grid = gw.PhaseGrid(d, 0.37)
        q = gw.build_quantizer(grid, kernel)
        rho = gw.random_density(d, rng)
        w = gw.wigner(q, rho)
        assert np.max(np.abs(w.values - oracles.wigner(grid, kernel, rho).real)) <= 1e-12
        f = random_complex(rng, d, d)
        assert np.max(np.abs(gw.quantize(q, f) - oracles.quantize(grid, kernel, f))) <= 1e-12
        op = random_complex(rng, d, d) / d
        assert np.max(np.abs(gw.symbol(q, op) - oracles.symbol(grid, kernel, op))) <= 1e-12
        assert np.max(np.abs(gw.reconstruct(w, kernel) - oracles.reconstruct(w, kernel))) <= 1e-12
