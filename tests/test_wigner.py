"""Tests for Wigner grids, expectations, marginals and reconstruction."""

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import gridwigner as gw
import oracles
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
            oracles.wigner_wootters(g, rho).values, gw.wigner(q, rho).values, atol=1e-10
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
            oracles.wigner_symmetric(g, rho).values, gw.wigner(q, rho).values, atol=1e-12
        )
        g4 = gw.PhaseGrid(4, 0.4)
        rho4 = gw.random_density(4, rng)
        q4 = gw.build_quantizer(g4, gw.almost_symmetric_kernel(2, 0.25))
        np.testing.assert_allclose(
            oracles.wigner_almost_symmetric(g4, rho4, 0.25).values,
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    def test_rejects_non_finite_entries(self, bad):
        rho = np.eye(3, dtype=complex) / 3
        rho[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite entries"):
            gw.check_density(rho)

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
        back = oracles.reconstruct_unimodular(w, kernel)
        np.testing.assert_allclose(back, gw.reconstruct(w, kernel), atol=1e-10)
        np.testing.assert_allclose(back, w.dim * gw.quantize(q, w.values), atol=1e-10)

    def test_symmetric_closed_inversion_agrees(self, rng):
        kernel = gw.symmetric_kernel(2)
        g = gw.PhaseGrid(5, 0.65)
        q = gw.build_quantizer(g, kernel)
        w = gw.wigner(q, gw.random_density(5, rng))
        np.testing.assert_allclose(
            oracles.reconstruct_symmetric(w), gw.reconstruct(w, kernel), atol=1e-10
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
        np.testing.assert_allclose(oracle, oracles.reconstruct_symmetric(w), atol=1e-10)

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


def test_a_wigner_table_refuses_a_complex_table():
    # the real part alone would be kept, with only a ComplexWarning
    with pytest.raises(ValueError, match="must be real"):
        gw.WignerGrid(gw.PhaseGrid(3), "symmetric", np.full((3, 3), 1 / 9) + 0.5j)
    with pytest.raises(ValueError, match="must be real"):
        gw.WignerGrid(gw.PhaseGrid(3), "symmetric", np.full((3, 3), 1 / 9, dtype=complex))


def _verdict(check, rho):
    """``None`` if ``check`` accepts ``rho``, else its message."""
    try:
        check(rho)
    except ValueError as exc:
        return str(exc)
    return None


#: Sizes of a planted defect in units of the tolerance: close to it on both sides (a factor
#: of 2 in a distance shows), and well inside or outside it.
SIDES = (0.3, 0.7, 0.95, 1.05, 1.4, 3.0)


@st.composite
def near_states(draw):
    """``(rho, verdict)``: a state of dimension 1..40 and any rank, or a projector scaled near 1,
    with at most one defect, and the message ``check_density`` must give (``None`` to accept).
    A defect is a Hermiticity distance, a trace deviation or a negative eigenvalue of ``side``
    times the tolerance, or a NaN or infinite entry."""
    d = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    defect = draw(st.sampled_from(("none", "skew", "trace", "negative", "scaled projector", "non-finite")))
    side = draw(st.sampled_from(SIDES))
    fails = side > 1
    rank = draw(st.integers(1, max(1, d - 1) if defect == "negative" else d))
    p = np.zeros(d)
    p[:rank] = rng.uniform(0.1, 1.0, rank)
    p /= p.sum()
    verdict = None
    if defect == "negative" and rank < d:  # unit trace kept by the other eigenvalues
        p[:rank] *= 1 + side * gw.TOL
        p[-1] = -side * gw.TOL
        verdict = "density operator is not positive semidefinite" if fails else None
    elif defect == "scaled projector":
        p[:] = 0.0
        p[0] = 1 + draw(st.sampled_from((-1, 1))) * side * gw.TOL
        verdict = "density operator trace differs from 1" if fails else None
    u = np.linalg.qr(random_complex(rng, d, d))[0]
    rho = (u * p) @ u.conj().T
    i, j = (int(x) for x in rng.choice(d, size=2, replace=d == 1))
    if defect == "skew":  # ||rho - rho^+||_F = side * TOL
        rho[i, j] += 1j * side * gw.TOL / (np.sqrt(2) if i != j else 2)
        verdict = "density operator is not Hermitian" if fails else None
    elif defect == "trace":
        rho[i, i] += draw(st.sampled_from((-1, 1))) * side * gw.TOL
        verdict = "density operator trace differs from 1" if fails else None
    elif defect == "non-finite":
        rho[i, j] = draw(st.sampled_from((np.nan, complex(0, np.nan), np.inf, complex(0, -np.inf))))
        verdict = "density operator has non-finite entries"
    return rho, verdict


@settings(max_examples=300, deadline=None)
@given(near_states())
def test_check_density_decides_as_the_averaged_route(case):
    """The one Hermitian sum accepts and refuses what the route through the adjoint, ``np.trace``
    and the signed Hermitian average shifted by ``TOL * max(1, max |h|)`` did, with its message."""
    rho, verdict = case
    assert _verdict(oracles.check_density_average, rho) == verdict
    assert _verdict(gw.check_density, rho) == verdict


@pytest.mark.parametrize("phi0", [0.0, 0.37, 1e8])
def test_number_diagonal_states_have_one_row(phi0):
    """A state diagonal in the number basis has its characteristic function on row k = 0
    only, so its Wigner table does not depend on the phase: every row is bit for bit the
    row before it, which the file writers format once.  Fock states and the maximally
    mixed state at d = 2..65 under every family of the parity."""
    differing = []
    for d in range(2, 66):
        grid = gw.PhaseGrid(d, phi0)
        kernels = [gw.symmetric_kernel(d // 2), gw.wootters_kernel(d // 2)] if d % 2 else [gw.almost_symmetric_kernel(d // 2)]
        states = {"mixed": gw.maximally_mixed(d), **{f"fock {n}": gw.fock_state(d, n) for n in {0, 1, d // 2, d - 1}}}
        for kernel in kernels:
            for name, rho in states.items():
                bits = gw.wigner_grid(grid, kernel, rho).values.view(np.uint64)
                if not (bits[1:] == bits[:-1]).all():
                    differing.append((d, kernel.label, name))
    assert differing == []


@st.composite
def chirp_cases(draw):
    """A built-in kernel and a state of any rank: symmetric or wootters at odd d = 3..129,
    almost-symmetric at even d = 2..128 with an admitted eps (negative ones, ones near a
    quarter turn and ones up to 1e8 among them), and phi0 up to 1e8."""
    d = draw(st.integers(2, 129))
    if d % 2:
        kernel = draw(st.sampled_from((gw.symmetric_kernel, gw.wootters_kernel)))(d // 2)
    else:
        eps = draw(st.one_of(st.none(), st.floats(-1.5, 1.5), st.floats(1.5707, 1.5708), st.floats(-1e8, 1e8)))
        try:
            kernel = gw.almost_symmetric_kernel(d // 2, eps)
        except ValueError:
            reject()
    phi0 = draw(st.one_of(st.sampled_from((0.0, 0.37)), st.floats(-1e8, 1e8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = random_complex(rng, d, draw(st.integers(1, d)))
    rho = a @ a.conj().T
    return gw.PhaseGrid(d, phi0), kernel, rho / rho.trace().real


def _assert_routes_agree(grid, kernel, rho):
    """``wigner_grid`` and ``wigner`` of a built-in kernel, which map through its chirp form, give one
    table, within the tolerance on max |K| of the table route of the same table as ``Kernel(values)``."""
    fast = gw.wigner_grid(grid, kernel, rho, validate_state=False).values
    via_quantizer = gw.wigner(gw.build_quantizer(grid, kernel, check=False), rho, validate_state=False).values
    table = gw.wigner_grid(grid, gw.Kernel(kernel.values), rho, validate_state=False).values
    assert np.array_equal(fast, via_quantizer)
    assert gw.linalg.within(np.max(np.abs(fast - table)), kernel.moduli[1])


@settings(max_examples=80, deadline=None)
@given(chirp_cases())
def test_the_chirp_route_agrees_with_the_table_route(case):
    _assert_routes_agree(*case)


@pytest.mark.parametrize("make, d", [(gw.symmetric_kernel, 1025), (gw.wootters_kernel, 1025), (gw.almost_symmetric_kernel, 1024)])
def test_the_chirp_route_agrees_with_the_table_route_at_large_dim(rng, make, d):
    a = random_complex(rng, d, 3)
    rho = a @ a.conj().T
    _assert_routes_agree(gw.PhaseGrid(d, 1e8), make(d // 2), rho / rho.trace().real)
