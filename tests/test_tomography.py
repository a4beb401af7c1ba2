"""Tests for lines, the half-integer construction, relations and continuum."""

import math
import re

import numpy as np
import pytest

import gridwigner as gw
import oracles


class TestLinePoints:
    def test_vertical_line(self):
        points = gw.line_points(gw.Line(1, 0, 2, 3))
        assert points == [(2, 0), (2, 1), (2, 2)]

    def test_horizontal_line(self):
        points = gw.line_points(gw.Line(0, 1, 1, 3))
        assert points == [(0, 1), (1, 1), (2, 1)]

    def test_tilted_line(self):
        points = gw.line_points(gw.Line(1, 1, 0, 3))
        assert points == [(0, 0), (1, 2), (2, 1)]

    def test_degenerate_empty_and_full(self):
        assert gw.line_points(gw.Line(0, 0, 1, 3)) == []
        assert len(gw.line_points(gw.Line(0, 0, 0, 3))) == 9
        assert gw.Line(0, 0, 0, 3).degenerate

    @pytest.mark.parametrize("args", [(1.5, 0, 0, 5), (1, 0, 0, 5.0), (1, 0, 0.0, 5)])
    def test_non_integer_coefficients_rejected(self, args):
        with pytest.raises(ValueError, match="must be an integer"):
            gw.Line(*args)

    def test_numpy_integer_coefficients_accepted(self):
        line = gw.Line(np.int64(1), np.int32(2), np.int64(0), np.int64(5))
        assert type(line.dim) is int
        assert len(gw.line_points(line)) == 5

    def test_point_count(self):
        for d in (3, 5, 7):
            for n1 in range(d):
                for n2 in range(d):
                    line = gw.Line(n1, n2, 1, d)
                    if line.degenerate or line.family_gcd > 1:
                        continue
                    assert len(gw.line_points(line)) == d

    def test_parallel_family_partitions(self, rng):
        for d in (3, 5):
            for _ in range(5):
                n1, n2 = int(rng.integers(0, d)), int(rng.integers(0, d))
                if math.gcd(math.gcd(n1, n2), d) != 1:
                    continue
                seen = set()
                for n3 in range(d):
                    pts = gw.line_points(gw.Line(n1, n2, n3, d))
                    assert len(pts) == d
                    assert not (seen & set(pts))
                    seen |= set(pts)
                assert len(seen) == d * d

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 9, 10, 15, 16, 27, 44, 45])
    def test_points_match_the_point_loop(self, d):
        # every direction, the degenerate one (empty) included, and the whole grid
        lines = [gw.Line(n1, n2, (n1 + 2 * n2 + 1) % d, d) for n1 in range(d) for n2 in range(d)]
        for line in lines + [gw.Line(0, 0, 0, d)]:
            assert gw.line_points(line) == oracles.line_points(line)


class TestLineProjectors:
    @pytest.mark.parametrize("dim", [3, 5])
    def test_wootters_lines_are_projectors(self, dim):
        n_half = (dim - 1) // 2
        q = gw.build_quantizer(gw.PhaseGrid(dim, 0.0), gw.wootters_kernel(n_half))
        for n1 in range(dim):
            for n2 in range(dim):
                if n1 == 0 and n2 == 0:
                    continue
                if math.gcd(math.gcd(n1, n2), dim) > 1:
                    continue
                total = np.zeros((dim, dim), dtype=complex)
                projs = []
                for n3 in range(dim):
                    p = gw.line_projector(q, gw.Line(n1, n2, n3, dim))
                    assert oracles.is_hermitian(p)
                    assert gw.frob_dist(p @ p, p) <= 1e-10
                    total += p
                    projs.append(p)
                np.testing.assert_allclose(total, np.eye(dim), atol=1e-10)
                # mutual orthogonality inside a parallel family
                for i in range(dim):
                    for j in range(i + 1, dim):
                        assert np.max(np.abs(projs[i] @ projs[j])) <= 1e-10

    def test_vertical_family_gives_phase_projectors(self):
        g = gw.PhaseGrid(3, 0.4)
        q = gw.build_quantizer(g, gw.wootters_kernel(1))
        for n3 in range(3):
            pm = gw.phase_ket(g, n3)
            np.testing.assert_allclose(
                gw.line_projector(q, gw.Line(1, 0, n3, 3)),
                np.outer(pm, pm.conj()),
                atol=1e-10,
            )

    def test_horizontal_family_gives_number_projectors(self):
        g = gw.PhaseGrid(3, 0.4)
        q = gw.build_quantizer(g, gw.wootters_kernel(1))
        for n3 in range(3):
            en = gw.number_ket(g, n3)
            np.testing.assert_allclose(
                gw.line_projector(q, gw.Line(0, 1, n3, 3)),
                np.outer(en, en.conj()),
                atol=1e-10,
            )

    def test_symmetric_tilted_line_not_projective(self):
        q = gw.build_quantizer(gw.PhaseGrid(3, 0.0), gw.symmetric_kernel(1))
        p = gw.line_projector(q, gw.Line(1, 1, 0, 3))
        assert gw.frob_dist(p @ p, p) > 1e-3

    def test_even_dim_rejected(self):
        q = gw.build_quantizer(gw.PhaseGrid(4, 0.0), gw.almost_symmetric_kernel(2))
        with pytest.raises(ValueError):
            gw.line_projector(q, gw.Line(1, 0, 0, 4))

    def test_degenerate_rejected(self):
        q = gw.build_quantizer(gw.PhaseGrid(3, 0.0), gw.wootters_kernel(1))
        with pytest.raises(ValueError):
            gw.line_projector(q, gw.Line(0, 0, 0, 3))

    def test_gcd_family_rejected(self):
        q = gw.build_quantizer(gw.PhaseGrid(9, 0.0), gw.wootters_kernel(4))
        with pytest.raises(ValueError):
            gw.line_projector(q, gw.Line(3, 0, 3, 9))


class TestDisplacementPowers:
    @pytest.mark.parametrize("dim", [3, 5])
    def test_zero_phase_power_identity(self, dim, rng):
        g = gw.PhaseGrid(dim, 0.6)
        for _ in range(10):
            n1 = int(rng.integers(0, dim))
            n2 = int(rng.integers(0, dim))
            r = int(rng.integers(0, 2 * dim))
            np.testing.assert_allclose(
                oracles.displacement_zero_phase(g, n1 * r, n2 * r),
                np.linalg.matrix_power(oracles.displacement_zero_phase(g, n1, n2), r),
                atol=1e-10,
            )


class TestWoottersForms:
    def test_matrix_element_basics(self):
        g = gw.PhaseGrid(3, 0.0)
        assert oracles.wootters_matrix_element(g, 0, 0, 0, 0) == pytest.approx(1)
        # vanishes unless 2n is congruent to the index sum
        assert oracles.wootters_matrix_element(g, 0, 0, 0, 1) == 0

    def test_matrix_element_table_matches_generic(self):
        g = gw.PhaseGrid(3, 0.8)
        q = gw.build_quantizer(g, gw.wootters_kernel(1))
        for m in range(3):
            for n in range(3):
                table = np.array(
                    [
                        [oracles.wootters_matrix_element(g, m, n, a, b) for b in range(3)]
                        for a in range(3)
                    ]
                )
                np.testing.assert_allclose(q.omega[m, n], table, atol=1e-10)

    def test_dyad_form_matches_generic(self):
        g = gw.PhaseGrid(5, 0.3)
        q = gw.build_quantizer(g, gw.wootters_kernel(2))
        for m in range(5):
            for n in range(5):
                np.testing.assert_allclose(
                    q.omega[m, n], oracles.wootters_omega(g, m, n), atol=1e-10
                )


class TestLeonhardt:
    def test_fock_hand_values(self):
        w = gw.leonhardt_wigner(1, 0.0, gw.fock_state(2, 0))
        expected = np.zeros((4, 4))
        expected[:, 0] = 0.25
        np.testing.assert_allclose(w.values, expected, atol=1e-12)
        assert w.values.sum() == pytest.approx(1)

    def test_fock_parity_selection(self):
        # a pure number state occupies only its own doubled level
        for n0 in (0, 1, 2, 3):
            w = gw.leonhardt_wigner(2, 0.3, gw.fock_state(4, n0))
            mask = np.zeros((8, 8), dtype=bool)
            mask[:, 2 * n0] = True
            assert np.max(np.abs(w.values[~mask])) <= 1e-12

    @pytest.mark.parametrize("n_half", [1, 2])
    def test_forms_agree(self, n_half, rng):
        rho = gw.random_density(2 * n_half, rng)
        w = gw.leonhardt_wigner(n_half, 0.35, rho)
        np.testing.assert_allclose(
            w.values,
            oracles.leonhardt_wigner_phase_form(n_half, 0.35, rho).values,
            atol=1e-10,
        )
        np.testing.assert_allclose(
            w.values,
            oracles.leonhardt_wigner_via_ops(n_half, 0.35, rho).values,
            atol=1e-10,
        )

    def test_normalization(self, rng):
        for n_half in (1, 2):
            w = gw.leonhardt_wigner(n_half, 0.1, gw.random_density(2 * n_half, rng))
            assert w.values.sum() == pytest.approx(1, abs=1e-10)

    def test_number_marginal_over_angles(self, rng):
        # summing the doubled angle axis recovers the level populations
        rho = gw.random_density(4, rng)
        w = gw.leonhardt_wigner(2, 0.7, rho)
        sums = w.values.sum(axis=0)
        for jn in range(8):
            expected = rho[jn // 2, jn // 2].real if jn % 2 == 0 else 0.0
            assert sums[jn] == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("n_half", [1, 2])
    def test_round_trip_many_states(self, n_half, rng):
        for _ in range(50):
            rho = gw.random_density(2 * n_half, rng)
            w = gw.leonhardt_wigner(n_half, 0.2, rho)
            assert gw.frob_dist(gw.leonhardt_reconstruct(w), rho) <= 1e-9

    def test_round_trip_mixed(self):
        w = gw.leonhardt_wigner(1, 0.0, gw.maximally_mixed(2))
        np.testing.assert_allclose(
            gw.leonhardt_reconstruct(w), np.eye(2) / 2, atol=1e-12
        )

    def test_round_trip_phase_state(self):
        rho = gw.phase_state(4, 0, 0.3)
        w = gw.leonhardt_wigner(2, 0.3, rho)
        np.testing.assert_allclose(gw.leonhardt_reconstruct(w), rho, atol=1e-10)

    def test_phase_point_ops_hermitian(self):
        for jm in range(4):
            for jn in range(4):
                a = oracles.leonhardt_phase_point_op(1, 0.4, jm, jn)
                assert oracles.is_hermitian(a)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gw.leonhardt_wigner(2, 0.0, gw.fock_state(2, 0))

    @pytest.mark.parametrize("N, phi0, dim, match", [
        (1.5, 0.0, 3, "N must be an integer"),
        (np.float64(2.0), 0.0, 4, "N must be an integer"),
        (0, 0.0, 2, "N must be a positive integer"),
        (-1, 0.0, 2, "N must be a positive integer"),
        (1, math.inf, 2, "non-finite value or phi0"),
        (1, math.nan, 2, "non-finite value or phi0"),
    ])
    def test_half_dimension_and_angle_checked_before_the_table_is_built(self, N, phi0, dim, match):
        with pytest.raises(ValueError, match=match):
            gw.leonhardt_wigner(N, phi0, gw.maximally_mixed(dim))

    def test_non_integer_half_dimension_rejected(self):
        with pytest.raises(ValueError, match="must be an integer"):
            gw.HalfIntegerWignerGrid(2.5, 0.0, np.zeros((10, 10)))

    def test_complex_table_rejected(self):
        # the real part alone would be kept, with only a ComplexWarning
        with pytest.raises(ValueError, match="must be real"):
            gw.HalfIntegerWignerGrid(1, 0.0, np.full((4, 4), 1 / 16) + 0.5j)

    def test_numpy_integer_half_dimension_accepted(self):
        w = gw.HalfIntegerWignerGrid(np.int64(2), 0.0, np.zeros((8, 8)))
        assert w.dim == 4 and type(w.n_half) is int

    def test_halfgrid_io(self, tmp_path, rng):
        w = gw.leonhardt_wigner(2, 0.15, gw.random_density(4, rng))
        path = tmp_path / "half.json"
        gw.halfgrid_to_json(w, path)
        loaded = gw.load_halfgrid(path)
        assert loaded.n_half == 2
        np.testing.assert_allclose(loaded.values, w.values)


class TestRelations:
    def test_odd_relation_fock(self):
        g = gw.PhaseGrid(3, 0.0)
        rho = gw.fock_state(3, 0)
        out = gw.relate_odd(oracles.wigner_wootters(g, rho))
        np.testing.assert_allclose(
            out.values, oracles.wigner_symmetric(g, rho).values, atol=1e-10
        )

    def test_odd_relation_random(self, rng):
        g = gw.PhaseGrid(5, 0.45)
        for _ in range(20):
            rho = gw.random_density(5, rng)
            out = gw.relate_odd(oracles.wigner_wootters(g, rho))
            assert np.max(np.abs(out.values - oracles.wigner_symmetric(g, rho).values)) <= 1e-10

    def test_odd_relation_mixed_constant(self):
        g = gw.PhaseGrid(3, 0.0)
        out = gw.relate_odd(oracles.wigner_wootters(g, gw.maximally_mixed(3)))
        np.testing.assert_allclose(out.values, np.full((3, 3), 1 / 9), atol=1e-12)

    def test_odd_relation_needs_wootters(self, rng):
        g = gw.PhaseGrid(3, 0.0)
        w = oracles.wigner_symmetric(g, gw.random_density(3, rng))
        with pytest.raises(ValueError):
            gw.relate_odd(w)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_odd_relation_at_the_smallest_dimensions(self, d, rng):
        # d = 1 and an even d, which neither kernel takes, are refused with the parity rule's own text
        g = gw.PhaseGrid(d, 0.37)
        if d != 3:
            with pytest.raises(ValueError, match=f"^kernel 'wootters' requires an odd dimension >= 3, got {d}$"):
                gw.relate_odd(gw.WignerGrid(g, "wootters", np.full((d, d), 1 / d**2)))
            return
        rho = gw.random_density(d, rng)
        out = gw.relate_odd(oracles.wigner_wootters(g, rho))
        assert out.kernel_label == "symmetric"
        assert np.max(np.abs(out.values - oracles.wigner_symmetric(g, rho).values)) <= 1e-12

    def test_even_relation_qubit(self):
        w = gw.leonhardt_wigner(1, 0.0, gw.qubit_state(0, 0, 1))
        out = gw.relate_even(w, np.pi / 4)
        np.testing.assert_allclose(out.values, [[0.5, 0], [0.5, 0]], atol=1e-10)

    @pytest.mark.parametrize("eps", [np.pi / 4, 0.25])
    def test_even_relation_random(self, eps, rng):
        g = gw.PhaseGrid(6, 0.0)  # pi/4 voids a kernel entry at dim 4, not at dim 6
        for _ in range(20):
            rho = gw.random_density(6, rng)
            out = gw.relate_even(gw.leonhardt_wigner(3, 0.0, rho), eps)
            direct = oracles.wigner_almost_symmetric(g, rho, eps)
            assert np.max(np.abs(out.values - direct.values)) <= 1e-10

    def test_even_relation_mixed_constant(self):
        out = gw.relate_even(gw.leonhardt_wigner(1, 0.0, gw.maximally_mixed(2)), 0.3)
        np.testing.assert_allclose(out.values, np.full((2, 2), 1 / 4), atol=1e-12)

    def test_even_relation_bad_eps(self, rng):
        w = gw.leonhardt_wigner(1, 0.0, gw.random_density(2, rng))
        with pytest.raises(ValueError):
            gw.relate_even(w, np.pi / 2)

    @pytest.mark.parametrize("N, eps", [(2, np.pi / 4), (1, math.nan), (3, 1.5 * np.pi)])
    def test_even_relation_refuses_what_no_kernel_admits(self, N, eps, rng):
        w = gw.leonhardt_wigner(N, 0.0, gw.random_density(2 * N, rng))
        with pytest.raises(ValueError) as refused:
            gw.almost_symmetric_kernel(N, eps)
        with pytest.raises(ValueError, match=re.escape(str(refused.value))):
            gw.relate_even(w, eps)


class TestContinuum:
    @pytest.mark.parametrize("phi", [123456789.123, 1e20 + 0.5, 1e307])
    def test_targets_take_the_reduced_angle(self, phi, rng):
        # e^{3i phi} was evaluated at the rounded product 3 * phi
        rho = gw.random_density(7, rng)
        near = math.remainder(phi, 2 * math.pi)
        for target in (gw.number_phase_target, gw.wootters_target):
            assert target(rho, 3, phi) == target(rho, 3, near)
        assert gw.phase_density(rho, phi) == gw.phase_density(rho, near)

    @pytest.mark.parametrize("target", [gw.number_phase_target, gw.wootters_target])
    def test_targets_take_a_level_of_at_least_zero(self, target):
        rho = np.eye(2) / 2  # level -1 read the last row, and a float level raised IndexError
        with pytest.raises(ValueError, match="query level -1 is negative"):
            target(rho, -1, 0.0)
        with pytest.raises(ValueError, match="query level must be an integer"):
            target(rho, 1.0, 0.0)
        assert target(rho, np.int64(1), 0.3) == target(rho, 1, 0.3) != 0.0
        assert target(rho, 2, 0.3) == 0.0

    def test_wootters_superposition_targets(self):
        rho = gw.superposition01()
        for n in (0, 1):
            rep = gw.continuum_study(rho, "wootters", n, 0.0, [5, 10, 20, 40, 80])
            assert rep.rows[-1].abs_error <= 1e-6
            assert rep.monotone()
            assert rep.rows[0].target == pytest.approx(1 / (4 * np.pi))

    def test_symmetric_superposition_target(self):
        rho = gw.superposition01()
        rep = gw.continuum_study(rho, "symmetric", 0, 0.0, [5, 10, 20, 40, 80])
        assert rep.rows[0].target == pytest.approx((1 + 1) / (4 * np.pi))
        assert rep.rows[-1].abs_error <= 1e-10
        assert rep.monotone()

    def test_symmetric_target_formula(self):
        rho = gw.superposition01()
        for phi in (0.0, 0.7, 2.1):
            assert gw.number_phase_target(rho, 0, phi) == pytest.approx(
                (1 + np.cos(phi)) / (4 * np.pi)
            )

    def test_fock_constant_leg(self):
        rep = gw.continuum_study(gw.fock_state(1, 0), "symmetric", 0, 1.0, [5, 10, 20])
        for row in rep.rows:
            assert row.scaled_value == pytest.approx(1 / (2 * np.pi), abs=1e-12)
            assert row.target == pytest.approx(1 / (2 * np.pi))

    def test_almost_symmetric_family(self):
        rho = gw.superposition01()
        rep = gw.continuum_study(rho, "almost-symmetric", 1, 0.0, [5, 10, 20])
        assert rep.rows[0].target == pytest.approx((1 + 1) / (4 * np.pi))
        assert rep.rows[-1].abs_error <= 1e-10

    @pytest.mark.parametrize("phi", [0.7, 2.1])
    def test_almost_symmetric_error_is_the_skew_in_closed_form(self, phi):
        # on grids through phi, scaled - target = -tan(eps) Im z / (2 pi), eps = 1/dim, z the continuum value
        rng = np.random.default_rng(int(10 * phi))
        n_list = [10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000]
        for _ in range(5):
            rho = gw.random_density(3, rng)
            for n in range(3):
                z = np.sum(rho[n] * np.exp(1j * (np.arange(3) - n) * phi))
                for row in gw.continuum_study(rho, "almost-symmetric", n, phi, n_list, phi0=phi).rows:
                    skew = -math.tan(1.0 / row.dim) * z.imag / (2 * math.pi)
                    assert abs(row.scaled_value - row.target - skew) <= 1e-15 * max(1.0, abs(z))

    def test_marginal_contrast(self):
        # level sum of the sign-kernel target is flat in phi; the
        # number-phase target recovers the true phase density
        rho = gw.superposition01()
        for phi in (0.0, 1.3):
            swoot = sum(gw.wootters_target(rho, n, phi) for n in range(10))
            ssym = sum(gw.number_phase_target(rho, n, phi) for n in range(10))
            density = gw.phase_density(rho, phi)
            assert swoot == pytest.approx(1 / (2 * np.pi), abs=1e-12)
            assert ssym == pytest.approx(density, abs=1e-12)
        assert gw.phase_density(rho, 1.3) != pytest.approx(1 / (2 * np.pi), abs=1e-3)

    def test_grid_offset_reported(self):
        rep = gw.continuum_study(gw.superposition01(), "symmetric", 0, 1.0, [5, 10])
        for row in rep.rows:
            spacing = 2 * np.pi / row.dim
            assert abs(row.phi_grid - 1.0) <= spacing / 2 + 1e-12

    def test_embedding_guard(self):
        with pytest.raises(gw.EmbeddingError):
            gw.continuum_study(gw.fock_state(6, 5), "wootters", 0, 0.0, [3, 5])

    def test_csv_output(self, tmp_path):
        rep = gw.continuum_study(gw.superposition01(), "wootters", 0, 0.0, [5, 10])
        path = tmp_path / "report.csv"
        rep.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "N,n,phi_grid,scaled_value,target,abs_error"
        assert len(lines) == 3

    def test_slope_of_a_power_law(self):
        rows = [gw.ConvergenceRow(N, 2 * N + 1, 0, 0.0, 1.0 + 3.0 / N**2, 1.0) for N in (10, 20, 40, 80)]
        assert gw.ConvergenceReport("symmetric", 0, 0.0, rows).slope() == pytest.approx(-2.0, abs=1e-9)

    @pytest.mark.parametrize("errors", [[], [0.0, 1e-15, 0.1], [0.1, 0.2]])
    def test_slope_needs_two_sizes_above_roundoff(self, errors):
        # the last case repeats one size: no spread in N, nothing to fit
        sizes = [10, 20, 40] if len(errors) == 3 else [10] * len(errors)
        rows = [gw.ConvergenceRow(N, 2 * N + 1, 0, 0.0, 1.0 + e, 1.0) for N, e in zip(sizes, errors)]
        assert gw.ConvergenceReport("symmetric", 0, 0.0, rows).slope() is None

    def test_negative_level_rejected(self):
        with pytest.raises(gw.EmbeddingError, match="negative"):
            gw.continuum_study(gw.superposition01(), "symmetric", -1, 0.0, [5, 10])
