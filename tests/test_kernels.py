"""Tests for kernel construction, validity conditions and file round trips."""

import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gridwigner as gw
import oracles
from conftest import random_complex


class TestSymmetricKernel:
    def test_value_n1(self):
        k = gw.symmetric_kernel(1)
        assert k.values[1, 1].real == pytest.approx(0.5)

    def test_edge_line(self):
        k = gw.symmetric_kernel(3)
        np.testing.assert_allclose(k.values[:, 0], np.ones(7))

    def test_value_n2(self):
        # cos(4*pi/5)
        k = gw.symmetric_kernel(2)
        assert k.values[2, 2].real == pytest.approx(-0.8090169943749474, abs=1e-12)

    def test_real_symmetric(self):
        k = gw.symmetric_kernel(2)
        np.testing.assert_allclose(k.values.imag, 0)
        np.testing.assert_allclose(k.values, k.values.T)

    def test_valid_all_n(self):
        for n in range(1, 7):
            assert gw.validate(gw.symmetric_kernel(n)).valid

    def test_not_unimodular(self):
        assert not gw.is_unimodular(gw.symmetric_kernel(1))


def _pairing_error(kernel):
    """Largest ``|conj K[k, l] - (-1)**(d+k+l) K[d-k, d-l]|`` over the interior."""
    d, sub = kernel.dim, kernel.values[1:, 1:]
    k = np.arange(1, d)
    signs = (-1.0) ** (d + np.add.outer(k, k))
    return float(np.max(np.abs(sub.conj() - signs * sub[::-1, ::-1])))


@pytest.mark.parametrize("d", [510, 511, 700, 1025])
def test_cosine_kernels_keep_their_pairing_at_large_dim(d):
    # k*l is reduced mod 2d before the cosine, so the pairing holds to roundoff at any d
    kernel = gw.symmetric_kernel(d // 2) if d % 2 else gw.almost_symmetric_kernel(d // 2)
    assert gw.validate(kernel).hermitian_pairing
    assert _pairing_error(kernel) <= 1e-14


class TestWoottersKernel:
    def test_values(self):
        k = gw.wootters_kernel(2)
        assert k.values[1, 1] == pytest.approx(-1)
        assert k.values[2, 1] == pytest.approx(1)

    def test_unimodular(self):
        for n in range(1, 7):
            k = gw.wootters_kernel(n)
            assert gw.is_unimodular(k)
            assert gw.validate(k).valid

    def test_all_plus_minus_one_table_unimodular(self, rng):
        signs = rng.choice([-1.0, 1.0], size=(4, 4))
        assert gw.is_unimodular(gw.Kernel(signs))


class TestAlmostSymmetricKernel:
    def test_qubit_quarter_turn(self):
        # eps = pi/4 at N=1 collapses onto the sign kernel
        k = gw.almost_symmetric_kernel(1, np.pi / 4)
        assert k.values[1, 1].real == pytest.approx(-1, abs=1e-12)

    def test_edge_line(self):
        k = gw.almost_symmetric_kernel(3, 0.1)
        np.testing.assert_allclose(k.values[0, :], np.ones(6), atol=1e-14)

    def test_value_n2(self):
        # cos(pi + 1/4)/cos(1/4) = -1
        k = gw.almost_symmetric_kernel(2, 0.25)
        assert k.values[2, 2].real == pytest.approx(-1, abs=1e-12)

    def test_valid_all_n_default_eps(self):
        for n in range(1, 7):
            assert gw.validate(gw.almost_symmetric_kernel(n)).valid

    def test_large_eps_keeps_precision(self):
        # rounding cos(a + eps) at a large eps loses a; the kernel depends on tan(eps) only
        for eps in (1e6 + 0.25, 1e300):
            k = gw.almost_symmetric_kernel(2, eps)
            assert gw.validate(k).valid
            np.testing.assert_allclose(
                k.values, gw.almost_symmetric_kernel(2, float(np.arctan(np.tan(eps)))).values,
                atol=1e-9,
            )

    def test_rejected_eps(self):
        # eps = pi/4 at N=2 puts a zero at k*l = 1
        with pytest.raises(ValueError):
            gw.almost_symmetric_kernel(2, np.pi / 4)

    def test_default_eps_value(self):
        assert gw.default_epsilon(4) == pytest.approx(1 / 8)
        assert gw.almost_symmetric_kernel(4).eps == pytest.approx(1 / 8)


class TestValidate:
    def test_plain_cosine_fails_even_dim(self):
        # cos(pi*k*l/4) vanishes at (1, 2); the nonvanishing check alone fails
        k = np.arange(4)[:, None]
        l = np.arange(4)[None, :]
        kern = gw.Kernel(np.cos(np.pi * k * l / 4))
        report = gw.validate(kern)
        assert not report.nonvanishing
        assert not report.valid
        assert report.hermitian_pairing
        assert report.first_col_unit
        assert report.first_row_unit

    def test_single_zero_flags_only_nonvanishing(self):
        base = gw.symmetric_kernel(1).values.copy()
        # zero the entry and its conjugation partner so only the
        # nonvanishing condition is violated
        base[1, 1] = 0.0
        base[2, 2] = 0.0
        report = gw.validate(gw.Kernel(base))
        assert not report.nonvanishing
        assert report.hermitian_pairing
        assert report.first_row_hermitian
        assert report.first_col_hermitian
        assert report.corner_real
        assert report.first_col_unit
        assert report.first_row_unit

    def test_pairing_violation_flagged_exactly(self):
        base = gw.symmetric_kernel(1).values.copy()
        base[1, 2] += 0.1
        report = gw.validate(gw.Kernel(base))
        assert not report.hermitian_pairing
        assert report.nonvanishing
        assert report.first_row_hermitian
        assert report.first_col_hermitian
        assert report.corner_real
        assert report.first_col_unit
        assert report.first_row_unit

    def test_hermiticity_equivalence(self, rng):
        # the pairing condition is equivalent to Hermitian phase-point operators:
        # valid built-ins give Hermitian operators, a pairing violation does not,
        # and verify_quantizer's check of Omega(0, 0) reads the same from the unchecked table
        from gridwigner.quantizer import build_quantizer

        for kernel in (
            gw.symmetric_kernel(1),
            gw.wootters_kernel(1),
            gw.almost_symmetric_kernel(2, 0.25),
        ):
            g = gw.PhaseGrid(kernel.dim, 0.3)
            q = build_quantizer(g, kernel, check=False)
            worst = max(
                gw.frob_dist(q.omega[m, n], q.omega[m, n].conj().T)
                for m in range(kernel.dim)
                for n in range(kernel.dim)
            )
            assert worst <= 1e-12
            assert gw.verify_quantizer(q).hermiticity_dev <= 1e-12

        broken = gw.symmetric_kernel(1).values.copy()
        broken[1, 2] += 0.1
        g = gw.PhaseGrid(3, 0.3)
        q = build_quantizer(g, gw.Kernel(broken), check=False)
        worst = max(
            gw.frob_dist(q.omega[m, n], q.omega[m, n].conj().T)
            for m in range(3)
            for n in range(3)
        )
        assert worst > 1e-3
        assert gw.verify_quantizer(q).hermiticity_dev > 1e-3


class TestKernelIO:
    def test_round_trip(self, tmp_path):
        k = gw.symmetric_kernel(2)
        path = tmp_path / "kernel.json"
        gw.save_kernel(k, path)
        loaded = gw.load_kernel(path)
        np.testing.assert_allclose(loaded.values, k.values)
        # writing the loaded kernel again is byte-identical
        path2 = tmp_path / "kernel2.json"
        gw.save_kernel(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_invalid_table_loads_but_fails_validate(self, tmp_path):
        bad = gw.Kernel(np.zeros((3, 3)))
        path = tmp_path / "bad.json"
        gw.save_kernel(bad, path)
        loaded = gw.load_kernel(path)
        assert not gw.validate(loaded).valid

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            gw.Kernel(np.ones((2, 3)))

    def test_empty_table_rejected(self):
        # it used to pass, and validate then failed inside a numpy reduction of no entries
        with pytest.raises(ValueError, match="non-empty"):
            gw.Kernel(np.zeros((0, 0)))


@st.composite
def flagged_kernels(draw):
    """A kernel of dimension 1..40: valid, with one defect of ``side`` times the tolerance on
    the pairing, an edge line or the corner, a random table, or with NaN entries."""
    d = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("valid", "pairing", "edge", "corner", "unit line", "random", "NaN")))
    side = draw(st.sampled_from((0.3, 0.7, 0.95, 1.05, 1.4, 3.0)))  # close to the tolerance and far from it
    values = oracles.random_kernel(d, rng, unimodular=draw(st.booleans())).values
    i, k, l = (int(x) for x in rng.integers(d, size=3))
    if kind == "pairing" and d > 1:
        values[max(k, 1), max(l, 1)] += 1j * side * gw.TOL * np.max(np.abs(values))
    elif kind == "edge":
        values[(0, i) if rng.integers(2) else (i, 0)] += 1j * side * gw.TOL
    elif kind == "corner":
        values[0, 0] += 1j * side * gw.TOL
    elif kind == "unit line":
        values[(0, i) if rng.integers(2) else (i, 0)] += side * gw.TOL
    elif kind == "random":
        values = random_complex(rng, d, d) * draw(st.sampled_from((1.0, 1e-13, 1e6)))
    elif kind == "NaN":
        nan = draw(st.sampled_from((np.nan, complex(0, np.nan))))
        values.flat[rng.choice(d * d, size=min(d * d, 3), replace=False)] = nan
    return gw.Kernel(values)


@settings(max_examples=200, deadline=None)
@given(flagged_kernels())
def test_moduli_and_flags_match_their_table_formulas(kernel):
    """A kernel's cached ``(min |K|, max |K|)``, the unimodular flags and every ``validate``
    flag, are their formulas over the table's entries; a NaN entry makes both moduli NaN."""
    entries = np.abs(kernel.values).ravel().tolist()  # numpy's modulus: Python's may differ in the last bit
    nan = any(math.isnan(m) for m in entries)
    q = gw.build_quantizer(gw.PhaseGrid(kernel.dim, 0.37), kernel, check=False)
    np.testing.assert_array_equal(kernel.moduli, (math.nan, math.nan) if nan else (min(entries), max(entries)))
    unimodular = not nan and gw.linalg.within(max(abs(m - 1.0) for m in entries))
    assert gw.verify_quantizer(q).unimodular == unimodular == gw.is_unimodular(kernel)
    assert dataclasses.asdict(gw.validate(kernel)) == oracles.validity_formulas(kernel)


FAMILY_EPS = [None, 0.3, -1.1, math.pi / 4, math.pi / 2, 1e8, math.nan, math.inf]
CONSTRUCTORS = {"symmetric": gw.symmetric_kernel, "wootters": gw.wootters_kernel, "almost-symmetric": gw.almost_symmetric_kernel}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(gw.kernels.FAMILIES), st.integers(-3, 70), st.sampled_from(FAMILY_EPS))
@example("symmetric", 1, None)  # the edges of the rule, drawn or not
@example("wootters", 3, None)
@example("almost-symmetric", 0, None)
@example("almost-symmetric", 2, None)
@example("almost-symmetric", 4, math.pi / 4)
def test_a_family_kernel_is_its_constructors_or_the_command_lines_refusal(label, dim, eps):
    """``kernels._family_kernel`` returns the public constructor's kernel for ``N = dim // 2``, bit for bit and
    pickled alike, or raises the refusal the command line prints for that dimension or for a skew of an odd
    family, or the constructor's own."""
    if label == "almost-symmetric":
        admitted, refusal = dim % 2 == 0 and dim >= 2, f"kernel 'almost-symmetric' requires an even dimension >= 2, got {dim}"
        args = (dim // 2, eps)
    else:
        admitted, refusal = dim % 2 == 1 and dim >= 3, f"kernel {label!r} requires an odd dimension >= 3, got {dim}"
        if admitted and eps is not None:
            admitted, refusal = False, f"kernel {label!r} takes no skew angle, got eps={eps!r}"
        args = ((dim - 1) // 2,)
    try:
        expected = CONSTRUCTORS[label](*args) if admitted else None
    except ValueError as exc:  # the constructor refuses eps
        expected, refusal = None, str(exc)
    if expected is None:
        with pytest.raises(ValueError) as exc:
            gw.kernels._family_kernel(label, dim, eps)
        assert str(exc.value) == refusal
        return
    kernel = gw.kernels._family_kernel(label, dim, eps)
    assert kernel.values.tobytes() == expected.values.tobytes()
    assert (kernel.dim, kernel.chirps, kernel.label, kernel.eps) == (dim, expected.chirps, expected.label, expected.eps)
    assert pickle.loads(pickle.dumps(kernel)).values.tobytes() == expected.values.tobytes()


def test_kernels_quantizers_and_grids_compare_and_hash_by_identity():
    # the generated value equality compared their arrays: == raised "truth value ... is ambiguous", hash a TypeError
    kernel, rho = gw.symmetric_kernel(2), gw.maximally_mixed(5)
    q = gw.build_quantizer(gw.PhaseGrid(5), kernel)
    w = gw.wigner(q, rho)
    for obj, twin in (
        (kernel, gw.symmetric_kernel(2)),
        (gw.Kernel(kernel.values), gw.Kernel(kernel.values)),
        (q, gw.build_quantizer(gw.PhaseGrid(5), kernel)),
        (w, gw.WignerGrid(w.grid, w.kernel_label, w.values.copy())),
        (gw.HalfIntegerWignerGrid(1, 0.0, np.zeros((4, 4))), gw.HalfIntegerWignerGrid(1, 0.0, np.zeros((4, 4)))),
    ):
        assert obj == obj and obj != twin and not obj == twin
        assert {obj: 1, twin: 2}[obj] == 1
    assert gw.PhaseGrid(5, 0.3) == gw.PhaseGrid(5, 0.3) and gw.Line(1, 2, 0, 5) == gw.Line(1, 2, 0, 5)  # values: compared by value


NON_INTEGERS = {
    "fock level True": lambda: gw.fock_state(3, True),
    "fock level 1.5": lambda: gw.fock_state(3, 1.5),
    "fock dim 3.0": lambda: gw.fock_state(3.0, 1),
    "phase index 0.5": lambda: gw.phase_state(3, 0.5),
    "mixed dim 2.0": lambda: gw.maximally_mixed(2.0),
    "superposition dim True": lambda: gw.superposition01(True),
    "random dim 2.5": lambda: gw.random_density(2.5, np.random.default_rng(0)),
    "symmetric N 2.5": lambda: gw.symmetric_kernel(2.5),
    "wootters N True": lambda: gw.wootters_kernel(True),
    "almost-symmetric N 1.5": lambda: gw.almost_symmetric_kernel(1.5),
    "epsilon N 1.5": lambda: gw.default_epsilon(1.5),
    "grid dim True": lambda: gw.PhaseGrid(True),
    "number ket 1.5": lambda: gw.number_ket(gw.PhaseGrid(3), 1.5),
    "phase ket 1.5": lambda: gw.phase_ket(gw.PhaseGrid(3), 1.5),
    "displacement k 1.5": lambda: gw.displacement(gw.PhaseGrid(3), 1.5, 0),
    "displacement l 0.5": lambda: gw.displacement(gw.PhaseGrid(3), 1, 0.5),
    "line n2 True": lambda: gw.Line(1, True, 0, 3),
}


@pytest.mark.parametrize("make", NON_INTEGERS.values(), ids=NON_INTEGERS.keys())
def test_sizes_and_levels_reject_non_integers(make):
    with pytest.raises(ValueError, match="must be an integer"):
        make()


BELOW_ONE = {
    "symmetric N 0": lambda: gw.symmetric_kernel(0),
    "wootters N -1": lambda: gw.wootters_kernel(-1),
    "almost-symmetric N 0": lambda: gw.almost_symmetric_kernel(0),
    "epsilon N 0": lambda: gw.default_epsilon(0),
    "epsilon N -1": lambda: gw.default_epsilon(-1),
}


@pytest.mark.parametrize("make", BELOW_ONE.values(), ids=BELOW_ONE.keys())
def test_half_sizes_reject_values_below_one(make):
    with pytest.raises(ValueError, match="N must be a positive integer"):
        make()


@pytest.mark.parametrize(
    "make",
    [gw.maximally_mixed, lambda d: gw.random_density(d, np.random.default_rng(0)), lambda d: gw.fock_state(d, 0)],
    ids=["mixed", "random", "fock"],
)
@pytest.mark.parametrize("dim", [0, -1])
def test_dimensions_reject_values_below_one(make, dim):
    with pytest.raises(ValueError, match="dimension must be a positive integer"):
        make(dim)


@pytest.mark.parametrize("bloch", [(math.nan, 0, 0), (0, math.inf, 0), (0, 0, -math.inf), (1, 1, 0)])
def test_qubit_state_rejects_non_finite_and_long_bloch_vectors(bloch):
    with pytest.raises(ValueError, match="Bloch vector"):
        gw.qubit_state(*bloch)
