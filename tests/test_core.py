"""Property tests: the FFT routes against the oracles.

Random odd and even dimensions up to 40, random reference angles, random
states and random valid kernels (built-in families and custom tables from
the pairing rule).  Every library map must agree with its literal route
in ``oracles.py`` to 1e-12.  The half-integer grid (N up to 8) and the
relation transforms (odd dim up to 41) are also checked on arbitrary
real tables, relative to the table norm.  The positivity check is tested
over dimensions up to 64 against the eigenvalues and against the pivot
loop of diagonal-pivoted elimination.  The continuum sweep's point
evaluation is checked against whole tables for N up to 160, and so is
the absence of error on grids through the target angle.
``reconstruct``, the exact inverse of ``wigner_grid``, is checked against
the phase-basis inversion with its dense rotation for the three built-in
kernels at dimensions 2 to 65 and angles up to 1e8, to 1e-13, and it must
be exactly Hermitian (bitwise conjugate pairs, +0.0 imaginary diagonal)
at every size up to 700; whenever it passes and the CLI's state term is
within tolerance, ``wigner_grid`` gives the table back (built-in, random and
perturbed kernels, states, real tables and noisy states).  ``relate``, the
inverse map of one kernel followed by the forward map of another, is checked
against the target kernel's Wigner grid in both directions and against
the cosine convolution, and the CLI phase marginal against the dense
phase-overlap table, for dimensions 3 to 257 and angles up to 1e8; on
random real tables it is checked against the kernel-ratio route for
dimensions 2 to 33, built-in and random kernel pairs.
"""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import gridwigner as gw
import oracles
from gridwigner import cli, linalg
from gridwigner.cli import _phase_marginal
from conftest import random_complex

AGREE = 1e-12

cases = st.fixed_dictionaries(
    {
        "d": st.integers(1, 40),
        "phi0": st.one_of(st.floats(-2 * math.pi, 2 * math.pi), st.floats(-1e8, 1e8)),
        "seed": st.integers(0, 2**32 - 1),
        "family": st.sampled_from(("builtin", "custom", "unimodular")),
    }
)
odd_cases = cases.filter(lambda c: c["d"] % 2 == 1 and c["d"] >= 3)
SETTINGS = settings(max_examples=25, deadline=None)


def _kernel(d, family, rng):
    if family == "builtin" and d >= 2:
        n = d // 2
        if d % 2 == 0:
            return gw.almost_symmetric_kernel(n)
        return gw.symmetric_kernel(n) if rng.uniform() < 0.5 else gw.wootters_kernel(n)
    return oracles.random_kernel(d, rng, unimodular=family == "unimodular")


def _setup(case):
    rng = np.random.default_rng(case["seed"])
    grid = gw.PhaseGrid(case["d"], case["phi0"])
    kernel = _kernel(case["d"], case["family"], rng)
    return rng, grid, kernel, gw.build_quantizer(grid, kernel)


def _dev(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


@SETTINGS
@given(cases)
def test_characteristic_pair(case):
    rng, grid, _, _ = _setup(case)
    d = grid.dim
    a = random_complex(rng, 3, d, d)
    chi = gw.characteristic(grid, a)
    k, l = (int(x) for x in rng.integers(d, size=2))
    assert abs(chi[1, k, l] - np.trace(a[1] @ gw.displacement(grid, k, l))) <= AGREE * d
    assert _dev(chi[2], gw.characteristic(grid, a[2])) == 0.0
    assert _dev(gw.operator_from_characteristic(grid, chi), a) <= AGREE


@SETTINGS
@given(cases)
def test_wigner_maps_match_einsum(case):
    rng, grid, kernel, q = _setup(case)
    rho = gw.random_density(grid.dim, rng)
    expected = oracles.wigner(grid, kernel, rho)
    assert np.max(np.abs(expected.imag)) <= AGREE
    assert _dev(gw.wigner_grid(grid, kernel, rho).values, expected.real) <= AGREE
    assert _dev(gw.wigner(q, rho).values, expected.real) <= AGREE


@SETTINGS
@given(cases)
def test_quantize_and_symbol_match_einsum(case):
    rng, grid, kernel, q = _setup(case)
    d = grid.dim
    f = random_complex(rng, d, d)
    assert _dev(gw.quantize(q, f), oracles.quantize(grid, kernel, f)) <= AGREE
    op = random_complex(rng, d, d) / d
    assert _dev(gw.symbol(q, op), oracles.symbol(grid, kernel, op)) <= AGREE
    assert _dev(gw.symbol(q, gw.quantize(q, f)), f) <= AGREE
    stack = random_complex(rng, 2, d, d)
    assert _dev(gw.quantize(q, stack)[1], gw.quantize(q, stack[1])) <= AGREE


@SETTINGS
@given(cases)
def test_lazy_omega_matches_einsum(case):
    _, grid, kernel, q = _setup(case)
    assert _dev(q.omega, oracles.omega(grid, kernel)) <= AGREE


FAMILIES = {
    "symmetric": gw.symmetric_kernel,
    "wootters": gw.wootters_kernel,
    "almost-symmetric": gw.almost_symmetric_kernel,
}
builtin = st.tuples(st.integers(1, 32), st.sampled_from(sorted(FAMILIES)))  # dim 2..65
large_angles = st.sampled_from((0.0, 0.37, 1e4, 1e8))


def _assert_exactly_hermitian(rec):
    lower = np.tril_indices(len(rec), -1)
    assert rec[lower].view(np.uint64).tobytes() == rec.T[lower].conj().view(np.uint64).tobytes()
    assert np.all(np.diagonal(rec).imag.view(np.uint64) == 0)  # +0.0


@settings(max_examples=60, deadline=None)
@given(builtin, large_angles, st.integers(0, 2**32 - 1), st.sampled_from(("random", "fock", "phase", "mixed")))
def test_fft_rotation_matches_dense_and_is_exactly_hermitian(family, phi0, seed, kind):
    """Real states too: pairs whose imaginary parts come out equal still conjugate bitwise."""
    kernel = FAMILIES[family[1]](family[0])
    d = kernel.dim
    grid = gw.PhaseGrid(d, phi0)
    rng = np.random.default_rng(seed)
    rho = {
        "random": lambda: gw.random_density(d, rng),
        "fock": lambda: gw.fock_state(d, int(rng.integers(d))),
        "phase": lambda: gw.phase_state(d, int(rng.integers(d)), phi0),
        "mixed": lambda: gw.maximally_mixed(d),
    }[kind]()
    w = gw.wigner_grid(grid, kernel, rho)
    rec = gw.reconstruct(w, kernel)
    assert _dev(rec, oracles.reconstruct(w, kernel)) <= 1e-13
    _assert_exactly_hermitian(rec)


@settings(max_examples=40, deadline=None)
@given(builtin, large_angles, st.integers(0, 2**32 - 1))
def test_reconstruction_mirror_is_bitwise_the_row_loop(family, phi0, seed):
    """The output is its own upper triangle mirrored by the row loop, and that triangle is the phase-basis one."""
    kernel = FAMILIES[family[1]](family[0])
    d = kernel.dim
    grid = gw.PhaseGrid(d, phi0)
    w = gw.wigner_grid(grid, kernel, gw.random_density(d, np.random.default_rng(seed)))
    rec = gw.reconstruct(w, kernel)
    expected = rec.copy()
    for a in range(1, d):
        expected[a, :a] = expected[:a, a].conj()
    np.fill_diagonal(expected.imag, 0.0)
    assert rec.tobytes() == expected.tobytes()
    upper = np.triu_indices(d)
    assert np.max(np.abs(rec[upper] - oracles.reconstruct(w, kernel)[upper])) <= 1e-13


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.integers(1, 300), st.integers(510, 700)), st.integers(0, 2**32 - 1))
def test_reconstruction_is_exactly_hermitian_at_every_size(d, seed):
    """Sizes 1 to 700, on grids of random states and of random real tables."""
    rng = np.random.default_rng(seed)
    if d == 1:
        kernel = gw.Kernel(np.ones((1, 1)))
    else:
        kernel = FAMILIES["almost-symmetric" if d % 2 == 0 else "symmetric"](d // 2)
    grid = gw.PhaseGrid(d, float(rng.uniform(-10, 10)))
    _assert_exactly_hermitian(gw.reconstruct(gw.wigner_grid(grid, kernel, gw.random_density(d, rng)), kernel))
    table = gw.WignerGrid(grid, kernel.label, rng.standard_normal((d, d)) / d, kernel.eps)
    _assert_exactly_hermitian(gw.reconstruct(table, kernel, validate_state=False))


@SETTINGS
@given(cases)
def test_reconstruction_matches_loop(case):
    rng, grid, kernel, q = _setup(case)
    rho = gw.random_density(grid.dim, rng)
    w = gw.wigner_grid(grid, kernel, rho)
    rec = gw.reconstruct(w, kernel)
    assert _dev(rec, oracles.reconstruct(w, kernel)) <= AGREE
    assert _dev(rec, rho) <= AGREE
    if gw.is_unimodular(kernel):
        back = oracles.reconstruct_unimodular(w, kernel)
        assert _dev(rec, back) <= AGREE
        assert _dev(grid.dim * gw.quantize(q, w.values), back) <= AGREE
        assert _dev(back, rho) <= AGREE


def _perturbed(kernel, rng):
    """The kernel with every entry moved by up to ``0.4 * TOL``: still valid, as a file kernel may be."""
    d = kernel.dim
    step = 0.4 * gw.TOL * rng.uniform(size=(d, d)) * np.exp(2j * np.pi * rng.uniform(size=(d, d)))
    perturbed = gw.Kernel(kernel.values + step)
    assert gw.validate(perturbed).valid
    return perturbed


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 65), st.floats(-1e8, 1e8), st.integers(0, 2**32 - 1),
    st.sampled_from(("builtin", "custom", "perturbed")), st.sampled_from(("state", "table", "noisy")),
)
def test_a_passing_state_term_implies_the_grid_round_trip(d, phi0, seed, family, kind):
    """What the CLI's dropped forward map checked: with ``reconstruct`` passing and the
    state term within tolerance, ``wigner_grid`` of the result gives the table back."""
    rng = np.random.default_rng(seed)
    grid = gw.PhaseGrid(d, phi0)
    kernel = _kernel(d, "custom" if family == "custom" else "builtin", rng)
    if family == "perturbed":
        kernel = _perturbed(kernel, rng)
    if kind == "table":
        values = rng.standard_normal((d, d)) * 10 ** rng.uniform(-3, 3)
    else:
        values = gw.wigner_grid(grid, kernel, gw.random_density(d, rng)).values
        if kind == "noisy":
            values = values + rng.standard_normal((d, d)) * 10 ** rng.uniform(-14, -9)
    w = gw.WignerGrid(grid, kernel.label, values, kernel.eps)
    rho = gw.reconstruct(w, kernel, validate_state=False)
    if linalg.within(cli._state_residual(rho)):
        assert _dev(gw.wigner_grid(grid, kernel, rho, validate_state=False).values, values) <= 10 * gw.TOL
    else:
        assert kind != "state"


@SETTINGS
@given(odd_cases)
def test_line_projectors_match_point_sums(case):
    rng, grid, kernel, q = _setup(case)
    d = grid.dim
    while True:
        n1, n2 = (int(x) for x in rng.integers(d, size=2))
        if math.gcd(math.gcd(n1, n2), d) == 1:
            break
    line = gw.Line(n1, n2, int(rng.integers(d)), d)
    proj = gw.line_projector(q, line)
    assert _dev(proj, oracles.line_projector(grid, kernel, line)) <= AGREE
    assert _dev(gw.family_projectors(q, n1, n2)[line.n3], proj) <= AGREE


def test_inconsistent_kernel_fails_like_the_loop(rng):
    # a kernel without the pairing makes non-Hermitian phase-point operators
    grid = gw.PhaseGrid(5, 0.4)
    kernel = gw.Kernel(oracles.random_kernel(5, rng).values * np.exp(0.3j))
    w = gw.WignerGrid(grid, kernel.label, rng.uniform(size=(5, 5)) / 25)
    with pytest.raises(gw.ReconstructionError, match="fails the conjugation pairing"):
        gw.reconstruct(w, kernel, validate_state=False)


@pytest.mark.parametrize("line", ["edge row", "edge column", "corner"])
def test_a_kernel_without_the_edge_pairing_is_refused(rng, line):
    # the interior keeps the pairing; an edge entry or the corner turned by 0.3 breaks the Hermiticity
    values = oracles.random_kernel(5, rng).values
    values[{"edge row": (0, 1), "edge column": (1, 0), "corner": (0, 0)}[line]] *= np.exp(0.3j)
    kernel = gw.Kernel(values)
    assert gw.validate(kernel).hermitian_pairing
    w = gw.WignerGrid(gw.PhaseGrid(5, 0.4), kernel.label, rng.uniform(size=(5, 5)) / 25)
    with pytest.raises(gw.ReconstructionError, match="fails the conjugation pairing"):
        gw.reconstruct(w, kernel, validate_state=False)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12), st.sampled_from((0.0, 0.37, 1e8)), st.integers(0, 2**32 - 1), st.floats(-9, -4), st.booleans())
@example(5, 0.0, 0, -8.0, False)  # the inverse's roundoff reaches 1e-9 here: above TOL on the scale of a state
@example(6, 0.37, 1, -5.0, True)
def test_a_paired_kernel_reconstructs_at_any_small_modulus(d, phi0, seed, low, edges):
    """One conjugate pair of a random valid kernel scaled to min |K| = 10**low, and with ``edges`` its edge
    lines doubled (not valid, still paired): the inverse of its state's grid is exactly Hermitian."""
    rng = np.random.default_rng(seed)
    values = oracles.random_kernel(d, rng).values
    a, b = (int(x) for x in rng.integers(1, d, size=2))
    for k, l in {(a, b), (d - a, d - b)}:
        values[k, l] *= 10**low / abs(values[k, l])
    if edges:
        values[0] *= 2.0
        values[1:, 0] *= 2.0
    kernel = gw.Kernel(values)
    validity = gw.validate(kernel)
    assert validity.hermitian_pairing and validity.valid != edges
    w = gw.wigner(gw.build_quantizer(gw.PhaseGrid(d, phi0), kernel, check=False), gw.random_density(d, rng))
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "kernel inversion is ill-conditioned")
        _assert_exactly_hermitian(gw.reconstruct(w, kernel, validate_state=False))


MAPS_DIVIDING_BY_A_KERNEL = {
    "symbol": lambda w, kernel, rng: gw.symbol(gw.build_quantizer(w.grid, kernel, check=False), gw.random_density(5, rng)),
    "reconstruct": lambda w, kernel, rng: gw.reconstruct(w, kernel, validate_state=False),
    "relate": lambda w, kernel, rng: gw.relate(w, kernel, gw.symmetric_kernel(2)).values,
}


@pytest.mark.parametrize("low", [0.0, 1e-13, gw.kernels.ZERO_TOL, np.nan], ids=["0", "1e-13", "ZERO_TOL", "nan"])
@pytest.mark.parametrize("apply", MAPS_DIVIDING_BY_A_KERNEL.values(), ids=MAPS_DIVIDING_BY_A_KERNEL.keys())
def test_a_kernel_with_a_zero_entry_is_refused_before_any_division(rng, apply, low):
    # a symmetric pair of entries at min |K| = low: validate's nonvanishing fails, so every map refuses alike
    values = oracles.random_kernel(5, rng).values
    values[2, 3] = values[3, 2] = low
    kernel = gw.Kernel(values)
    assert not gw.validate(kernel).nonvanishing
    w = gw.WignerGrid(gw.PhaseGrid(5), kernel.label, rng.uniform(size=(5, 5)) / 25)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match=f"^{re.escape(f'kernel has a zero entry (min |K| = {low:.3e}): the map divides by it')}$"):
            apply(w, kernel, rng)
    assert caught == []


def test_a_kernel_above_the_zero_tolerance_warns_and_divides(rng):
    # min |K| = 1e-8: above ZERO_TOL, below CONDITION_TOL, the map runs after one warning
    values = oracles.random_kernel(5, rng).values
    values[2, 3] = values[3, 2] = 1e-8
    kernel = gw.Kernel(values)
    w = gw.WignerGrid(gw.PhaseGrid(5), kernel.label, rng.uniform(size=(5, 5)) / 25)
    for apply in MAPS_DIVIDING_BY_A_KERNEL.values():
        with pytest.warns(UserWarning, match=r"^kernel inversion is ill-conditioned \(min \|K\| = 1\.000e-08\)$") as caught:
            assert np.isfinite(apply(w, kernel, rng)).all()
        assert len(caught) == 1


MAPS_FROM_A_GRID = {
    "reconstruct": lambda w, kernel: gw.reconstruct(w, kernel),
    "relate": lambda w, kernel: gw.relate(w, kernel, gw.almost_symmetric_kernel(4)),
}


@pytest.mark.parametrize("apply", MAPS_FROM_A_GRID.values(), ids=MAPS_FROM_A_GRID.keys())
def test_a_kernel_of_another_eps_than_the_grid_is_refused(apply):
    # a valid state whose grid, read with eps 0.25, reconstructs 5.6e-3 off and relates 6.5e-4 off
    rho = 0.8 * gw.maximally_mixed(8) + 0.2 * np.pad(gw.superposition01(), (0, 6))
    w = gw.wigner_grid(gw.PhaseGrid(8, 0.37), gw.almost_symmetric_kernel(4, 0.3), rho)
    with pytest.raises(ValueError, match="kernel eps=0.25 does not match grid epsilon 0.3"):
        apply(w, gw.almost_symmetric_kernel(4, 0.25))
    apply(w, gw.almost_symmetric_kernel(4, 0.3))
    apply(gw.WignerGrid(w.grid, w.kernel_label, w.values), gw.almost_symmetric_kernel(4, 0.25))  # no eps recorded


def test_omega_is_built_on_first_access():
    q = gw.build_quantizer(gw.PhaseGrid(5, 0.2), gw.symmetric_kernel(2))
    assert "omega" not in vars(q)
    assert q.omega is q.omega
    assert not hasattr(q, "dtensor")
    assert [f.name for f in dataclasses.fields(gw.Quantizer)] == ["grid", "kernel", "weights"]


def test_kernel_moduli_are_built_on_first_access():
    kernel = gw.symmetric_kernel(2)
    assert "moduli" not in vars(kernel)
    assert kernel.moduli is kernel.moduli
    assert not hasattr(kernel, "scale") and not hasattr(gw.build_quantizer(gw.PhaseGrid(5), kernel), "moduli")
    assert [f.name for f in dataclasses.fields(gw.Kernel)] == ["values", "label", "eps"]


half_cases = st.fixed_dictionaries(
    {
        "N": st.integers(1, 8),
        "phi0": st.floats(-2 * math.pi, 2 * math.pi),
        "seed": st.integers(0, 2**32 - 1),
        "from_state": st.booleans(),
    }
)


def _rel_dev(a, b, table):
    return _dev(a, b) / max(float(np.linalg.norm(table)), 1.0)


@SETTINGS
@given(half_cases)
def test_leonhardt_wigner_matches_phase_sums(case):
    rng = np.random.default_rng(case["seed"])
    N, phi0 = case["N"], case["phi0"]
    if case["from_state"]:
        rho = gw.random_density(2 * N, rng)
    else:  # any Hermitian matrix has a real table
        a = random_complex(rng, 2 * N, 2 * N)
        rho = a + a.conj().T
    w = gw.leonhardt_wigner(N, phi0, rho, validate_state=case["from_state"])
    assert _rel_dev(w.values, oracles.leonhardt_wigner_phase_form(N, phi0, rho).values, rho) <= AGREE
    assert _rel_dev(w.values, oracles.leonhardt_wigner_via_ops(N, phi0, rho).values, rho) <= AGREE
    assert _rel_dev(gw.leonhardt_reconstruct(w), rho, rho) <= AGREE


def _admitted(N, eps):
    """Whether ``almost_symmetric_kernel(N, eps)`` exists (no entry vanishes)."""
    try:
        gw.almost_symmetric_kernel(N, eps)
    except ValueError:
        return False
    return True


@settings(max_examples=15, deadline=None)  # the operator-sum oracle costs O(N**5)
@given(half_cases.flatmap(lambda case: st.tuples(
    st.just(case), st.floats(-1.5, 1.5).filter(lambda eps: _admitted(case["N"], eps))
)))
def test_half_grid_maps_match_operator_and_point_sums(case_eps):
    case, eps = case_eps
    rng = np.random.default_rng(case["seed"])
    N, phi0 = case["N"], case["phi0"]
    rho = gw.random_density(2 * N, rng)
    if case["from_state"]:
        w = gw.leonhardt_wigner(N, phi0, rho)
    else:
        w = gw.HalfIntegerWignerGrid(N, phi0, rng.standard_normal((4 * N, 4 * N)))
    assert _rel_dev(gw.leonhardt_reconstruct(w), oracles.leonhardt_reconstruct(w), w.values) <= AGREE
    out = gw.relate_even(w, eps)
    scale = abs(math.cos(eps))
    assert _rel_dev(out.values, oracles.relate_even(w.values, eps), w.values) * scale <= AGREE
    if case["from_state"]:
        direct = oracles.wigner_almost_symmetric(gw.PhaseGrid(2 * N, phi0), rho, eps)
        assert _dev(out.values, direct.values) * scale <= AGREE


@pytest.mark.parametrize("N", [1, 2, 3])
def test_half_grid_relation_refuses_an_eps_no_kernel_admits(N):
    # eps = 0 voids an entry at every even dim: no grid can be tagged with it
    w = gw.leonhardt_wigner(N, 0.37, gw.random_density(2 * N, np.random.default_rng(N)))
    with pytest.raises(ValueError) as refused:
        gw.almost_symmetric_kernel(N, 0.0)
    with pytest.raises(ValueError, match=re.escape(str(refused.value))):
        gw.relate_even(w, 0.0)


@SETTINGS
@given(
    st.integers(1, 20).map(lambda h: 2 * h + 1),
    st.floats(-2 * math.pi, 2 * math.pi),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_relate_odd_matches_point_sums(d, phi0, seed, from_state):
    rng = np.random.default_rng(seed)
    grid = gw.PhaseGrid(d, phi0)
    rho = gw.random_density(d, rng)
    if from_state:
        w = oracles.wigner_wootters(grid, rho)
    else:
        w = gw.WignerGrid(grid, "wootters", rng.standard_normal((d, d)))
    out = gw.relate_odd(w)
    assert _rel_dev(out.values, oracles.relate_odd(w.values), w.values) <= AGREE
    if from_state:
        assert _dev(out.values, oracles.wigner_symmetric(grid, rho).values) <= AGREE


relation_cases = st.fixed_dictionaries(
    {
        "d": st.integers(3, 257),
        "phi0": large_angles,
        "seed": st.integers(0, 2**32 - 1),
        "custom": st.booleans(),
    }
)


def _relation_pair(d, rng, custom):
    """Two kernels of one grid: sign and cosine (odd d), two skews (even d), or two random tables."""
    if custom:
        return oracles.random_kernel(d, rng), oracles.random_kernel(d, rng)
    if d % 2:
        return gw.wootters_kernel(d // 2), gw.symmetric_kernel(d // 2)
    while True:  # a skew whose kernel has no vanishing entry
        try:
            return gw.almost_symmetric_kernel(d // 2), gw.almost_symmetric_kernel(d // 2, float(rng.uniform(-1.5, 1.5)))
        except ValueError:
            continue


@settings(max_examples=30, deadline=None)
@given(relation_cases)
def test_relate_is_the_kernel_ratio_in_both_directions(case):
    d, rng = case["d"], np.random.default_rng(case["seed"])
    grid = gw.PhaseGrid(d, case["phi0"])
    rho = gw.random_density(d, rng)
    first, second = _relation_pair(d, rng, case["custom"])
    for k_from, k_to in ((first, second), (second, first)):
        w_from, w_to = gw.wigner_grid(grid, k_from, rho), gw.wigner_grid(grid, k_to, rho)
        out = gw.relate(w_from, k_from, k_to)
        assert (out.kernel_label, out.epsilon, out.grid) == (k_to.label, k_to.eps, grid)
        gain = float(np.max(np.abs(k_to.values / k_from.values)))
        assert _dev(out.values, w_to.values) <= 1e-15 * max(gain, 1.0)
    if d % 2 and not case["custom"]:
        w_from = gw.wigner_grid(grid, first, rho)
        out = gw.relate(w_from, first, second)
        assert _rel_dev(out.values, oracles.relate_odd_convolution(w_from.values), w_from.values) <= 1e-15
        assert _dev(gw.relate_odd(w_from).values, out.values) == 0.0


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 33), large_angles, st.integers(0, 2**32 - 1), st.booleans(), st.floats(-3, 6))
def test_relate_is_the_ratio_route_on_any_real_table(d, phi0, seed, custom, log_scale):
    """Not only images of states: a random real table of size ``10**log_scale`` relates as the kernel-ratio
    route of ``oracles.relate_ratio`` relates it, in both directions, to roundoff on the size of the inverse's
    output, ``max |K_to| / min |K_from|`` times ``max |W|`` (two skews exceed ``max |K_to / K_from|`` alone up to 1.9x)."""
    rng = np.random.default_rng(seed)
    grid = gw.PhaseGrid(d, phi0)
    values = rng.standard_normal((d, d)) * 10**log_scale
    first, second = _relation_pair(d, rng, custom)
    for k_from, k_to in ((first, second), (second, first)):
        out = gw.relate(gw.WignerGrid(grid, k_from.label, values, k_from.eps), k_from, k_to)
        gain = k_to.moduli[1] / k_from.moduli[0]
        bound = 1e-15 * max(1.0, gain) * max(1.0, float(np.max(np.abs(values))))
        assert _dev(out.values, oracles.relate_ratio(values, k_from.values, k_to.values)) <= bound


def test_relate_refuses_an_unpaired_kernel_from_before_dividing(rng):
    # the ratio route divided by this kernel and raised on the residue at most; reconstruct now refuses it first
    values = oracles.random_kernel(5, rng).values
    values[1, 2] *= np.exp(0.3j)  # its partner K[4, 3] is not turned
    kernel = gw.Kernel(values)
    assert not gw.validate(kernel).hermitian_pairing
    w = gw.WignerGrid(gw.PhaseGrid(5, 0.37), kernel.label, rng.uniform(size=(5, 5)) / 25)
    with pytest.raises(gw.ReconstructionError, match="fails the conjugation pairing"):
        gw.relate(w, kernel, gw.symmetric_kernel(2))


def test_relate_refuses_an_unpaired_kernel_to_on_its_residue(rng):
    # the forward map of kernel_to is left with an imaginary part that is no roundoff
    grid = gw.PhaseGrid(5, 0.37)
    w = gw.wigner_grid(grid, gw.wootters_kernel(2), gw.random_density(5, rng))
    values = gw.symmetric_kernel(2).values.copy()
    values[1, 2] *= np.exp(0.3j)
    assert not gw.validate(gw.Kernel(values)).hermitian_pairing
    with pytest.raises(ValueError, match="^Wigner values have imaginary residue .* beyond tolerance$"):
        gw.relate(w, gw.wootters_kernel(2), gw.Kernel(values))


@settings(max_examples=30, deadline=None)
@given(st.integers(3, 257), large_angles, st.integers(0, 2**32 - 1))
def test_cli_phase_marginal_is_the_phase_overlap_sum(d, phi0, seed):
    grid = gw.PhaseGrid(d, phi0)
    rho = gw.random_density(d, np.random.default_rng(seed))
    assert _dev(_phase_marginal(grid, rho), oracles.phase_overlap_table(grid, rho).sum(1).real) <= 1e-13


psd_cases = st.fixed_dictionaries(
    {
        "d": st.integers(1, 64),
        "phi0": st.floats(-2 * math.pi, 2 * math.pi),
        "seed": st.integers(0, 2**32 - 1),
        "kind": st.sampled_from(("full", "mixture", "fock", "phase")),
    }
)


def _unit(rng, d):
    v = random_complex(rng, d)
    return v / np.linalg.norm(v)


def _psd_state(case):
    """A density operator of the case's kind; mixtures have a random rank r <= d."""
    rng = np.random.default_rng(case["seed"])
    d, kind = case["d"], case["kind"]
    if kind == "full":
        return rng, gw.random_density(d, rng)
    if kind == "mixture":
        weights = rng.uniform(0.1, 1.0, size=int(rng.integers(1, d + 1)))
        kets = [_unit(rng, d) for _ in weights]
        return rng, sum(p * np.outer(k, k.conj()) for p, k in zip(weights / weights.sum(), kets))
    m = int(rng.integers(d))
    return rng, gw.fock_state(d, m) if kind == "fock" else gw.phase_state(d, m, case["phi0"])


def _lambda_min(a):
    return float(np.linalg.eigvalsh(a)[0])


def _oracle_accepts(a):
    return oracles.min_diag_pivot(a) >= -gw.TOL  # the slack of is_positive_semidefinite


@SETTINGS
@given(psd_cases)
def test_states_pass_the_positivity_check(case):
    _, rho = _psd_state(case)
    gw.check_density(rho)
    assert gw.psd_deficit(rho) <= AGREE


@st.composite
def generated_states(draw):
    """A state from one of the generators that the CLI returns unchecked, with its inputs."""
    d = draw(st.integers(1, 257))
    kind = draw(st.sampled_from(("fock", "phase", "mixed", "superposition01", "qubit")))
    if kind == "fock":
        return gw.fock_state(d, draw(st.integers(0, d - 1)))
    if kind == "phase":  # the CLI takes any integer index; the ket is periodic in it
        m = draw(st.one_of(st.integers(0, d - 1), st.integers(-(10**9), 10**9)))
        phi0 = draw(st.one_of(st.floats(-2 * math.pi, 2 * math.pi), st.floats(-1e8, 1e8)))
        return gw.phase_state(d, m, phi0)
    if kind == "mixed":
        return gw.maximally_mixed(d)
    if kind == "superposition01":
        return gw.superposition01(max(d, 2))
    direction = np.array(draw(st.tuples(*[st.floats(-1, 1)] * 3)))
    assume(np.linalg.norm(direction) > 1e-3)
    radius = draw(st.one_of(st.just(1.0), st.floats(0, 1)))  # on the unit sphere or inside it
    return gw.qubit_state(*(radius * direction / np.linalg.norm(direction)))


@settings(max_examples=200, deadline=None)
@given(generated_states())
def test_generated_states_are_density_operators(rho):
    """Every generator builds a density operator exactly, so the CLI checks none of them again."""
    assert gw.check_density(rho) is rho


@SETTINGS
@given(psd_cases, st.floats(1e-6, 1.0))
def test_a_negative_direction_is_rejected(case, t):
    # v^H bad v = -t, so the smallest eigenvalue of bad is at most -t
    rng, rho = _psd_state(case)
    d = case["d"]
    v = _unit(rng, d)
    delta = float(np.vdot(v, rho @ v).real) + t
    bad = rho - delta * np.outer(v, v.conj())
    assert _lambda_min(bad) <= -t * (1 - 1e-9)
    assert not gw.is_positive_semidefinite(bad)
    assert not _oracle_accepts(bad)
    assert gw.psd_deficit(bad) >= t * (1 - 1e-9)
    if d >= 2:  # moving the weight onto a direction w orthogonal to v keeps unit trace
        w = _unit(rng, d)
        w -= np.vdot(v, w) * v
        w /= np.linalg.norm(w)
        with pytest.raises(ValueError, match="positive semidefinite"):
            gw.check_density(bad + delta * np.outer(w, w.conj()))


def _verdict(check, rho):
    """``None`` if ``check`` accepts ``rho``, else its message."""
    try:
        check(rho)
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=100, deadline=None)
@given(psd_cases, st.sampled_from(("as is", "non-Hermitian", "non-PSD", "trace off", "NaN", "inf", "tiny skew")))
def test_one_pass_density_check_matches_the_predicates(case, defect):
    """The one-pass check gives the oracle's verdict and message on random, rank-deficient
    (mixtures, fock and phase states) and planted-defect inputs."""
    rng, rho = _psd_state(case)
    rho = np.array(rho, dtype=complex)
    d = case["d"]
    i, j = (int(x) for x in rng.integers(d, size=2))
    if defect == "non-Hermitian":
        rho[i, j] += 1e-3j
    elif defect == "non-PSD":  # the weight on v, and 0.1 more, spread over the identity: unit trace kept
        v = _unit(rng, d)
        t = float(np.vdot(v, rho @ v).real) + 0.1
        rho = rho - t * np.outer(v, v.conj()) + t * np.eye(d) / d
    elif defect == "trace off":
        rho = rho * (1 + 1e-6)
    elif defect in ("NaN", "inf"):
        rho[i, j] = np.nan if defect == "NaN" else np.inf
    elif defect == "tiny skew":  # within the tolerance of the Hermiticity distance
        rho[i, j] += 1e-13j
    assert _verdict(gw.check_density, rho) == _verdict(oracles.check_density, rho)


@SETTINGS
@given(psd_cases, st.floats(-1.0, 1.0))
def test_deficit_matches_the_smallest_eigenvalue(case, shift):
    rng, rho = _psd_state(case)
    d = case["d"]
    if case["seed"] % 2:  # a random Hermitian matrix
        g = random_complex(rng, d, d)
        a = g + g.conj().T
    else:  # a state shifted by up to its own norm: lambda_min on either side of zero
        a = rho - shift * np.linalg.norm(rho, 2) * np.eye(d)
    expected = max(0.0, -_lambda_min(a))
    assert abs(gw.psd_deficit(a) - expected) <= AGREE * np.linalg.norm(a)


@SETTINGS
@given(psd_cases, st.floats(-6.0, -1.0), st.booleans())
def test_decisions_agree_with_the_pivot_oracle(case, log_gap, negative):
    # lambda_min is placed at +-10**log_gap, at least 1e-6 away from zero
    _, rho = _psd_state(case)
    target = (-1.0 if negative else 1.0) * 10.0**log_gap
    a = rho + (target - _lambda_min(rho)) * np.eye(case["d"])
    assert abs(_lambda_min(a)) >= 1e-6 * (1 - 1e-6)
    assert gw.is_positive_semidefinite(a) == _oracle_accepts(a) == (not negative)
    assert (gw.psd_deficit(a) > 0) == negative


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(("fock", "phase", "ket")))
@example(seed=10250079, kind="ket")
def test_scaled_rank_one_projectors_are_accepted(seed, kind):
    rng = np.random.default_rng(seed)
    d, m = 129, int(rng.integers(129))
    if kind == "ket":
        v = _unit(rng, d)
        proj = np.outer(v, v.conj())
    else:
        proj = gw.fock_state(d, m) if kind == "fock" else gw.phase_state(d, m, rng.uniform(0, 2 * math.pi))
    assert gw.is_positive_semidefinite(1e6 * proj)


@st.composite
def continuum_cases(draw, max_n=160):
    """A state of support 1..6, a kernel family, a level, angles and grid sizes up to ``max_n``."""
    support = draw(st.integers(1, 6))
    n = draw(st.integers(0, max_n - support))
    return {
        "rho": gw.random_density(support, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))),
        "family": draw(st.sampled_from(("symmetric", "wootters", "almost-symmetric"))),
        "n": n,
        "phi": draw(st.floats(-10, 10)),
        "phi0": draw(st.floats(-10, 10)),
        "Ns": draw(st.lists(st.integers(support + n, max_n), min_size=1, max_size=4)),
    }


@SETTINGS
@given(continuum_cases())
def test_continuum_points_match_the_tables(case):
    args = (case["rho"], case["family"], case["n"], case["phi"], case["Ns"])
    point = gw.continuum_study(*args, phi0=case["phi0"])
    table = oracles.continuum_study_table(*args, phi0=case["phi0"])
    assert len(point.rows) == len(table.rows)
    for p, t in zip(point.rows, table.rows):
        assert (p.N, p.dim, p.n, p.phi_grid, p.target) == (t.N, t.dim, t.n, t.phi_grid, t.target)
        assert abs(p.scaled_value - t.scaled_value) <= 1e-13


@SETTINGS
@given(continuum_cases(max_n=50))
def test_grids_through_phi_leave_no_error_without_skew(case):
    # with phi0 = phi the whole tables of symmetric and wootters equal their targets
    rho, n, phi = case["rho"], case["n"], case["phi"]
    sizes = np.unique(np.geomspace(len(rho) + n, 160, 6).astype(int)).tolist()
    for family in ("symmetric", "wootters"):
        rep = oracles.continuum_study_table(rho, family, n, phi, sizes, phi0=phi)
        assert [r.phi_grid for r in rep.rows] == [phi] * len(sizes)
        assert max(rep.errors()) < 1e-14
        assert rep.slope() is None


@SETTINGS
@given(st.integers(2, 6), st.integers(0, 2**32 - 1), st.floats(-10, 10), st.data())
def test_almost_symmetric_skew_error_is_first_order(support, seed, phi, data):
    # on grids through phi the skew leaves tan(eps) * Im z / (2 pi), eps = 1/(2N):
    # slope -1 unless Im z vanishes
    rho = gw.random_density(support, np.random.default_rng(seed))
    n = data.draw(st.integers(0, support - 1), label="n")
    assume(abs((rho[n] @ np.exp(1j * (np.arange(support) - n) * phi)).imag) > 1e-3)
    sizes = np.unique(np.geomspace(1e2, 1e5, 12).astype(int)).tolist()
    rep = gw.continuum_study(rho, "almost-symmetric", n, phi, sizes, phi0=phi)
    assert [r.phi_grid for r in rep.rows] == [phi] * len(sizes)
    assert abs(rep.slope() + 1.0) <= 0.05
