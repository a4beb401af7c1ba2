"""Property tests: the FFT routes against the oracles.

Random odd and even dimensions up to 40, random reference angles, random
states and random valid kernels (built-in families and custom tables from
the pairing rule).  Every library map must agree with its literal route
in ``oracles.py`` to 1e-12.  The half-integer grid (N up to 8) and the
relation transforms (odd dim up to 41) are also checked on arbitrary
real tables, relative to the table norm.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gridwigner as gw
import oracles
from conftest import random_complex

AGREE = 1e-12

cases = st.fixed_dictionaries(
    {
        "d": st.integers(1, 40),
        "phi0": st.floats(-2 * math.pi, 2 * math.pi),
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


@SETTINGS
@given(cases)
def test_reconstruction_matches_loop(case):
    rng, grid, kernel, _ = _setup(case)
    rho = gw.random_density(grid.dim, rng)
    w = gw.wigner_grid(grid, kernel, rho)
    assert _dev(gw.phase_matrix_elements(w, kernel), oracles.phase_matrix_elements(w, kernel)) <= AGREE
    rec = gw.reconstruct(w, kernel)
    assert _dev(rec, oracles.reconstruct(w, kernel)) <= AGREE
    assert _dev(rec, rho) <= AGREE
    if gw.is_unimodular(kernel):
        back = gw.reconstruct_unimodular(w, kernel)
        assert _dev(back, oracles.reconstruct_unimodular(w, kernel)) <= AGREE
        assert _dev(back, rho) <= AGREE


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
    # a kernel without the pairing makes the phase-basis diagonal complex
    grid = gw.PhaseGrid(5, 0.4)
    kernel = gw.kernel_from_table(oracles.random_kernel(5, rng).values * np.exp(0.3j))
    w = gw.WignerGrid(grid, kernel.label, rng.uniform(size=(5, 5)) / 25)
    with pytest.raises(gw.ReconstructionError, match="diagonal residue"):
        gw.phase_matrix_elements(w, kernel)


def test_omega_is_built_on_first_access():
    q = gw.build_quantizer(gw.PhaseGrid(5, 0.2), gw.symmetric_kernel(2))
    assert "omega" not in vars(q)
    assert q.omega is q.omega
    assert not hasattr(q, "dtensor")


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
    assert _rel_dev(w.values, gw.leonhardt_wigner_phase_form(N, phi0, rho).values, rho) <= AGREE
    assert _rel_dev(w.values, gw.tomography.leonhardt_wigner_via_ops(N, phi0, rho).values, rho) <= AGREE
    assert _rel_dev(gw.leonhardt_reconstruct(w), rho, rho) <= AGREE


@SETTINGS
@given(half_cases, st.integers(-20, 20), st.integers(-20, 20))
def test_half_grid_operator_matches_dyad_sum(case, jm, jn):
    N, phi0 = case["N"], case["phi0"]
    assert _dev(gw.leonhardt_phase_point_op(N, phi0, jm, jn), oracles.leonhardt_phase_point_op(N, phi0, jm, jn)) <= AGREE


@settings(max_examples=15, deadline=None)  # the operator-sum oracle costs O(N**5)
@given(half_cases, st.floats(-1.5, 1.5))
def test_half_grid_maps_match_operator_and_point_sums(case, eps):
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
        direct = gw.wigner_almost_symmetric(gw.PhaseGrid(2 * N, phi0), rho, eps)
        assert _dev(out.values, direct.values) * scale <= AGREE


@SETTINGS
@given(
    st.integers(0, 20).map(lambda h: 2 * h + 1),
    st.floats(-2 * math.pi, 2 * math.pi),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_relate_odd_matches_point_sums(d, phi0, seed, from_state):
    rng = np.random.default_rng(seed)
    grid = gw.PhaseGrid(d, phi0)
    rho = gw.random_density(d, rng)
    if from_state:
        w = gw.wigner_wootters(grid, rho)
    else:
        w = gw.WignerGrid(grid, "wootters", rng.standard_normal((d, d)))
    out = gw.relate_odd(w)
    assert _rel_dev(out.values, oracles.relate_odd(w.values), w.values) <= AGREE
    if from_state:
        assert _dev(out.values, gw.wigner_symmetric(grid, rho).values) <= AGREE
