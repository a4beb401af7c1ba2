"""Property tests: the FFT characteristic-function core against the oracles.

Random odd and even dimensions up to 40, random reference angles, random
states and random valid kernels (built-in families and custom tables from
the pairing rule).  Every library map must agree with its literal route
in ``oracles.py`` to 1e-12.
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
