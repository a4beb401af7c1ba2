"""The identity suite against the dense suite it replaced.

``oracles.verify_dense`` builds the whole ``dim**4`` operator table, forms
the complex overlap product and loops over every line and every
line-family labelling.  The library checks the same identities through
displacement covariance: every operator is a clock and shift conjugate of
an operator ``Omega(0, n)``, and every line projector of a family a
displacement conjugate of the family's line through the origin, so it
builds the operators ``Omega(0, n)`` of the levels its budget allows,
reads all their overlaps from one FFT of the factor-table products,
checks one axis line per axis and the exact projectivity of one projector
per family.  Both must give the same PASS/FAIL verdict on every check and
deviations within 1e-12, for every valid dimension 3..45 of the three
built-in kernels and for random custom kernels, whose tilted lines are no
projectors: there the projectivity deviation is matched to 1e-12
relative.  The two overlap deviations of the dense suite also carry the
imaginary roundoff of its complex product (up to 2.4e-12 at dim 45), which
the real overlaps do not form; that residue is allowed on top.  With the
budget shrunk so that sampling runs at these sizes, the verdicts must not
change.  The overlaps also match the explicit real Gram product of the
checked operators, the placed line coefficients match the FFT2 of the line
indicators, and the covariance itself is checked on the oracle operators
and line projectors.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gridwigner as gw
import oracles
from gridwigner import quantizer

AGREE = 1e-12
CHECKS = (
    "hermiticity_dev", "trace_dev", "phase_sum_dev", "number_sum_dev",
    "completeness_dev", "overlap_dev", "orthogonality_dev",
)
LINE_CHECKS = {"projectivity_dev": "projectivity_dev", "completeness_dev": "line_completeness_dev"}
KERNELS = {
    "symmetric": gw.symmetric_kernel,
    "wootters": gw.wootters_kernel,
    "almost-symmetric": gw.almost_symmetric_kernel,
}
CASES = [
    (d, family, phi0)
    for d in range(3, 46)
    for family in KERNELS
    if (family == "almost-symmetric") == (d % 2 == 0)
    for phi0 in (0.0, 0.37, 1.3)
]


def _quantizer(d, family, phi0):
    return gw.build_quantizer(gw.PhaseGrid(d, phi0), KERNELS[family](d // 2))


@functools.cache
def _dense(d, family, phi0):
    return oracles.verify_dense(_quantizer(d, family, phi0), lines=family == "wootters")


def _verdicts(devs):
    return {name: dev <= gw.TOL for name, dev in devs.items()}


def _library(q, lines):
    report = gw.verify_quantizer(q)
    devs = {name: getattr(report, name) for name in CHECKS}
    if lines:
        line_report = gw.verify_lines(q)
        devs.update({key: getattr(line_report, name) for name, key in LINE_CHECKS.items()})
    return report, devs


def _assert_agree(q, dense, lines):
    report, devs = _library(q, lines)
    assert report.seed is None and report.checked == q.grid.dim**2
    assert _verdicts(devs) == _verdicts({name: dense[name] for name in devs})
    for name, dev in devs.items():
        # the complex product leaves an imaginary residue on the overlaps that
        # the library's real overlaps do not form at all
        slack = dense["overlap_imag"] if name in ("overlap_dev", "orthogonality_dev") else 0.0
        assert abs(dev - dense[name]) <= AGREE + slack, name


@pytest.mark.parametrize("d, family, phi0", CASES)
def test_matches_the_dense_suite(d, family, phi0):
    _assert_agree(_quantizer(d, family, phi0), _dense(d, family, phi0), family == "wootters")


@pytest.mark.parametrize("d, family, phi0", CASES)
def test_sampling_keeps_every_verdict(monkeypatch, d, family, phi0):
    budget = 9**4
    monkeypatch.setattr(quantizer, "BUDGET", budget)
    report, devs = _library(_quantizer(d, family, phi0), family == "wootters")
    dense = _dense(d, family, phi0)
    assert _verdicts(devs) == _verdicts({name: dense[name] for name in devs})
    if d**4 > budget:
        # every operator at the levels the drawn points hit; no seed once they hit every level
        drawn = np.random.default_rng(quantizer.SAMPLE_SEED).choice(d * d, max(1, budget // d**2), replace=False)
        levels = len(np.unique(drawn % d))
        assert report.checked == levels * d
        assert report.seed == (None if levels == d else quantizer.SAMPLE_SEED)


@settings(max_examples=25, deadline=None)
@given(
    d=st.integers(2, 15),
    phi0=st.floats(-2 * math.pi, 2 * math.pi),
    seed=st.integers(0, 2**32 - 1),
    unimodular=st.booleans(),
)
def test_custom_kernels_match_the_dense_suite(d, phi0, seed, unimodular):
    kernel = oracles.random_kernel(d, np.random.default_rng(seed), unimodular=unimodular)
    q = gw.build_quantizer(gw.PhaseGrid(d, phi0), kernel)
    report, devs = _library(q, lines=False)
    dense = oracles.verify_dense(q, lines=d % 2 == 1)
    _assert_agree(q, dense, lines=False)
    assert report.unimodular == unimodular
    if d % 2:
        # tilted lines of a custom kernel are no projectors: the exact norm must match the dense one
        line_report = gw.verify_lines(q)
        dense_p = dense["projectivity_dev"]
        assert abs(line_report.projectivity_dev - dense_p) <= AGREE * max(1.0, dense_p)
        assert (line_report.projectivity_dev <= gw.TOL) == (dense_p <= gw.TOL)
        assert abs(line_report.completeness_dev - dense["line_completeness_dev"]) <= AGREE


def test_non_unimodular_custom_kernel_fails_orthogonality_in_both():
    kernel = oracles.random_kernel(9, np.random.default_rng(3))
    q = gw.build_quantizer(gw.PhaseGrid(9, 0.37), kernel)
    dense = oracles.verify_dense(q, lines=True)
    _assert_agree(q, dense, lines=False)
    report = gw.verify_quantizer(q)
    assert report.core_pass() and not report.orthogonality_pass()
    assert dense["orthogonality_dev"] > 1e-3


def test_sample_is_seeded_and_within_the_budget():
    # at d = 101 the BUDGET // d**2 = 401 drawn points hit 97 of the 101 levels
    q = _quantizer(101, "wootters", 0.37)
    first, again = gw.verify_quantizer(q), gw.verify_quantizer(q)
    assert first == again
    assert first.seed == quantizer.SAMPLE_SEED and first.checked == 97 * 101
    lines = gw.verify_lines(q)
    assert lines.families == 102 and lines.checked == quantizer.BUDGET // 101**3
    assert lines.seed == quantizer.SAMPLE_SEED


@pytest.mark.parametrize("d", [47, 61])
def test_a_sample_that_hits_every_level_checks_every_operator(d):
    # d = 47: 1856 drawn points, d = 61: 1102, and both hit every level
    report = gw.verify_quantizer(_quantizer(d, "wootters", 0.37))
    assert report.seed is None and report.checked == d * d


@pytest.mark.parametrize("d", [3, 9, 15, 21, 25, 27, 45, 47, 63, 105])
def test_line_families_are_the_smallest_labels(d):
    n1, n2 = gw.tomography._line_families(d)
    units = [c for c in range(1, d) if math.gcd(c, d) == 1]
    expected = [
        (a, b)
        for a in range(d)
        for b in range(d)
        if math.gcd(math.gcd(a, b), d) == 1 and min(((c * a) % d, (c * b) % d) for c in units) == (a, b)
    ]
    assert list(zip(n1.tolist(), n2.tolist())) == expected


def test_sampled_check_catches_a_broken_operator(monkeypatch):
    # a kernel without the conjugation pairing makes non-Hermitian operators
    values = gw.symmetric_kernel(10).values.copy()
    values[3, 4] *= 1.5
    q = gw.build_quantizer(gw.PhaseGrid(21, 0.37), gw.kernel_from_table(values), check=False)
    monkeypatch.setattr(quantizer, "BUDGET", 9**4)
    report = gw.verify_quantizer(q)
    assert report.seed is not None
    assert report.hermiticity_dev > gw.TOL and report.overlap_dev > gw.TOL


@pytest.mark.parametrize(
    "d, family, budget",
    [(15, "wootters", None), (20, "almost-symmetric", None), (21, "symmetric", 9**4), (61, "wootters", 9**4)],
)
def test_overlaps_match_the_explicit_gram(monkeypatch, d, family, budget):
    if budget is not None:
        monkeypatch.setattr(quantizer, "BUDGET", budget)
    q = _quantizer(d, family, 0.37)
    report = gw.verify_quantizer(q)
    assert (report.seed is None) == (budget is None)
    overlap, orthogonality = oracles.overlap_gram(q)
    assert abs(report.overlap_dev - overlap) <= AGREE
    assert abs(report.orthogonality_dev - orthogonality) <= AGREE


def test_overlaps_of_broken_operators_match_the_explicit_gram(monkeypatch):
    # the operators are not Hermitian, so the overlaps are Re sum Omega_s conj(Omega_t), not traces
    values = gw.symmetric_kernel(10).values.copy()
    values[3, 4] *= 1.5
    q = gw.build_quantizer(gw.PhaseGrid(21, 0.37), gw.kernel_from_table(values), check=False)
    monkeypatch.setattr(quantizer, "BUDGET", 9**4)
    report = gw.verify_quantizer(q)
    overlap, orthogonality = oracles.overlap_gram(q)
    assert overlap > gw.TOL
    assert abs(report.overlap_dev - overlap) <= AGREE
    assert abs(report.orthogonality_dev - orthogonality) <= AGREE


def _indicators(d, n1, n2, offsets):
    idx = np.arange(d)
    return ((n1 * idx[:, None] + n2 * idx) % d == np.asarray(offsets)[:, None, None]).astype(float)


def _assert_lines_match_the_indicator_fft(q, n1, n2):
    d = q.grid.dim
    expected = gw.quantize(q, _indicators(d, n1, n2, range(d)))
    if d % 2:
        assert np.max(np.abs(gw.family_projectors(q, n1, n2) - expected)) <= AGREE
        for n3 in (0, d // 2, d - 1):
            assert np.max(np.abs(gw.line_projector(q, gw.Line(n1, n2, n3, d)) - expected[n3])) <= AGREE
    assert np.max(np.abs(quantizer._line_sums(q, n1, n2, np.arange(d)) - expected)) <= AGREE


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(2, 45),
    phi0=st.one_of(st.floats(-2 * math.pi, 2 * math.pi), st.floats(-1e8, 1e8)),
    seed=st.integers(0, 2**32 - 1),
    custom=st.booleans(),
)
def test_placed_line_coefficients_match_the_indicator_fft(d, phi0, seed, custom):
    rng = np.random.default_rng(seed)
    if custom:
        kernel = oracles.random_kernel(d, rng, unimodular=bool(rng.integers(2)))
    else:
        kernel = (gw.wootters_kernel if d % 2 else gw.almost_symmetric_kernel)(d // 2)
    q = gw.build_quantizer(gw.PhaseGrid(d, phi0), kernel)
    # the axis directions, which the axis sums of the identity suite use at any parity
    _assert_lines_match_the_indicator_fft(q, 1, 0)
    _assert_lines_match_the_indicator_fft(q, 0, 1)
    if d % 2:
        n1, n2 = gw.tomography._line_families(d)
        f = rng.integers(len(n1))
        _assert_lines_match_the_indicator_fft(q, int(n1[f]), int(n2[f]))


@pytest.mark.parametrize(
    "d, n1, n2", [(9, 3, 1), (15, 5, 2), (15, 3, 7), (21, 7, 3), (25, 5, 1), (45, 9, 2), (45, 15, 4), (45, 0, 1)]
)
def test_placed_line_coefficients_where_n1_is_no_unit(d, n1, n2):
    q = gw.build_quantizer(gw.PhaseGrid(d, 0.37), gw.wootters_kernel(d // 2))
    _assert_lines_match_the_indicator_fft(q, n1, n2)


def _conjugator(grid, a, b):
    """``V**a (U^+)**b``, which takes ``Omega(m, n)`` to ``Omega(m + a, n + b)``."""
    u_dagger = gw.u_op(grid).conj().T
    return np.linalg.matrix_power(gw.v_op(grid), a) @ np.linalg.matrix_power(u_dagger, b)


@settings(max_examples=30, deadline=None)
@given(
    d=st.integers(2, 15),
    phi0=st.one_of(st.floats(-2 * math.pi, 2 * math.pi), st.floats(-1e8, 1e8)),
    seed=st.integers(0, 2**32 - 1),
    custom=st.booleans(),
)
def test_operators_and_lines_are_displacement_covariant(d, phi0, seed, custom):
    rng = np.random.default_rng(seed)
    if custom:
        kernel = oracles.random_kernel(d, rng, unimodular=bool(rng.integers(2)))
    elif d % 2:
        kernel = (gw.symmetric_kernel, gw.wootters_kernel)[rng.integers(2)](d // 2)
    else:
        kernel = gw.almost_symmetric_kernel(d // 2)
    grid = gw.PhaseGrid(d, phi0)
    om = oracles.omega(grid, kernel)
    clock, shift = _conjugator(grid, 1, 0), _conjugator(grid, 0, 1)
    assert np.max(np.abs(np.roll(om, -1, axis=0) - clock @ om @ clock.conj().T)) <= AGREE
    assert np.max(np.abs(np.roll(om, -1, axis=1) - shift @ om @ shift.conj().T)) <= AGREE
    if d % 2:
        n1s, n2s = gw.tomography._line_families(d)
        f = rng.integers(len(n1s))
        n1, n2 = int(n1s[f]), int(n2s[f])
        origin = oracles.line_projector(grid, kernel, gw.Line(n1, n2, 0, d))
        a, b = np.divmod(np.arange(d * d), d)
        for n3 in {0, 1, int(rng.integers(d))}:
            at = np.flatnonzero((n1 * a + n2 * b) % d == n3)[0]
            x = _conjugator(grid, int(a[at]), int(b[at]))
            line = oracles.line_projector(grid, kernel, gw.Line(n1, n2, n3, d))
            assert np.max(np.abs(line - x @ origin @ x.conj().T)) <= AGREE
