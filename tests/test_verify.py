"""The identity suite against the dense suite it replaced.

``oracles.verify_dense`` builds the whole ``dim**4`` operator table, forms
the complex overlap product and loops over every line and every
line-family labelling.  The library checks the same identities through
displacement covariance: every operator is a clock and shift conjugate of
``Omega(0, 0)``, and every line projector of a family a displacement
conjugate of the family's line through the origin, so it builds
``Omega(0, 0)`` alone, reads the overlaps of every pair from one forward
kernel map of it, and reads each axis sum and the exact projectivity of
every family's line through the origin from that line's ``dim`` kernel
coefficients, building no line operator.  Both must give the same
PASS/FAIL verdict on every check and deviations within 1e-12, for every
valid dimension 3..45 of the three built-in kernels and for random custom
kernels, whose tilted lines are no projectors: there the projectivity
deviation is matched to 1e-12 relative.  The two overlap deviations of the
dense suite also carry the imaginary roundoff of its complex product (up
to 2.4e-12 at dim 45), which the real overlaps do not form; that residue
is allowed on top.  No family is sampled at any size: the line report
is the worst of every family.  The three closed forms (projectivity from the
coefficients, the axis sums by Parseval, the family labels by divisor) are
property-tested against the explicit projectors, the explicit line sums and
the code walk of ``oracles``.  The overlaps also
match the explicit real Gram product of every pair, the placed line
coefficients match the FFT2 of the line indicators, and the covariance
itself is checked on the oracle operators and line projectors: the
``dim**4`` pair table is the library's ``dim x dim`` table at ``s - t``, and
every operator has the Hermiticity and trace deviations of ``Omega(0, 0)``.
"""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gridwigner as gw
import oracles
from gridwigner import quantizer, tomography

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
def test_sampling_keeps_every_verdict(d, family, phi0):
    # nothing is sampled: the line report is the worst explicit projector of every family
    q = _quantizer(d, family, phi0)
    _, devs = _library(q, family == "wootters")
    dense = _dense(d, family, phi0)
    assert _verdicts(devs) == _verdicts({name: dense[name] for name in devs})
    if d % 2:
        lines = gw.verify_lines(q)
        n1, n2 = oracles.line_families(d)
        worst = max(oracles.line_projectivity(q, a, b) for a, b in zip(n1.tolist(), n2.tolist()))
        assert lines.families == len(n1)
        assert abs(lines.projectivity_dev - worst) <= AGREE * max(1.0, worst)


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
    # no report names a sample: at d = 101 every one of the 102 families is checked,
    # so a defect on the line of any one family fails (a seeded sample of 3 missed most)
    q = _quantizer(101, "wootters", 0.37)
    assert gw.verify_quantizer(q) == gw.verify_quantizer(q)
    for report in (gw.QuantizerReport, gw.LineReport):
        assert {"checked", "seed"}.isdisjoint(f.name for f in dataclasses.fields(report))
    lines = gw.verify_lines(q)
    assert lines == gw.verify_lines(q)
    assert lines.families == 102 and lines.projectivity_dev <= gw.TOL
    n1, n2 = tomography._line_families(101)
    for f in (0, 40, 77, 101):
        values = q.kernel.values.copy()
        values[5 * n1[f] % 101, 5 * n2[f] % 101] *= 1.5  # on the line of family f only: 101 is prime
        broken = gw.build_quantizer(q.grid, gw.Kernel(values), check=False)
        assert gw.verify_lines(broken).projectivity_dev > gw.TOL


@pytest.mark.parametrize("d", [47, 61])
def test_a_sample_that_hits_every_level_checks_every_operator(d):
    # no sample any more: the report covers the explicit operators of every level and every angle
    q = _quantizer(d, "wootters", 0.37)
    report = gw.verify_quantizer(q)
    m = np.concatenate([np.zeros(d, int), np.arange(d)])
    n = np.concatenate([np.arange(d), np.zeros(d, int)])
    points = np.zeros((2 * d, d, d))
    points[np.arange(2 * d), m, n] = d
    ops = gw.quantize(q, points)
    herm = np.max(np.linalg.norm(ops - ops.conj().swapaxes(-1, -2), axis=(-2, -1)))
    assert abs(herm - report.hermiticity_dev) <= AGREE
    assert abs(np.max(np.abs(np.trace(ops, axis1=-2, axis2=-1) - 1.0)) - report.trace_dev) <= AGREE
    rows = np.concatenate([ops.real, ops.imag], axis=1).reshape(2 * d, -1)
    predicted = np.fft.fft2(np.abs(q.kernel.values) ** 2) / d
    gram_dev = np.max(np.abs(rows @ rows.T - predicted[(m[:, None] - m) % d, (n[:, None] - n) % d]))
    assert gram_dev <= report.overlap_dev + AGREE


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


def test_line_families_match_the_code_walk():
    # the labels by divisor against the walk over every code n1*dim + n2, for every odd d <= 401
    for d in range(1, 402, 2):
        n1, n2 = tomography._line_families(d)
        walk = oracles.line_families(d)
        assert np.array_equal(n1, walk[0]) and np.array_equal(n2, walk[1]), d


ODD_DIMS = st.one_of(st.sampled_from((9, 15, 21, 25, 27, 33, 45)), st.integers(0, 22).map(lambda n: 2 * n + 1))
ANGLES = st.one_of(st.floats(-2 * math.pi, 2 * math.pi), st.floats(-1e8, 1e8))
KINDS = st.sampled_from(("builtin", "custom", "unpaired", "broken"))


def _drawn_quantizer(d, phi0, kind, rng):
    """A quantizer of a built-in or random custom kernel; ``unpaired`` scales an interior
    entry off its partner's conjugate, ``broken`` an entry of an edge line."""
    if kind == "builtin" and d > 2:
        families = (gw.symmetric_kernel, gw.wootters_kernel) if d % 2 else (gw.almost_symmetric_kernel,)
        kernel = families[rng.integers(len(families))](d // 2)
    else:
        kernel = oracles.random_kernel(d, rng, unimodular=bool(rng.integers(2)))
    values = kernel.values.copy()
    if kind == "unpaired":
        values[tuple(rng.integers(min(1, d - 1), d, size=2))] *= 1.5 + 0.5j
    elif kind == "broken":
        edge = (rng.integers(d), 0) if rng.integers(2) else (0, rng.integers(d))
        values[edge] *= 1.5 - 0.5j
    return gw.build_quantizer(gw.PhaseGrid(d, phi0), gw.Kernel(values), check=False)


@settings(max_examples=40, deadline=None)
@given(d=ODD_DIMS, phi0=ANGLES, seed=st.integers(0, 2**32 - 1), kind=KINDS)
def test_line_projectivity_matches_the_explicit_projectors(d, phi0, seed, kind):
    # every family's norm from its d coefficients against ||P @ P - P||_F of its explicit projector
    q = _drawn_quantizer(d, phi0, kind, np.random.default_rng(seed))
    n1, n2 = tomography._line_families(d)
    devs = tomography._projectivity(q, n1, n2)
    for a, b, dev in zip(n1.tolist(), n2.tolist(), devs.tolist()):
        explicit = oracles.line_projectivity(q, a, b)
        assert abs(dev - explicit) <= AGREE * max(1.0, explicit), (a, b)
    assert gw.verify_lines(q).projectivity_dev == np.max(devs)


@settings(max_examples=40, deadline=None)
@given(d=st.one_of(ODD_DIMS, st.integers(1, 45)), phi0=ANGLES, seed=st.integers(0, 2**32 - 1), kind=KINDS)
def test_axis_sums_match_the_explicit_line_sums(d, phi0, seed, kind):
    q = _drawn_quantizer(d, phi0, kind, np.random.default_rng(seed))
    report = gw.verify_quantizer(q)
    phase, number = oracles.axis_sum_devs(q)
    assert abs(report.phase_sum_dev - phase) <= AGREE * max(1.0, phase)
    assert abs(report.number_sum_dev - number) <= AGREE * max(1.0, number)
    if kind == "broken":
        assert max(phase, number) > gw.TOL


def _broken_quantizer():
    # a kernel without the conjugation pairing makes non-Hermitian operators
    values = gw.symmetric_kernel(10).values.copy()
    values[3, 4] *= 1.5
    return gw.build_quantizer(gw.PhaseGrid(21, 0.37), gw.Kernel(values), check=False)


def test_sampled_check_catches_a_broken_operator():
    report = gw.verify_quantizer(_broken_quantizer())
    assert report.hermiticity_dev > gw.TOL and report.overlap_dev > gw.TOL


@pytest.mark.parametrize("d, family", [(15, "wootters"), (20, "almost-symmetric"), (21, "symmetric"), (31, "wootters")])
def test_overlaps_match_the_explicit_gram(d, family):
    q = _quantizer(d, family, 0.37)
    report = gw.verify_quantizer(q)
    overlap, orthogonality = oracles.overlap_gram(q)
    assert abs(report.overlap_dev - overlap) <= AGREE
    assert abs(report.orthogonality_dev - orthogonality) <= AGREE


def test_overlaps_of_broken_operators_match_the_explicit_gram():
    # the operators are not Hermitian, so the overlaps are Re sum Omega_s conj(Omega_t), not traces
    q = _broken_quantizer()
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
    if d % 2 == 0:
        with pytest.raises(ValueError, match="odd dimensions"):
            gw.family_projectors(q, n1, n2)
        return
    expected = gw.quantize(q, _indicators(d, n1, n2, range(d)))
    assert np.max(np.abs(gw.family_projectors(q, n1, n2) - expected)) <= AGREE
    for n3 in (0, d // 2, d - 1):
        assert np.max(np.abs(gw.line_projector(q, gw.Line(n1, n2, n3, d)) - expected[n3])) <= AGREE


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


@settings(max_examples=30, deadline=None)
@given(
    d=st.integers(2, 21),
    phi0=st.one_of(st.floats(-2 * math.pi, 2 * math.pi), st.floats(-1e8, 1e8)),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(("builtin", "custom", "unpaired")),
)
def test_every_pair_and_every_operator_is_read_from_the_origin(d, phi0, seed, kind):
    rng = np.random.default_rng(seed)
    if kind == "builtin":
        kernel = (gw.wootters_kernel if d % 2 else gw.almost_symmetric_kernel)(d // 2)
    else:
        kernel = oracles.random_kernel(d, rng, unimodular=bool(rng.integers(2)))
    if kind == "unpaired":  # an interior entry off its partner's conjugate: non-Hermitian operators
        values = kernel.values.copy()
        values[rng.integers(1, d), rng.integers(1, d)] *= 1.5 + 0.5j
        kernel = gw.Kernel(values)
    grid = gw.PhaseGrid(d, phi0)
    q = gw.build_quantizer(grid, kernel, check=False)
    report = gw.verify_quantizer(q)
    om = oracles.omega(grid, kernel).reshape(d * d, d, d)  # row s is the point (m, n) = divmod(s, d)
    flat = om.reshape(d * d, -1)
    pairs = (flat @ flat.conj().T).real  # [s, t] = Re sum_ab Omega_s[a, b] conj(Omega_t[a, b])
    table = quantizer._overlap_table(q, om[0])
    m, n = np.divmod(np.arange(d * d), d)
    assert np.max(np.abs(pairs - table[(m[:, None] - m) % d, (n[:, None] - n) % d])) <= AGREE * kernel.moduli[1]**2
    herm = np.linalg.norm(om - om.conj().swapaxes(-1, -2), axis=(-2, -1))
    trace = np.abs(np.trace(om, axis1=-2, axis2=-1) - 1.0)
    assert np.max(np.abs(herm - report.hermiticity_dev)) <= AGREE * kernel.moduli[1]
    assert np.max(np.abs(trace - report.trace_dev)) <= AGREE * kernel.moduli[1]
    if kind == "unpaired":
        assert report.hermiticity_dev > gw.TOL
