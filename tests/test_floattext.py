"""The block float formatter against ``repr``, token by token and byte for byte.

``_floattext`` must write every finite double as ``repr`` does.  Hypothesis draws
raw 64-bit patterns; fixed sweeps cover every binary exponent and the values
where the shortest-decimal search or the text layout changes course: zeros, the
subnormals with one-digit decimals, the smallest normal, powers of two (whose
rounding interval is asymmetric), integers up to ``2**53``, ties between two
shortest decimals, the borders of the positional form at ``1e-4`` and ``1e16``,
and three-digit exponents.
"""

import json
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from gridwigner import _floattext


def tokens(values):
    """The module's text of each of ``values``, taken from one row."""
    (row,) = _floattext.json_rows(np.array([values], dtype=np.float64))
    assert row[0] == "[" and row[-1] == "]"
    return row[1:-1].split(", ")


def assert_as_repr(values):
    values = [v for v in values if math.isfinite(v)]
    if values:
        assert tokens(values) == [repr(v) for v in values]


def signed(values):
    return [*values, *(-v for v in values)]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=80))
def test_raw_bit_patterns_read_as_repr(patterns):
    assert_as_repr(np.array(patterns, np.uint64).view(np.float64).tolist())


def test_every_binary_exponent_reads_as_repr():
    rng = np.random.default_rng(2047)
    mantissas = np.array([0, 1, 2, 3, 5, 2**51, 2**52 - 1, *rng.integers(0, 2**52, 9)], np.uint64)
    bits = ((np.arange(2047, dtype=np.uint64) << np.uint64(52))[:, None] | mantissas).ravel()
    assert_as_repr(signed(bits.view(np.float64).tolist()))


BORDERS = [
    9.999e-05, 1e-04, 0.0001, 0.00010000000000000002, 9.999999999999999e-05,
    9999999999999998.0, 1e16, 1.0000000000000002e16, 999999999999999.9, 1e15,
]
EDGES = [
    0.0, 5e-324, 1e-323, 1.5e-323, 2e-323, 2.225073858507201e-308, 2.2250738585072014e-308,
    1.7976931348623157e308, 1e-100, 1e100, 1.5e-300, 2.5e300, 1e-5, 1e22, 1e23, 0.1, 0.3,
    2**50 + 0.25, 2**50 + 0.75, 2**51 + 0.5, 2**52 + 1.0,  # ties between two shortest decimals
]


def test_edges_read_as_repr():
    neighbours = [math.nextafter(v, d) for v in BORDERS + EDGES for d in (-math.inf, math.inf)]
    assert_as_repr(signed(BORDERS + EDGES + neighbours))


def test_powers_of_two_read_as_repr():
    assert_as_repr(signed([2.0**e for e in range(-1074, 1024)]))


def test_integers_up_to_2_53_read_as_repr():
    rng = np.random.default_rng(53)
    ints = [*range(10_001), *(2**53 - i for i in range(64)), 2**53, 2**53 + 2, *rng.integers(0, 2**53, 500).tolist()]
    assert_as_repr(signed([float(i) for i in ints]))


def test_subnormals_read_as_repr():
    small = np.arange(1, 20_001, dtype=np.uint64)
    top = np.uint64(2**52) - small
    assert_as_repr(np.concatenate([small, top]).view(np.float64).tolist())


def test_rows_over_many_blocks_match_json_dumps():
    """Rows split across blocks, a row longer than a block, and nested pairs."""
    rng = np.random.default_rng(7)
    for shape in [(3, 2 * _floattext.BLOCK + 5), (301, 37), (97, 45, 2), (5, 1, 1), (1, 1)]:
        table = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30, shape)
        assert list(_floattext.json_rows(table)) == [json.dumps(row.tolist()) for row in table]
