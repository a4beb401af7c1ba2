"""The block float formatter against ``repr`` and ``%.17g``, token by token and
byte for byte.

``_floattext`` must write every finite double as ``repr`` does in JSON rows, and
as ``'%.17g' % x`` does in CSV rows.  Hypothesis draws raw 64-bit patterns; fixed
sweeps cover every binary exponent and the values where the decimal or the text
layout changes course: zeros, the subnormals, the smallest normal, powers of two
(whose rounding interval is asymmetric), integers up to ``2**53``, ties (between
two shortest decimals, and at the 18th digit), the borders of the positional
form (``1e-4`` and ``1e16`` for ``repr``, ``1e-4`` and ``1e17`` for ``%.17g``), a
17-digit rounding that carries into a power of ten, and three-digit exponents.

The rows that differ from the row before them go to ``json.dumps`` and ``'%'``
below ``_jsonio.VECTOR_MIN`` floats; this module sets that limit to 0, so that
its tables of a few floats reach the block formatter (``test_files`` tests the
limit itself).
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridwigner import _floattext, _jsonio


@pytest.fixture(autouse=True, scope="module")
def block_formatter():
    """Every table of this module goes through the block formatter, however few its floats."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_jsonio, "VECTOR_MIN", 0)
        yield


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


# --- %.17g, the CSV decimal ----------------------------------------------------


def g17_tokens(values):
    """The module's ``%.17g`` text of each of ``values``, the last field of the lines
    of one CSV grid row."""
    (row,) = _floattext.grid_csv_rows(np.zeros(1), np.array([values], dtype=np.float64))
    assert row[-1] == "\n"
    return [line.split(",")[3] for line in row[:-1].split("\n")]


def assert_as_g17(values):
    values = [v for v in values if math.isfinite(v)]
    if values:
        assert g17_tokens(values) == ["%.17g" % v for v in values]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=80))
def test_raw_bit_patterns_read_as_g17(patterns):
    assert_as_g17(np.array(patterns, np.uint64).view(np.float64).tolist())


def test_every_binary_exponent_reads_as_g17():
    rng = np.random.default_rng(2048)
    mantissas = np.array([0, 1, 2, 3, 5, 2**51, 2**52 - 1, *rng.integers(0, 2**52, 9)], np.uint64)
    bits = ((np.arange(2047, dtype=np.uint64) << np.uint64(52))[:, None] | mantissas).ravel()
    assert_as_g17(signed(bits.view(np.float64).tolist()))


def test_ties_round_half_to_even_at_17_digits():
    """Exact halves at the 18th digit: where the scaled double has 17 digits the
    round-to-odd bits decide them, where it has 16 the undecided entries do."""
    assert g17_tokens([1250000000000000.25, 1250000000000000.75]) == ["1250000000000000.2", "1250000000000000.8"]
    ties = [2.0**49 + 0.125, 2.0**49 + 0.375, 2.0**49 + 0.625, 2.0**49 + 0.875]
    assert g17_tokens(ties) == ["562949953421312.12", "562949953421312.38", "562949953421312.62", "562949953421312.88"]
    *_, undecided = _floattext._decimal(np.array(ties).view(np.uint64), shortest=False)
    assert undecided.all()
    rng = np.random.default_rng(18)
    quarters = rng.integers(4 * 10**15, 2**53, 2000) / 4.0  # .25 and .75 from 1e15 to 2**51 are ties
    eighths = rng.integers(8 * 10**14, 2**53, 2000) / 8.0  # .125 and the like from 1e14 to 2**50
    assert_as_g17(signed([*quarters.tolist(), *eighths.tolist()]))


G17_BORDERS = [
    9.9999999999999991e-05, 0.0001, 0.00010000000000000002, 99999999999999984.0, 1e17,
    1.0000000000000002e17, 9999999999999998.0, 1e16, 1e-5, 1e15,
]


def test_g17_edges():
    """Borders of the positional form, zeros, integers without ``.0``, subnormal edges
    and powers of ten, whose doubles below them round up to them at 17 digits."""
    assert g17_tokens([9.9999999999999991e-05, 0.0001, 99999999999999984.0, 1e17]) == [
        "9.9999999999999991e-05", "0.0001", "99999999999999984", "1e+17",
    ]
    assert g17_tokens([0.0, -0.0, 1.0, -7.0, 123.0]) == ["0", "-0", "1", "-7", "123"]
    assert g17_tokens([5e-324]) == ["4.9406564584124654e-324"]
    neighbours = [math.nextafter(v, d) for v in G17_BORDERS + EDGES for d in (-math.inf, math.inf)]
    tens = [float(f"1e{e}") for e in range(-323, 309)]
    assert_as_g17(signed(G17_BORDERS + EDGES + neighbours + tens))


def test_powers_of_two_read_as_g17():
    assert_as_g17(signed([2.0**e for e in range(-1074, 1024)]))


def test_integers_up_to_2_53_read_as_g17():
    rng = np.random.default_rng(54)
    ints = [*range(10_001), *(2**53 - i for i in range(64)), 2**53, 2**53 + 2, *rng.integers(0, 2**53, 500).tolist()]
    assert_as_g17(signed([float(i) for i in ints]))


def test_subnormals_read_as_g17():
    small = np.arange(1, 20_001, dtype=np.uint64)
    top = np.uint64(2**52) - small
    middle = np.random.default_rng(1074).integers(1, 2**52, 5000, dtype=np.uint64)
    assert_as_g17(np.concatenate([small, top, middle]).view(np.float64).tolist())


def test_csv_rows_across_blocks_match_the_percent_template():
    """Grids that are not square, rows split across blocks, a row longer than a
    block, one row and one line."""
    rng = np.random.default_rng(8)
    for rows, lines in [(3, 2 * _floattext.BLOCK + 5), (301, 37), (1, 1), (40, 1)]:
        values = rng.standard_normal((rows, lines)) * 10.0 ** rng.integers(-30, 30, (rows, lines))
        phis = rng.uniform(0, 7, rows)
        expected = ["".join(f"{i},{j},{phis[i]:.17g},{values[i, j]:.17g}\n" for j in range(lines)) for i in range(rows)]
        assert list(_floattext.grid_csv_rows(phis, values)) == expected


# --- repeated rows, formatted once ---------------------------------------------


def percent_lines(phis, values):
    return ["".join("%d,%d,%.17g,%.17g\n" % (i, j, phis[i], v) for j, v in enumerate(row)) for i, row in enumerate(values.tolist())]


@st.composite
def tables_with_repeats(draw):
    """A table drawn from a few distinct rows, in runs: some rows differ only by the sign
    of a zero, some tables are complex, and ``block`` may cut runs across block borders."""
    cols = draw(st.integers(1, 9))
    entry = st.sampled_from([0.0, -0.0, 1.0, -2.5e-300, 5e-324, 1e17, 0.1]) | st.floats(allow_nan=False, allow_infinity=False)
    base = draw(st.lists(entry, min_size=cols, max_size=cols))
    pool = [base, [-v if v == 0 else v for v in base]]  # the same but for zero signs
    pool += draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), max_size=2))
    runs = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1), st.integers(1, 6)), min_size=1, max_size=8))
    table = np.array([pool[i] for i, n in runs for _ in range(n)], dtype=np.float64)
    if draw(st.booleans()):  # complex with equal rows: each entry a [re, im] pair
        table = np.stack([table, table[::-1]], axis=-1)
    return table, draw(st.sampled_from([1, 2, 3, 5, 8, 4096]))


@settings(max_examples=300, deadline=None)
@given(tables_with_repeats())
def test_repeated_rows_read_as_json_dumps_and_percent(drawn):
    table, block = drawn
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_floattext, "BLOCK", block)
        assert list(_floattext.json_rows(table)) == [json.dumps(row.tolist()) for row in table]
        if table.ndim == 2:
            phis = np.linspace(0.0, 6.0, len(table))
            assert list(_floattext.grid_csv_rows(phis, table)) == percent_lines(phis, table)


def test_equal_rows_a_single_row_and_signed_zeros_read_as_json_dumps_and_percent(monkeypatch):
    rng = np.random.default_rng(34)
    row = rng.standard_normal(7)
    zeros = np.array([[0.0, -0.0, 1.0], [-0.0, 0.0, 1.0], [-0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    tables = [np.tile(row, (50, 1)), row[None], zeros, np.tile(row + 1j * row[::-1], (9, 1))]
    for block in (3, 7, 4096):
        monkeypatch.setattr(_floattext, "BLOCK", block)
        for table in tables:
            pairs = table.view(np.float64).reshape(*table.shape, 2) if np.iscomplexobj(table) else table
            assert list(_floattext.json_rows(pairs)) == [json.dumps(r.tolist()) for r in pairs]
            if not np.iscomplexobj(table):
                phis = np.arange(len(table)) * 0.37
                assert list(_floattext.grid_csv_rows(phis, table)) == percent_lines(phis, table)


@pytest.mark.parametrize("d", [7, 129])
def test_a_table_of_equal_rows_formats_one_row(monkeypatch, d):
    """Each row equal to the one before it reuses that row's text: a d x d table of one
    row repeated formats d entries, for JSON and for CSV, over every block."""
    formatted = []
    cells = _floattext._cells

    def counting(x, g=False):
        formatted.append(len(x))
        return cells(x, g)

    monkeypatch.setattr(_floattext, "_cells", counting)
    table = np.tile(np.random.default_rng(d).standard_normal(d), (d, 1))
    assert list(_floattext.json_rows(table)) == [json.dumps(r.tolist()) for r in table]
    assert sum(formatted) == d
    formatted.clear()
    phis = np.arange(d) * 0.1
    assert list(_floattext.grid_csv_rows(phis, table)) == percent_lines(phis, table)
    assert sum(formatted) == d


@pytest.mark.parametrize("block", [1, 7, 4096])
def test_non_finite_values_read_as_percent(monkeypatch, block):
    """A nan of either sign and any payload reads ``nan``, and the infinities ``inf`` and ``-inf``,
    as ``'%.17g' %`` writes them: among finite values, in repeated rows, in rows of nothing else
    and across blocks.  The cells of the finite values are made from finite entries only."""
    rng = np.random.default_rng(9)
    payloads = rng.integers(1, 2**52, 30, dtype=np.uint64)
    nans = np.concatenate([payloads | np.uint64(0x7FF << 52), payloads | np.uint64(0xFFF << 52)]).view(np.float64)
    values = rng.standard_normal((40, 9)) * 10.0 ** rng.integers(-30, 30, (40, 9))
    values.flat[rng.choice(values.size, len(nans) + 4, replace=False)] = [*nans, math.inf, -math.inf, math.inf, -math.inf]
    values[10:13] = values[9]
    values[20] = [math.nan, -math.nan, math.inf, -math.inf, math.copysign(math.nan, -1.0), math.inf, *nans[:3]]
    values[21] = values[20]
    values[30] = -math.inf
    inputs, cells = [], _floattext._cells
    monkeypatch.setattr(_floattext, "_cells", lambda x, g=False: inputs.append(np.isfinite(x).all()) or cells(x, g))
    monkeypatch.setattr(_floattext, "BLOCK", block)
    phis = np.linspace(-3.0, 3.0, len(values))
    assert list(_floattext.grid_csv_rows(phis, values)) == percent_lines(phis, values)
    assert inputs and all(inputs)


# --- Hermitian pair tables, the upper triangle mirrored -------------------------

MIRROR_PLANTS = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, *BORDERS, -1e-5, 1e300]


def pairs_of(table):
    """The ``(d, d, 2)`` float table of ``[re, im]`` pairs of a complex table."""
    return np.ascontiguousarray(table).view(np.float64).reshape(*table.shape, 2)


def hermitian(d, rng, scale=1.0):
    """An exactly Hermitian table: every lower entry the bitwise conjugate of its mirror."""
    table = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) * scale
    lower = np.tril_indices(d, -1)
    table[lower] = table.T[lower].conj()
    table.imag[np.diag_indices(d)] = 0.0
    return table


@st.composite
def mirror_tables(draw):
    """A pairs table that is Hermitian bit for bit, or near it, and a block size.  Sides fall on
    both sides of ``VECTOR_MIN`` pairs tables (19 and 20) and above one block; edge values are
    planted in conjugate pairs, ``-0.0`` and ``+0.0`` imaginary parts on and off the diagonal
    among them.  Near a Hermitian table, one real part moves by one ulp or one imaginary pair
    is equal instead of negated."""
    d = draw(st.integers(1, 24) | st.sampled_from([19, 20, 46, 47, 65]))
    table = hermitian(d, np.random.default_rng(draw(st.integers(0, 2**32 - 1))), draw(st.sampled_from([1.0, 1e-300, 1e300])))
    index = st.integers(0, d - 1)
    plant = st.tuples(index, index, st.sampled_from(MIRROR_PLANTS), st.sampled_from(MIRROR_PLANTS))
    for i, j, re, im in draw(st.lists(plant, max_size=8)):
        table[i, j], table[j, i] = complex(re, im), complex(re, -im)
        if i == j:
            table[i, i] = complex(re, draw(st.sampled_from([0.0, -0.0, im])))
    near = d > 1 and draw(st.booleans())
    if near:
        i, j = draw(st.lists(index, min_size=2, max_size=2, unique=True))
        if draw(st.booleans()):
            table.real[i, j] = np.nextafter(table.real[i, j], draw(st.sampled_from([-math.inf, math.inf])))
        else:
            table.imag[i, j] = table.imag[j, i]
    return pairs_of(table), near, draw(st.sampled_from([1, 2, 3, 5, 8, 4096]))


@settings(max_examples=300, deadline=None)
@given(mirror_tables())
def test_hermitian_tables_read_as_json_dumps(drawn):
    """The mirror route writes the bytes of ``json.dumps`` rows over every block size, and
    only an exactly Hermitian table takes it."""
    table, near, block = drawn
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_floattext, "BLOCK", block)
        assert list(_floattext.json_rows(table)) == [json.dumps(row.tolist()) for row in table]
    assert _floattext._mirrored(table) == (not near and len(table) + 1 < 2 * fresh_rows(table))


def fresh_rows(table):
    """The rows that differ bit for bit from the row before them: the rows that the row route formats."""
    bits = table.reshape(len(table), -1).view(np.uint64)
    return 1 + np.count_nonzero((bits[1:] != bits[:-1]).any(axis=1))


def counted(monkeypatch):
    """The float count of each call of ``_cells`` from now on."""
    formatted, cells = [], _floattext._cells
    monkeypatch.setattr(_floattext, "_cells", lambda x, g=False: formatted.append(len(x)) or cells(x, g))
    return formatted


@pytest.mark.parametrize("d", [129, 257])
def test_a_hermitian_state_formats_its_upper_triangle(monkeypatch, d):
    """A state as ``reconstruct`` returns it formats d (d + 1) floats, about half of its
    2 d**2; one imaginary pair made equal sends it back to the row route, all 2 d**2."""
    import gridwigner as gw

    kernel = gw.symmetric_kernel((d - 1) // 2)
    state = gw.reconstruct(gw.wigner_grid(gw.PhaseGrid(d), kernel, gw.random_density(d, np.random.default_rng(d))), kernel)
    table = pairs_of(state)
    formatted = counted(monkeypatch)
    assert list(_floattext.json_rows(table)) == [json.dumps(row.tolist()) for row in table]
    assert sum(formatted) == d * (d + 1) <= 0.55 * 2 * d**2
    formatted.clear()
    table[2, 1, 1] = table[1, 2, 1]
    assert list(_floattext.json_rows(table)) == [json.dumps(row.tolist()) for row in table]
    assert sum(formatted) == 2 * d**2


def repeated_pairs(d, pairs):
    """A Hermitian table, bit for bit, whose rows ``2k`` and ``2k + 1`` are equal for each
    ``k < pairs``: 0.25 with imaginary part +0.0 above the diagonal and -0.0 below it, and
    on the diagonal -0.0 at ``2k`` and +0.0 at ``2k + 1``."""
    table = np.full((d, d), 0.25 + 0j)
    table[np.tril_indices(d, -1)] = complex(0.25, -0.0)
    table.imag[np.arange(0, 2 * pairs, 2), np.arange(0, 2 * pairs, 2)] = -0.0
    return pairs_of(table)


def one_ulp_off(table):
    """``table`` with the real part of entry (7, 3) one ulp up, so that it is no longer Hermitian."""
    table[7, 3, 0] = np.nextafter(table[7, 3, 0], math.inf)
    return table


@pytest.mark.parametrize("case", ["hermitian", "near", "complex", "pairs 1", "pairs 31", "pairs 32", "rows 1"])
def test_no_table_formats_more_than_its_rows(monkeypatch, case):
    """A table formats at most what the row route does, 2d floats per row that differs from
    the row before it; a Hermitian table with so many equal rows takes the row route."""
    d, rng = 65, np.random.default_rng(65)
    table = {
        "hermitian": lambda: pairs_of(hermitian(d, rng)),
        "near": lambda: one_ulp_off(pairs_of(hermitian(d, rng))),
        "complex": lambda: pairs_of(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))),
        "pairs 1": lambda: repeated_pairs(d, 1),
        "pairs 31": lambda: repeated_pairs(d, 31),
        "pairs 32": lambda: repeated_pairs(d, 32),
        "rows 1": lambda: np.tile(pairs_of(hermitian(d, rng))[:1], (d, 1, 1)),
    }[case]()
    formatted = counted(monkeypatch)
    for block in (5, 4096):
        monkeypatch.setattr(_floattext, "BLOCK", block)
        formatted.clear()
        assert list(_floattext.json_rows(table)) == [json.dumps(row.tolist()) for row in table]
        rows = 2 * d * fresh_rows(table)
        assert sum(formatted) == (d * (d + 1) if _floattext._mirrored(table) else rows) <= rows
    assert _floattext._mirrored(table) == (case in ("hermitian", "pairs 1", "pairs 31"))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**63 - 1) | st.sampled_from([0, 1, 2, 2**52 - 1, 2**52, 2**62]), min_size=1, max_size=60), st.booleans())
def test_a_cell_and_its_negation_differ_in_the_sign_byte_alone(patterns, g):
    """The reuse rule's premise: every byte of a cell but the sign byte, byte 2 of word 0, depends on
    |x| alone, so a reused cell is its source's with that byte written from its own sign bit.  Raw bit
    patterns of |x| (zero, subnormals and the smallest normal among them), both styles."""
    x = np.array(patterns, np.uint64).view(np.float64)
    x = x[np.isfinite(x)]
    if len(x):
        plus, minus = _floattext._cells(x, g)[:, :4], _floattext._cells(-x, g)[:, :4]  # JSON's word 4 is the caller's
        assert (plus[:, 1:] == minus[:, 1:]).all()
        assert ((plus[:, 0] ^ minus[:, 0]) == np.uint64(ord("-") << 16)).all()
        assert (minus[:, 0] >> np.uint64(16) & np.uint64(255) == np.uint64(ord("-"))).all()
