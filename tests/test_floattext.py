"""The CSV float formatter against its oracle, `repr`.

`report._row` and `write_iterates_csv` write every float of barycenter.csv
and iterates.csv as `repr`'s shortest round-trip text, so a stored
certificate replays bit for bit.  Every check here compares the text with
`",".join(map(repr, values))`.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saddlebary._floattext import _BLOCK, rows_text
from saddlebary.report import _row


def _reprs(values):
    return ",".join(map(repr, np.asarray(values, dtype=float).tolist()))


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(st.lists(st.floats()))
def test_row_is_the_reprs_joined(values):
    # st.floats() draws NaN, both infinities, both zeros and subnormals
    assert _row(values) == ",".join(map(repr, values))


def test_random_bit_patterns():
    bits = np.random.default_rng(2028).integers(0, 2**64, 10**6, dtype=np.uint64)
    values = bits.view(np.float64)
    assert _row(values) == _reprs(values)


def test_subnormals_with_small_mantissas():
    values = np.arange(1, 2**16, dtype=np.uint64).view(np.float64)
    assert _row(values) == _reprs(values)
    assert _row(-values) == _reprs(-values)


@pytest.mark.parametrize("base", [2, 10])
def test_powers_and_their_neighbours(base):
    if base == 2:
        powers = np.ldexp(1.0, np.arange(-1074, 1024))
    else:
        powers = np.array([float(f"1e{e}") for e in range(-323, 309)])
    values = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    assert _row(values) == _reprs(values)
    assert _row(-values) == _reprs(-values)


def test_notation_switch_points():
    # repr writes fixed notation for a decimal point at -3..16 from the first digit
    points = np.array([0.0001, 1e-05, 9999999999999998.0, 1e16, 1e17, 123456789012345680.0])
    values = np.concatenate([points, np.nextafter(points, 0.0), np.nextafter(points, np.inf)])
    assert _row(values) == _reprs(values)
    assert _row(-values) == _reprs(-values)
    assert _row(points) == "0.0001,1e-05,9999999999999998.0,1e+16,1e+17,1.2345678901234568e+17"


@pytest.mark.parametrize("width", [0, 1, 4, 64, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 5])
def test_rows_across_blocks(width):
    # short rows share a block, long rows span several; a row's text is the same either way
    rows = 3 if width > _BLOCK else 2 * _BLOCK // max(width, 1) + 3
    values = np.random.default_rng(width).standard_normal((rows, width)) * 1e-5
    assert list(rows_text(values)) == [_reprs(row) for row in values]


def test_memory_stays_a_row_of_text():
    # work arrays are a block's size, whatever the row's length
    values = np.random.default_rng(5).random(2**20) * 1e-5
    _row(values[:10])  # tables built before the count starts
    tracemalloc.start()
    try:
        text = _row(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= len(text) + 4 * 2**20
