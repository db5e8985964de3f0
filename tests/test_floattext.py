"""``_floattext.format_rows`` spells every float64 as ``repr`` does, byte for byte."""

import numpy as np
import pytest

from esdkit._floattext import format_rows


def assert_repr(values):
    values = np.asarray(values, dtype=np.float64)
    text = format_rows(values[:, None], ["\n"])
    expected = "".join(repr(v) + "\n" for v in values.tolist())
    if text != expected:
        wrong = [(want, got) for want, got in zip(expected.split("\n"), text.split("\n"))
                 if want != got]
        pytest.fail(f"{len(wrong)} cells differ from repr (expected, got): {wrong[:5]}")


def neighbours(x, ulps=1000):
    """The ``2 * ulps + 1`` floats nearest ``x``, itself included."""
    bits = np.array([x]).view(np.int64)[0]
    return np.arange(bits - ulps, bits + ulps + 1).view(np.float64)


def test_random_bit_patterns():
    # every sign, exponent and mantissa, NaN payloads and infinities included
    rng = np.random.default_rng(20261018)
    assert_repr(rng.integers(0, 2**64, 10**6, dtype=np.uint64).view(np.float64))


def test_subnormals():
    rng = np.random.default_rng(7)
    subnormals = rng.integers(1, 2**52, 10**5, dtype=np.uint64).view(np.float64)
    assert_repr(np.concatenate((subnormals, -subnormals, np.arange(1, 1001) * 5e-324)))


def test_powers_of_two():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    assert_repr(np.concatenate((powers, -powers)))


def test_decimal_grid():
    # d * 10**e for every d < 1000, rounded to the nearest float, over the
    # whole exponent range; 1e23 and its kin sit between two floats
    assert_repr([float(f"{d}e{e}") for d in range(1, 1000) for e in range(-326, 309)])


@pytest.mark.parametrize("x", [1e16, 1e-4, 1e15, 1e17, 9.999999999999999e15])
def test_neighbours_of_the_notation_switches(x):
    # positional notation ends below 1e16 and starts at 1e-4
    assert_repr(np.concatenate((neighbours(x), -neighbours(x))))


def test_zeros_infinities_nan_and_extremes():
    assert_repr([
        0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
        2.225073858507201e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
        -1.7976931348623157e308, 1.0, 0.1, 123456789012345.6, 1e22, 1e23,
    ])
    assert format_rows(np.array([[np.nan, -np.nan]]), [",", "\n"]) == "nan,nan\n"


def test_separators_follow_their_columns_row_major():
    table = np.array([[0.5, -1e-5, 3.0], [1e16, 0.0, -np.inf]] * 700)
    expected = "0.5,-1e-05,,,,,3.0\n1e+16,0.0,,,,,-inf\n" * 700
    assert format_rows(table, [",", ",,,,,", "\n"]) == expected
