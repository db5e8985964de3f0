"""``_floattext.format_rows`` spells every float64 as ``repr`` does, byte for byte.

Most tables here are below the size from which ``format_rows`` uses the
Schubfach kernel, so they call the kernel, ``_kernel_rows``, directly."""

from decimal import Decimal

import numpy as np
import pytest

from esdkit._floattext import _CHUNK, _KERNEL_FROM, _kernel_rows, format_rows


def assert_rows(text, expected):
    """``text == expected``, reporting the first differing rows; a plain
    ``assert`` would have pytest diff the whole tables, which takes minutes."""
    if text != expected:
        got, want = text.split("\n"), expected.split("\n")
        wrong = [(i, w, g) for i, (w, g) in enumerate(zip(want, got)) if w != g]
        pytest.fail(f"{len(wrong)} rows differ, {len(got)} written for {len(want)} "
                    f"(row, expected, got): {wrong[:3]}")


def assert_repr(values):
    values = np.asarray(values, dtype=np.float64)
    expected = "".join(repr(v) + "\n" for v in values.tolist())
    assert_rows(_kernel_rows(values[:, None], ["\n"]), expected)


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
    assert _kernel_rows(np.array([[np.nan, -np.nan]]), [",", "\n"]) == "nan,nan\n"


def test_separators_follow_their_columns_row_major():
    table = np.array([[0.5, -1e-5, 3.0], [1e16, 0.0, -np.inf]] * 700)
    expected = "0.5,-1e-05,,,,,3.0\n1e+16,0.0,,,,,-inf\n" * 700
    assert_rows(_kernel_rows(table, [",", ",,,,,", "\n"]), expected)


def test_every_exponent_and_digit_count():
    # every decimal exponent, each with every significant-digit count its
    # precision allows, in both signs, so that every prefix, suffix and
    # layout row of the tables is read
    rng = np.random.default_rng(19)
    exponents = np.repeat(np.arange(-324, 309), 4)
    texts = []
    for count in range(1, 18):
        digits = rng.integers(0, 10, (len(exponents), count)).astype(str)
        digits[:, 0] = rng.integers(1, 10, len(exponents)).astype(str)
        digits[:, -1] = rng.integers(1, 10, len(exponents)).astype(str)
        digits[exponents == 308, 0] = "1"  # 1.8e308 overflows
        texts += [f"{d[0]}.{''.join(d[1:])}e{e}"
                  for d, e in zip(digits.tolist(), exponents.tolist())]
    values = np.array([float(text) for text in texts])
    # and their neighbours, where most 17-digit reprs are
    values = np.concatenate([values] + [np.nextafter(values, s * np.inf) for s in (-1, 1)])
    decimals = [Decimal(repr(v)).normalize() for v in values[np.isfinite(values)].tolist()]
    spelled = {(d.adjusted(), len(d.as_tuple().digits)) for d in decimals}
    assert {e for e, _ in spelled} == set(range(-324, 309))
    assert all((e, n) in spelled for e in range(-307, 309) for n in range(1, 18))
    assert_repr(np.concatenate((values, -values)))


@pytest.mark.parametrize("separators", [
    [","] * 3 + ["\n"], [",,,", ":", ",,,", "\n"], [",,,,,", ",", "\ndense:", "\n"],
])
def test_separators_of_six_and_seven_word_cells(separators):
    # 1 and 3 bytes share word 5 with the suffix; 5 and 7 bytes need a 7th word
    rng = np.random.default_rng(len("".join(separators)))
    assert_table(rng.integers(0, 2**64, (600, 4), dtype=np.uint64).view(np.float64), separators)


# --- trailing runs: each column's cells bitwise equal to its last are spelled once

def assert_table(table, separators, spell=_kernel_rows):
    table = np.asarray(table, dtype=np.float64)
    expected = "".join(repr(v) + sep for row in table.tolist() for v, sep in zip(row, separators))
    assert_rows(spell(table, separators), expected)


def test_signed_zero_tails_stay_apart():
    # 0.0 == -0.0, but their bits and their text differ
    columns = ([0.5, 0.0, 0.0, -0.0, -0.0], [0.5, -0.0, -0.0, 0.0, 0.0],
               [0.0, 0.0, 0.0, 0.0, -0.0], [-0.0, -0.0, -0.0, -0.0, 0.0])
    assert_table(np.column_stack(columns), [",", ",", ",", "\n"])


def test_nan_and_infinite_tails():
    nan, signed = np.nan, -np.nan
    payload = np.array([0x7FF0000000000123], np.uint64).view(np.float64)[0]
    columns = ([1.0, nan, nan, nan], [1.0, signed, signed, signed], [nan, signed, nan, signed],
               [2.0, payload, nan, payload], [0.5, np.inf, np.inf, np.inf],
               [0.5, -np.inf, -np.inf, -np.inf], [np.inf, -np.inf, -np.inf, np.inf])
    assert_table(np.column_stack(columns), [","] * 6 + ["\n"])


def test_subnormal_tails():
    columns = ([1.0, 5e-324, 5e-324, 5e-324], [0.1, -5e-324, -5e-324, -5e-324],
               [1e-310, 2.2250738585072e-308, 2.2250738585072e-308, 1e-310])
    assert_table(np.column_stack(columns), [",", ",", "\n"])


def test_constant_columns_and_a_differing_last_row():
    columns = ([0.25] * 6, [-1e-05] * 6, [0.1] * 5 + [0.2], [1e16] * 5 + [1e16 + 2])
    assert_table(np.column_stack(columns), [",", ",", ",", "\n"])


def test_zero_and_one_row_tables():
    assert _kernel_rows(np.empty((0, 3)), [",", ",,,,,", "\n"]) == ""
    assert_table([[0.5, -0.0, 1e-7]], [",", ",,,,,", "\n"])


def test_gap_separator_on_a_constant_column():
    table = np.column_stack((np.linspace(0.0, 1.0, 9), [0.125] * 9, np.geomspace(1e-9, 1.0, 9)))
    assert_table(table, [",", ",,,,,", "\n"])


def test_runs_across_row_blocks():
    # runs that start before, on and after the first block boundary, a
    # constant column and one whose last row differs
    rows = 2 * _CHUNK + 500
    rng = np.random.default_rng(12)
    table = rng.standard_normal((rows, 6))
    for j, start in enumerate([_CHUNK - 40, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3, 0]):
        table[start:, j] = table[-1, j]
    table[-1, 5] = 1.5
    assert_table(table, [","] * 5 + ["\n"])


@pytest.mark.parametrize("columns", [1, 8, 32])
def test_repr_below_the_switch_and_the_kernel_from_it(columns):
    # a row below, at and a row above the switch
    separators = ([":", ",,,,,"] + [","] * 30)[: columns - 1] + ["\n"]
    rng = np.random.default_rng(columns)
    for rows in (_KERNEL_FROM // columns - 1, _KERNEL_FROM // columns, _KERNEL_FROM // columns + 1):
        bits = rng.integers(0, 2**64, (rows, columns), dtype=np.uint64)
        assert_table(bits.view(np.float64), separators, format_rows)
