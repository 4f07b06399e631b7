"""The byte-matrix formatters against Python's own ``'%.17g'`` and ``'%d'``."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kaon_eraser import textio
from kaon_eraser.textio import _G17_RANGE, _d_bytes, _g17_bytes


def _strings(matrix):
    return [row.tobytes().replace(b"\0", b"").decode("ascii") for row in matrix]


def _assert_g17(values):
    values = np.asarray(values, dtype=np.float64)
    got = _strings(_g17_bytes(values))
    expected = ["%.17g" % v for v in values.tolist()]
    bad = [(v.hex(), g, e) for v, g, e in zip(values.tolist(), got, expected) if g != e]
    assert not bad, bad[:10]


def _both_signs(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, -values])


def _neighbours(values, steps=3):
    """Each value and its ``steps`` nearest doubles on either side."""
    out, down, up = [values], values, values
    for _ in range(steps):
        down, up = np.nextafter(down, -np.inf), np.nextafter(up, np.inf)
        out += [down, up]
    return np.concatenate(out)


@given(st.lists(st.floats(width=64), min_size=1, max_size=64))
def test_g17_matches_python_on_drawn_floats(values):
    _assert_g17(_both_signs(values))


def test_g17_matches_python_on_powers_of_two():
    _assert_g17(_both_signs(_neighbours(np.ldexp(1.0, np.arange(-1074, 1024)))))


def test_g17_matches_python_on_powers_of_ten_and_decade_boundaries():
    tens = np.array([float(Fraction(10) ** k) for k in range(-323, 309)])
    # nearest doubles to 10**k that lie below it and still round up to it,
    # and doubles whose log10 rounds up to the next integer: both need k fixed
    carried = [v for k, v in zip(range(-323, 309), tens.tolist())
               if Fraction(v) < Fraction(10) ** k and "%.16e" % v == "%.16e" % 10.0**k
               and _G17_RANGE[0] <= v < _G17_RANGE[1]]
    assert len(carried) >= 5
    below = np.nextafter(tens[(tens > 1e-300) & (tens < 1e300)], 0.0)
    assert np.any(np.floor(np.log10(below)) == np.log10(below))
    _assert_g17(_both_signs(_neighbours(tens)))


def test_g17_matches_python_on_every_decimal_exponent():
    # 9.99...9 with 1 to 17 nines in every decade, and the midpoints that
    # round them up, on both sides of the fixed/exponent switch
    mantissas = np.array([10.0 - 10.0 ** -j for j in range(0, 17)] + [9.999999999999999, 1.0, 5.0])
    scales = np.array([float(Fraction(10) ** k) for k in range(-300, 300)])
    _assert_g17(_both_signs(_neighbours(np.outer(mantissas, scales).ravel(), 1)))


def test_g17_matches_python_on_exact_ties():
    # m * 2**-e with m odd has the decimal digits of m * 5**e, the last a 5:
    # with 18 of them, the 17-digit rounding is an exact tie, half to even
    rng = np.random.default_rng(17)
    ties = []
    for e in range(1, 40):
        lo, hi = -(-10**17 // 5**e), min(10**18 // 5**e, 2**53 - 1)
        if hi > lo:
            for m in rng.integers(lo, hi, 40, endpoint=True).tolist():
                m |= 1
                if len(str(m * 5**e)) == 18:
                    ties.append(math.ldexp(m, -e))
    assert len(ties) > 500
    _assert_g17(_both_signs(ties))


def test_g17_matches_python_on_specials_and_subnormals():
    rng = np.random.default_rng(5)
    subnormal = np.ldexp(rng.integers(1, 2**52, 2000).astype(float), -1074)
    edges = np.array([5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
                      _G17_RANGE[0], _G17_RANGE[1], 1e-4, 1e16, 1e17, 1e300])
    specials = [0.0, math.inf, math.nan, 1.7976931348623157e308]
    _assert_g17(_both_signs(np.concatenate([subnormal, _neighbours(edges, 2), specials])))


def test_g17_matches_python_on_value_families():
    rng = np.random.default_rng(3)
    n = 20_000
    _assert_g17(rng.random(n))
    _assert_g17(rng.exponential(1.0, n))
    _assert_g17(rng.exponential(579.0, n))
    _assert_g17(_both_signs(10.0 ** rng.uniform(-282, 282, n)))


def test_g17_keeps_the_shape_of_no_values():
    assert _g17_bytes(np.zeros(0)).shape[0] == 0
    assert _d_bytes(np.zeros(0, np.int64)).shape[0] == 0


def _assert_d(values):
    got = _strings(_d_bytes(np.asarray(values)))
    assert got == ["%d" % v for v in np.asarray(values).tolist()]


def test_d_matches_python_across_every_power_of_ten():
    around = [10**j + d for j in range(19) for d in (-1, 0, 1)]
    _assert_d(np.array(around + [-v for v in around] + [0, 2**63 - 1, -(2**63)], np.int64))
    for j in range(1, 19):  # one width per call: the matrix is as wide as the widest
        _assert_d(np.arange(10**j - 3, 10**j + 3))
        _assert_d(-np.arange(10**j - 3, 10**j + 3))


@given(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=64))
def test_d_matches_python_on_drawn_integers(values):
    _assert_d(np.array(values, np.int64))


@pytest.mark.parametrize("values", [[True, False, True], [0, 0], [7]])
def test_d_prints_flags_and_small_counts(values):
    assert _strings(_d_bytes(np.array(values))) == ["%d" % v for v in values]


def test_tables_are_read_only_and_the_import_loads_no_fractions():
    # every caller shares the module's tables: the 18 of the formatters and
    # the reader, the mode names and the record separators
    tables = [value for value in vars(textio).values() if isinstance(value, np.ndarray)]
    assert len(tables) == 20
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0
    src = Path(__file__).resolve().parent.parent / "src"
    probe = "import sys, kaon_eraser; print('fractions' in sys.modules, 'decimal' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, timeout=120, check=True)
    assert out.stdout.split() == ["False", "False"]


def _nul_mask_reference(matrices):
    """The lines of ``_csv_text`` on NUL-padded byte matrices, every NUL
    dropped by a boolean mask over the whole text."""
    n = matrices[0].shape[0]
    parts = []
    for i, matrix in enumerate(matrices):
        parts += [matrix, np.full((n, 1), ord("\n" if i == len(matrices) - 1 else ","), np.uint8)]
    lines = np.hstack(parts)
    return lines[lines != 0].tobytes().decode("ascii")


def test_csv_text_drops_the_nuls_the_boolean_mask_drops():
    rng = np.random.default_rng(25)
    # 0 and 1 rows, a few, and enough of them to span several text blocks
    for n in (0, 1, 2, 7, 3000, 20_000):
        for n_columns in (1, 3):
            matrices = []
            for _ in range(n_columns):
                width = int(rng.integers(1, 40))
                matrix = rng.integers(33, 127, (n, width), dtype=np.uint8)
                # NUL padding on the left or the right of each row, and NULs
                # inside rows, and all-NUL rows
                pad = rng.integers(0, width + 1, n)
                cols = np.arange(width)
                matrix[(cols < pad[:, None]) if rng.random() < 0.5 else (cols >= width - pad[:, None])] = 0
                matrix[rng.random((n, width)) < 0.1] = 0
                matrices.append(matrix)
            assert textio._csv_text(matrices) == _nul_mask_reference(matrices), (n, n_columns)
    # formatted columns next to a byte matrix
    values, counts = rng.normal(size=5), rng.integers(-9, 10**6, 5)
    text = textio._csv_text([values, counts, textio._MODE_BYTES.take([0, 4, 2, 3, 1], axis=0)])
    names = ["TwoPi", "Other", "SemileptonicPlus", "SemileptonicMinus", "ThreePi"]
    assert text == "".join("%.17g,%d,%s\n" % row for row in zip(values.tolist(), counts.tolist(), names))
