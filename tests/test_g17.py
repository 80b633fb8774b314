"""The vectorised "%.17g" kernel against a per-value "%.17g" loop, string for string."""

import decimal
import math
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gflab import g17


def reference(x: np.ndarray) -> list[str]:
    """What the kernel replaces: one "%.17g" per value."""
    return ["%.17g" % v for v in x.tolist()]


def rendered(x: np.ndarray) -> list[str]:
    """The kernel's cells as strings: NUL bytes dropped, split at the separators."""
    chars = g17.cells(x)
    assert chars.shape == (x.size, g17.WIDTH)
    assert np.all(chars[:, -1] == ord(","))
    return chars.tobytes().translate(None, b"\0").decode("ascii").split(",")[:-1]


def assert_same(x) -> None:
    x = np.asarray(x, dtype=np.float64)
    got, want = rendered(x), reference(x)
    bad = [(v, g, w) for v, g, w in zip(x.tolist(), got, want) if g != w]
    assert len(got) == len(want) and not bad, bad[:10]


def neighbours(x: np.ndarray, steps: int = 2) -> np.ndarray:
    """x and its `steps` nearest doubles on either side."""
    out, lo, hi = [x], x, x
    for _ in range(steps):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return np.concatenate(out)


class TestMatchesPercentFormatting:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                    min_size=1, max_size=50))
    def test_any_doubles(self, values):
        assert_same(values)

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(20260).integers(0, 2**64, 10**6, dtype=np.uint64)
        assert_same(bits.view(np.float64))

    def test_powers_of_ten_and_their_neighbours(self):
        powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
        assert_same(neighbours(np.concatenate([powers, -powers])))

    def test_exact_ties(self):
        # m 2^-k with m odd is exact in binary and has k decimals; when
        # m 5^k has 18 digits, its 17-digit rounding is an exact tie
        rng = np.random.default_rng(7)
        ties = [336633160104113.125]
        for k in range(3, 26):
            lo, hi = -(-10**17 // 5**k), min(10**18 // 5**k, 2**53)
            ties += [math.ldexp(int(m) | 1, -k) for m in rng.integers(lo, hi - 1, 40)]
        for v in ties:
            digits = decimal.Decimal(v).as_tuple().digits
            assert len(digits) == 18 and digits[-1] == 5, v
        assert_same(np.concatenate([ties, np.negative(ties)]))

    def test_carries_to_the_next_power_of_ten(self):
        nines = np.array([float(f"9.99999999999999995e{k}") for k in range(-300, 300)])
        assert_same(neighbours(np.concatenate([[99999999999999999.0, 9999999999999999.5],
                                               nines, -nines]), steps=3))

    def test_edges_of_the_fast_range_and_of_fixed_notation(self):
        edges = np.array([g17._FAST_LO, g17._FAST_HI, 1e-4, 1e-5, 1e16, 1e17, 1e99, 1e100,
                          1e-99, 1e-100, 1.0, 10.0, 0.1])
        assert_same(neighbours(np.concatenate([edges, -edges]), steps=3))

    def test_zero_subnormal_and_extremes(self):
        assert_same([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     sys.float_info.max, -sys.float_info.max, math.inf, -math.inf, math.nan])

    def test_typical_table_values(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(20_000) * 10.0 ** rng.integers(-30, 30, 20_000)
        assert_same(np.concatenate([x, np.round(x, 3), np.linspace(-105.7, 40.0, 9917)]))


def powers_per_k():
    """The power table as first built, with 10**k formed afresh for each k."""
    hi, lo = [], []
    for k in range(-g17._K0, g17._K0 + 1):
        if k >= 0:
            h = float(10**k)
            hi.append(h)
            lo.append(float(10**k - int(h)))
        else:
            h = 1 / 10**-k
            num, den = h.as_integer_ratio()
            hi.append(h)
            lo.append((den - num * 10**-k) / (den * 10**-k))
    hi = np.array(hi)
    return (hi, np.array(lo), *g17._split(hi))


def test_power_table_matches_per_k_construction():
    # hi, lo and the split of hi, for every k in [-300, 300], to the bit
    want = powers_per_k()
    for got, table, ref in zip(g17._powers(), (g17._POW_HI, g17._POW_LO, g17._POW_HH, g17._POW_HL),
                               want):
        assert got.shape == table.shape == ref.shape == (601,)
        assert got.dtype == ref.dtype == np.float64
        assert got.tobytes() == table.tobytes() == ref.tobytes()
