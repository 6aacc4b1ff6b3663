"""Fixed-point amount arithmetic, rounding, and serialization."""

import decimal
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xdmev.fixedpoint import SCALE, Amount, div_half_even, format_fraction, parse_fraction

units = st.integers(min_value=-(10**30), max_value=10**30)


class TestParsingAndFormat:
    def test_basic_forms(self):
        assert Amount("0").units == 0
        assert Amount("1").units == SCALE
        assert Amount("-1.5").units == -15 * 10**17
        assert Amount("0.000000000000000001").units == 1
        assert Amount(7).units == 7 * SCALE

    def test_rejects_floats_and_garbage(self):
        with pytest.raises(TypeError):
            Amount(1.5)
        for bad in ("", "1.", ".5", "1e3", "1.0000000000000000001", "--1", "1/2",
                    "١٢٣.٥", "１２３", "1.２", "²", "123\n", "1.5\n"):
            with pytest.raises(ValueError):
                Amount(bad)

    def test_canonical_string(self):
        assert str(Amount("20.500")) == "20.5"
        assert str(Amount("-0.30")) == "-0.3"
        assert str(Amount("0.000")) == "0"
        assert str(Amount.from_units(-1)) == "-0.000000000000000001"

    @given(units)
    @settings(max_examples=300)
    def test_string_round_trip_lossless(self, u):
        amount = Amount.from_units(u)
        assert Amount(str(amount)) == amount


class TestRounding:
    @given(
        st.integers(min_value=-(10**24), max_value=10**24),
        st.integers(min_value=1, max_value=10**12),
    )
    @settings(max_examples=300)
    def test_div_half_even_matches_decimal(self, n, d):
        # Decimal's half-even quantization is the independent rounding oracle
        with decimal.localcontext(decimal.Context(prec=80)):
            expected = int(
                (Decimal(n) / Decimal(d)).quantize(
                    Decimal(1), rounding=decimal.ROUND_HALF_EVEN
                )
            )
        assert div_half_even(n, d) == expected

    def test_half_even_ties(self):
        assert div_half_even(5, 2) == 2
        assert div_half_even(3, 2) == 2
        assert div_half_even(-5, 2) == -2
        assert div_half_even(-3, 2) == -2

    def test_mul_rounds_at_18th_digit(self):
        third = Amount("0.333333333333333333")
        assert (third * Amount(3)).units == 999999999999999999

    def test_mul_fraction_exact_when_exact(self):
        assert Amount("288033.14").mul_fraction(Fraction(9, 10)) == Amount("259229.826")


class TestArithmeticAndOrder:
    @given(units, units)
    @settings(max_examples=200)
    def test_add_sub_exact(self, a, b):
        x, y = Amount.from_units(a), Amount.from_units(b)
        assert (x + y).units == a + b
        assert (x - y).units == a - b
        assert (x + y) - y == x

    @given(units, units)
    @settings(max_examples=200)
    def test_total_order_matches_rationals(self, a, b):
        x, y = Amount.from_units(a), Amount.from_units(b)
        assert (x < y) == (Fraction(a, SCALE) < Fraction(b, SCALE))
        assert (x == y) == (a == b)
        assert x <= y or y <= x

    def test_division(self):
        assert Amount("1") / Amount("8") == Amount("0.125")
        with pytest.raises(ZeroDivisionError):
            Amount("1") / Amount("0")

    def test_hashable_and_usable_in_sets(self):
        assert len({Amount("1"), Amount("1.0"), Amount("2")}) == 2


class TestFractionStrings:
    def test_parse_and_format(self):
        assert parse_fraction("9/10") == Fraction(9, 10)
        assert format_fraction(Fraction(9, 10)) == "9/10"
        for bad in ("9", "9/0", "a/b", "-1/2", "1/2/3", "３/４", "3/４", "٣/4", "²/3", "3/4\n"):
            with pytest.raises(ValueError):
                parse_fraction(bad)
