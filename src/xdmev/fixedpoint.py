"""Exact fixed-point decimal amounts, 18 fractional digits.

Values cross the engine's edges as ``Amount``s and are bare int units inside (see ``model``).
Addition and subtraction are exact; multiplication and division round
half-to-even at the 18th fractional digit. The backing integer is a plain
Python int, so magnitudes are unbounded (well past 192 bits) and all
comparisons are exact.

Floats are deliberately rejected as inputs: value comparisons downstream
(collusion verdicts, tie-breaking) must never inherit binary rounding.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

FRACTIONAL_DIGITS = 18
SCALE = 10**FRACTIONAL_DIGITS

_AMOUNT_RE = re.compile(r"([+-]?)([0-9]+)(?:\.([0-9]+))?\Z")


def div_half_even(numerator: int, denominator: int) -> int:
    """Round numerator/denominator to the nearest int, ties to even."""
    if denominator < 0:
        numerator, denominator = -numerator, -denominator
    q, r = divmod(numerator, denominator)
    twice = 2 * r
    if twice > denominator or (twice == denominator and q % 2):
        q += 1
    return q


def mul_fraction_units(units: int, ratio: Fraction) -> int:
    """``units`` times an exact rational, rounded half-even to whole units."""
    return div_half_even(units * ratio.numerator, ratio.denominator)


class Amount:
    """Signed fixed-point decimal with 18 fractional digits."""

    __slots__ = ("units",)

    units: int

    def __init__(self, value: "Amount | str | int" = 0):
        if isinstance(value, Amount):
            self.units = value.units
        elif isinstance(value, int):
            self.units = value * SCALE
        elif isinstance(value, str):
            self.units = _parse_units(value)
        else:
            raise TypeError(f"cannot build Amount from {type(value).__name__}")

    @classmethod
    def from_units(cls, units: int) -> "Amount":
        if not isinstance(units, int):
            raise TypeError("units must be int")
        amt = object.__new__(cls)
        amt.units = units
        return amt

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Amount") -> "Amount":
        return Amount.from_units(self.units + _units_of(other))

    def __sub__(self, other: "Amount") -> "Amount":
        return Amount.from_units(self.units - _units_of(other))

    def __neg__(self) -> "Amount":
        return Amount.from_units(-self.units)

    def __abs__(self) -> "Amount":
        return Amount.from_units(abs(self.units))

    def __mul__(self, other: "Amount") -> "Amount":
        return Amount.from_units(div_half_even(self.units * _units_of(other), SCALE))

    def __truediv__(self, other: "Amount") -> "Amount":
        d = _units_of(other)
        if d == 0:
            raise ZeroDivisionError("Amount division by zero")
        return Amount.from_units(div_half_even(self.units * SCALE, d))

    def mul_fraction(self, ratio: Fraction) -> "Amount":
        """Multiply by an exact rational, rounding half-even at the 18th digit."""
        return Amount.from_units(mul_fraction_units(self.units, ratio))

    # -- ordering -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Amount) and self.units == other.units

    def __lt__(self, other: "Amount") -> bool:
        return self.units < _units_of(other)

    def __le__(self, other: "Amount") -> bool:
        return self.units <= _units_of(other)

    def __gt__(self, other: "Amount") -> bool:
        return self.units > _units_of(other)

    def __ge__(self, other: "Amount") -> bool:
        return self.units >= _units_of(other)

    def __hash__(self) -> int:
        return hash(("Amount", self.units))

    def __bool__(self) -> bool:
        return self.units != 0

    # -- conversion / formatting --------------------------------------

    def __float__(self) -> float:
        return self.units / SCALE

    def __str__(self) -> str:
        return format_units(self.units)

    def __repr__(self) -> str:
        return f"Amount('{self}')"


def format_units(units: int) -> str:
    """``str`` of the ``Amount`` with these units, without building one; error
    messages below the edge use it."""
    sign = "-" if units < 0 else ""
    whole, frac = divmod(abs(units), SCALE)
    if frac == 0:
        return f"{sign}{whole}"
    digits = f"{frac:018d}".rstrip("0")
    return f"{sign}{whole}.{digits}"


def _units_of(other: object) -> int:
    if not isinstance(other, Amount):
        raise TypeError(f"expected Amount, got {type(other).__name__}")
    return other.units


def _int_digits(digits: str, part: str) -> int:
    """``int(digits)``; past the interpreter's int conversion limit (none
    before Python 3.10.7), a ValueError naming the part and the limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and len(digits) > limit:
        raise ValueError(f"more than {limit} digits in the {part}")
    return int(digits)


def _parse_units(text: str) -> int:
    match = _AMOUNT_RE.match(text)
    if match is None:
        raise ValueError(f"not a decimal amount: {text!r}")
    sign, whole, frac = match.groups()
    frac = frac or ""
    if len(frac) > FRACTIONAL_DIGITS:
        raise ValueError(f"more than {FRACTIONAL_DIGITS} fractional digits: {text!r}")
    units = _int_digits(whole, "integer part") * SCALE + int(frac.ljust(FRACTIONAL_DIGITS, "0"))
    return -units if sign == "-" else units


ZERO = Amount.from_units(0)


def parse_fraction(text: str) -> Fraction:
    """Parse a "num/den" string into a positive exact rational."""
    num, sep, den = text.partition("/")
    if not sep or not text.isascii() or not num.isdigit() or not den.isdigit():
        raise ValueError(f"not a num/den rational: {text!r}")
    numerator = _int_digits(num, "numerator")
    denominator = _int_digits(den, "denominator")
    if denominator == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(numerator, denominator)


def format_fraction(ratio: Fraction) -> str:
    return f"{ratio.numerator}/{ratio.denominator}"
