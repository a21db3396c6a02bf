"""Exact weight arithmetic.

Graph weights are positive integers.  Derived weights (contracted-graph edge
weights, star edges, exploration thresholds) pick up rational terms like
(eps/n) * 2**k * s.  To keep every comparison exact without paying for
Fraction normalisation in inner loops, each build fixes one global
denominator D and represents every weight as the integer ``weight * D``.

Python integers are arbitrary precision, so there is no dynamic-range cap;
builds whose scaled values exceed 64 bits (very large aspect ratios) simply
use big integers.
"""

from __future__ import annotations

from fractions import Fraction


class WeightScale:
    """A fixed denominator for scaled-integer weight arithmetic.

    ``to_scaled`` converts exact rationals into integers; the conversion
    asserts divisibility, so a mis-chosen denominator fails loudly instead of
    rounding.
    """

    __slots__ = ("den",)

    def __init__(self, den: int = 1):
        if den < 1:
            raise ValueError("denominator must be a positive integer")
        self.den = den

    def to_scaled(self, value) -> int:
        if isinstance(value, int):
            return value * self.den
        f = Fraction(value)
        num = f.numerator * self.den
        if num % f.denominator:
            raise ValueError(
                f"{value} is not representable over denominator {self.den}"
            )
        return num // f.denominator

    def to_fraction(self, scaled: int) -> Fraction:
        return Fraction(scaled, self.den)

    def __repr__(self):
        return f"WeightScale(den={self.den})"
