from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopsets import WeightScale
from hopsets.util import as_fraction, child_seed, floor_log2, smallest_pow2_exceeding


class TestWeightScale:
    def test_integers_embed_losslessly(self):
        ws = WeightScale(1280)
        for w in (1, 7, 2**40, 2**62):
            assert ws.to_scaled(w) == w * 1280
            assert ws.to_fraction(ws.to_scaled(w)) == w

    def test_exact_fraction_conversion(self):
        ws = WeightScale(1280)  # n=64 * eps_den=20
        pad = F(1, 20) * 2**9 * 37 / 64  # (eps/n) * 2**k * size
        assert ws.to_fraction(ws.to_scaled(pad)) == pad

    def test_unrepresentable_rejected_not_rounded(self):
        ws = WeightScale(10)
        with pytest.raises(ValueError, match="not representable"):
            ws.to_scaled(F(1, 3))

    def test_arithmetic_stays_integral(self):
        # sums of scaled weights are sums of integers: no drift possible
        ws = WeightScale(1280)
        total = sum(ws.to_scaled(F(k, 20)) for k in range(1, 100))
        assert ws.to_fraction(total) == sum(F(k, 20) for k in range(1, 100))

    def test_positive_denominator_required(self):
        with pytest.raises(ValueError):
            WeightScale(0)


class TestNumericHelpers:
    @pytest.mark.parametrize(
        "x,expected",
        [
            (F(1), 0),
            (F(2), 1),
            (F(3), 1),
            (F(1023, 1), 9),
            (F(1024, 1), 10),
            (F(1, 2), -1),
            (F(1, 3), -2),
            (F(5, 8), -1),
            (F(10243, 10), 10),
        ],
    )
    def test_floor_log2(self, x, expected):
        assert floor_log2(x) == expected
        assert F(2) ** expected <= x < F(2) ** (expected + 1)

    @pytest.mark.parametrize("x", [F(1), F(7, 3), F(4096), F(4095), F(20000, 7)])
    def test_smallest_pow2_exceeding(self, x):
        k = smallest_pow2_exceeding(x)
        assert F(2) ** k > x >= F(2) ** (k - 1)

    @given(st.integers(1, 2**80), st.integers(1, 2**80))
    def test_power_of_two_brackets(self, num, den):
        x = F(num, den)
        k = floor_log2(x)
        assert F(2) ** k <= x < F(2) ** (k + 1)
        k = smallest_pow2_exceeding(x)
        assert F(2) ** (k - 1) <= x < F(2) ** k

    def test_as_fraction_decimal_semantics(self):
        assert as_fraction(0.3) == F(3, 10)
        assert as_fraction("0.45") == F(9, 20)
        assert as_fraction("1/3") == F(1, 3)
        assert as_fraction(F(2, 7)) == F(2, 7)
        assert as_fraction(2) == 2
        with pytest.raises(TypeError):
            as_fraction(object())

    def test_child_seed_stable_and_distinct(self):
        a = child_seed(42, "scale", 7)
        assert a == child_seed(42, "scale", 7)
        assert a != child_seed(42, "scale", 8)
        assert a != child_seed(43, "scale", 7)
        assert 0 <= a < 2**64
