from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopsets.scale_reduction import contraction_scale
from hopsets.single_scale import phase_counts
from hopsets.util import as_fraction, child_seed, to_scaled


class TestToScaled:
    def test_integers_embed_losslessly(self):
        for w in (1, 7, 2**40, 2**62):
            assert to_scaled(w, 1280) == w * 1280
            assert F(to_scaled(w, 1280), 1280) == w

    def test_exact_fraction_conversion(self):
        den = 1280  # n=64 * eps_den=20
        pad = F(1, 20) * 2**9 * 37 / 64  # (eps/n) * 2**k * size
        assert F(to_scaled(pad, den), den) == pad

    def test_unrepresentable_rejected_not_rounded(self):
        with pytest.raises(ValueError, match="not representable"):
            to_scaled(F(1, 3), 10)

    def test_arithmetic_stays_integral(self):
        # sums of scaled weights are sums of integers: no drift possible
        total = sum(to_scaled(F(k, 20), 1280) for k in range(1, 100))
        assert F(total, 1280) == sum(F(k, 20) for k in range(1, 100))


def reference_contraction_scale(w, n, eps):
    """Smallest k with 2**k > w * n / eps, by counting up."""
    x, k = F(w * n) / eps, 0
    while 2**k <= x:
        k += 1
    return k


def reference_floor_log2(x):
    """floor(log2(x)) for a rational x >= 1, by counting up."""
    k = 0
    while 2 ** (k + 1) <= x:
        k += 1
    return k


class TestIntegerScales:
    @given(
        st.integers(1, 2**600),
        st.integers(1, 10**6),
        st.fractions(0, F(1, 2), max_denominator=10**6).filter(lambda e: 0 < e < F(1, 2)),
    )
    def test_contraction_scale_matches_reference(self, w, n, eps):
        assert contraction_scale(w, n, eps) == reference_contraction_scale(w, n, eps)

    @pytest.mark.parametrize(
        "w,n,eps,k",
        [
            (1, 1, F(499999, 1000000), 2),  # w*n/eps just above 2
            (1, 1, F(1, 4), 3),  # exactly 4: contraction is strict
            (3, 1, F(3, 8), 4),  # exactly 8
            (1023, 1, F(1023, 2048), 12),  # exactly 2048
            (1023, 1, F(1024, 2049), 11),  # just below 2048
            (3, 64, F(1, 20), 12),  # 3840
            (2**600, 10**6, F(1, 10**6), 640),
        ],
    )
    def test_contraction_scale_boundaries(self, w, n, eps, k):
        assert contraction_scale(w, n, eps) == k == reference_contraction_scale(w, n, eps)

    @pytest.mark.parametrize(
        "kappa,rho,i0",
        [
            (2, F(1, 2), 0),  # kappa*rho = 1
            (3, F(1, 3), 0),
            (7, F(2, 7), 1),  # exactly 2
            (7, F(3, 7), 1),  # 3
            (8, F(1, 2), 2),  # exactly 4
            (2047, F(1, 2), 9),  # just below 1024
            (2048, F(1, 2), 10),  # exactly 1024
        ],
    )
    def test_stage_one_count_boundaries(self, kappa, rho, i0):
        assert phase_counts(kappa, rho, "basic")[0] == i0 == reference_floor_log2(kappa * rho)

    def test_stage_one_count_matches_reference(self):
        # every valid (kappa, rho): 1/kappa <= rho <= 1/2, rho's denominator <= 60
        rhos = {F(p, q) for q in range(2, 61) for p in range(1, q // 2 + 1)}
        checked = 0
        for kappa in range(2, 121):
            for rho in rhos:
                if kappa * rho >= 1:
                    i0, _, _ = phase_counts(kappa, rho, "basic")
                    assert i0 == reference_floor_log2(kappa * rho)
                    checked += 1
        assert checked > 50_000


class TestHelpers:
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
