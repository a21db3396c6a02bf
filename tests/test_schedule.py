from fractions import Fraction as F

import pytest

from hopsets import HopsetParams, ScheduleError, build_hopset, compute_schedule, path_graph


@pytest.fixture(scope="module")
def sched():
    return compute_schedule(1024, 2, F(1, 2), F(1, 10), 1024)


class TestKappa2Rho12Eps110:
    """Hand-evaluated reference point: kappa=2, rho=1/2, eps=1/10, Rhat=1024."""

    def test_stage_boundaries(self, sched):
        assert (sched.i0, sched.i1, sched.ell) == (0, 1, 2)

    def test_alpha(self, sched):
        assert sched.alpha == F("10.24")

    def test_deltas(self, sched):
        assert sched.delta == (F("10.24"), F("143.36"), F("1638.4"))

    def test_radii(self, sched):
        assert sched.radius == (0, F("10.24"), F("153.6"))

    def test_hops_and_beta(self, sched):
        assert sched.h == (1, 29, 367)
        assert sched.beta == 735

    def test_radius_bound(self, sched):
        # R_i <= 2 * alpha * (1/eps)**(i-1)
        for i in range(1, sched.ell + 1):
            assert sched.radius[i] <= 2 * sched.alpha * (1 / sched.eps) ** (i - 1)

    def test_zeta(self, sched):
        assert sched.zeta == 32 * 3 * F(1, 10)


class TestRecurrenceInvariants:
    @pytest.mark.parametrize("eps", [F(1, 10), F(1, 100), F(3, 640), F(1, 1920)])
    def test_h_closed_form_bound(self, eps):
        s = compute_schedule(256, 2, F(1, 2), eps, 4096)
        for i, h in enumerate(s.h):
            assert h <= 3 * (1 / eps + 2) ** i

    @pytest.mark.parametrize(
        "kappa,rho", [(2, F(1, 2)), (3, F(1, 2)), (4, F(1, 4)), (4, F(1, 2)), (8, F(1, 4))]
    )
    def test_threshold_recurrences(self, kappa, rho):
        s = compute_schedule(4096, kappa, rho, F(1, 16), 2048)
        assert s.radius[0] == 0
        for i in range(s.ell + 1):
            assert s.delta[i] == s.alpha * (1 / s.eps) ** i + 4 * s.radius[i]
        for i in range(1, s.ell + 1):
            assert s.radius[i] == s.delta[i - 1] + s.radius[i - 1]
            assert s.radius[i] <= 2 * s.alpha * (1 / s.eps) ** (i - 1)
        for i in range(s.ell):
            assert s.h[i + 1] == (s.h[i] + 1) * (1 / s.eps + 2) + 2 * i + 5
        assert s.beta == int(2 * s.h[s.ell] + 1)
        assert s.ell >= 2

    def test_stage_formulas(self):
        # kappa=4, rho=1/2: i0 = floor(log2 2) = 1, i1 = 1 + ceil(5/2) - 2 = 2
        s = compute_schedule(4096, 4, F(1, 2), F(1, 16), 64)
        assert (s.i0, s.i1, s.ell) == (1, 2, 3)
        n = 4096.0
        assert s.deg[0] == pytest.approx(n ** (1 / 4))
        assert s.deg[1] == pytest.approx(n ** (2 / 4))
        assert s.deg[2] == pytest.approx(n**0.5)


class TestRefinedMode:
    def test_one_extra_phase(self):
        basic = compute_schedule(1024, 2, F(1, 2), F(1, 10), 1024)
        refined = compute_schedule(1024, 2, F(1, 2), F(1, 10), 1024, "refined")
        assert refined.ell == basic.ell + 1

    def test_refined_degree_sequence(self):
        n = 2**16
        s = compute_schedule(n, 4, F(1, 2), F(1, 16), 1024, "refined")
        # i0 = 1: stage-1 degrees divided by 2**(2**i - 1)
        assert s.deg[0] == pytest.approx(float(n) ** (1 / 4))
        assert s.deg[1] == pytest.approx(float(n) ** (2 / 4) / 2)
        # phase i0+1 runs at n**(rho/2), later phases at n**rho
        assert s.deg[2] == pytest.approx(float(n) ** (1 / 4))
        assert s.deg[3] == pytest.approx(float(n) ** (1 / 2))


class TestRejections:
    def test_kappa_rho_product_below_one(self):
        with pytest.raises(ScheduleError, match="kappa\\*rho"):
            compute_schedule(1024, 2, F(1, 4), F(1, 10), 64)

    def test_eps_above_tenth(self):
        with pytest.raises(ScheduleError, match="eps"):
            compute_schedule(1024, 2, F(1, 2), F(11, 100), 64)

    def test_eps_exactly_tenth_accepted(self):
        compute_schedule(1024, 2, F(1, 2), F(1, 10), 64)

    def test_rho_above_half(self):
        with pytest.raises(ScheduleError, match="rho"):
            compute_schedule(1024, 2, F(3, 4), F(1, 10), 64)

    def test_kappa_below_two(self):
        with pytest.raises(ScheduleError, match="kappa"):
            compute_schedule(1024, 1, F(1, 1), F(1, 10), 64)

    @pytest.mark.parametrize("kappa", [2.5, "2"])
    def test_kappa_not_an_integer(self, kappa):
        g = path_graph(8, 2)
        with pytest.raises(ScheduleError, match="kappa must be an integer >= 2"):
            build_hopset(g, HopsetParams(kappa=kappa))

    def test_bad_degree_mode(self):
        with pytest.raises(ScheduleError, match="degree_mode"):
            compute_schedule(1024, 2, F(1, 2), F(1, 10), 64, "fancy")
