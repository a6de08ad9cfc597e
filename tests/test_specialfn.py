import math
import re

import numpy as np
import pytest
from scipy.special import kv, kve

from hyperradial import (
    DomainError,
    PreconditionError,
    bessel_k,
    bessel_k_integral,
    bessel_k_ratio,
    gamma,
    gamma_ratio,
    gamma_ratio_asymptotic,
    log_gamma,
)


class TestGamma:
    def test_factorial_values(self):
        assert gamma(1.0) == pytest.approx(1.0, rel=1e-12)
        assert gamma(5.0) == pytest.approx(24.0, rel=1e-12)

    def test_half_integer(self):
        assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-12)
        assert gamma(1.5) == pytest.approx(0.5 * math.sqrt(math.pi), rel=1e-12)

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            gamma(x)
        with pytest.raises(DomainError):
            log_gamma(x)

    def test_recurrence(self):
        for x in np.linspace(0.5, 50.0, 199):
            assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-11)

    def test_log_gamma_large_argument(self):
        value = log_gamma(1500.0)
        assert math.isfinite(value)
        # Stirling check: lgamma(x) ~ x ln x - x + 0.5 ln(2 pi / x)
        stirling = 1500.0 * math.log(1500.0) - 1500.0 + 0.5 * math.log(2 * math.pi / 1500.0)
        assert value == pytest.approx(stirling, rel=1e-4)

    def test_gamma_ratio_matches_direct(self):
        assert gamma_ratio(7.5, 3.0) == pytest.approx(gamma(7.5) / gamma(3.0), rel=1e-13)


class TestGammaRatioAsymptotic:
    def test_sqrt_two_over_d_at_200(self):
        # Gamma((D-1)/2)/Gamma(D/2) ~ (2/D)^(1/2)
        estimate = gamma_ratio_asymptotic(0.5, 200.0, -0.5, 0.0)
        assert estimate == pytest.approx((2.0 / 200.0) ** 0.5, rel=1e-13)
        exact = gamma_ratio(99.5, 100.0)
        assert estimate == pytest.approx(exact, rel=0.01)

    def test_three_halves_power_at_200(self):
        # Gamma((D+1)/2)/Gamma((D+4)/2) ~ (2/D)^(3/2)
        estimate = gamma_ratio_asymptotic(0.5, 200.0, 0.5, 2.0)
        assert estimate == pytest.approx(0.001, rel=1e-13)
        exact = gamma_ratio(100.5, 102.0)
        assert estimate == pytest.approx(exact, rel=0.02)

    def test_tight_at_d_1000(self):
        # leading relative error is (b1-b2)(b1+b2-1)/(2 a z): 0.075% for the
        # sqrt ratio and 0.225% for the 3/2-power ratio at D=1000
        for (b1, b2), bound in [((-0.5, 0.0), 0.002), ((0.5, 2.0), 0.003)]:
            exact = gamma_ratio(500.0 + b1, 500.0 + b2)
            estimate = gamma_ratio_asymptotic(0.5, 1000.0, b1, b2)
            assert abs(estimate / exact - 1.0) < bound

    def test_error_decreases_with_dimension(self):
        for b1, b2 in [(-0.5, 0.0), (0.5, 2.0)]:
            errors = []
            for d in (50, 100, 200, 400):
                exact = gamma_ratio(0.5 * d + b1, 0.5 * d + b2)
                errors.append(abs(gamma_ratio_asymptotic(0.5, d, b1, b2) / exact - 1.0))
            assert errors == sorted(errors, reverse=True)

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            gamma_ratio_asymptotic(0.5, 8.0, -0.5, 0.0)  # a*z = 4 < 5


class TestBesselK:
    def test_three_term_recurrence(self):
        # K_2 - K_0 = (2/z) K_1
        for zeta in (0.5, 1.0, 2.0, 5.0, 10.0):
            residual = bessel_k(2, zeta) - bessel_k(0, zeta) - 2.0 / zeta * bessel_k(1, zeta)
            assert abs(residual) <= 1e-9 * bessel_k(2, zeta)

    def test_matches_defining_integral(self):
        # production path vs quadrature of the definition
        for n in (0, 1, 2):
            for zeta in (0.1, 0.5, 2.0, 10.0, 30.0, 50.0):
                oracle = bessel_k_integral(n, zeta)
                assert bessel_k(n, zeta) == pytest.approx(oracle, rel=1e-9)

    def test_k1_at_two_against_oracle(self):
        assert bessel_k(1, 2.0) == pytest.approx(bessel_k_integral(1, 2.0), rel=1e-9)

    def test_higher_order_permitted(self):
        assert bessel_k(3, 2.0) == pytest.approx(bessel_k_integral(3, 2.0), rel=1e-9)

    def test_large_argument_asymptotics(self):
        # K_1(z) ~ sqrt(pi/2z) e^-z for large z
        zeta = 30.0
        scaled = bessel_k(1, zeta) * math.exp(zeta) * math.sqrt(2.0 * zeta / math.pi)
        assert scaled == pytest.approx(1.0, rel=0.03)

    @pytest.mark.parametrize("zeta", [750.0, 1e300])
    def test_defining_integral_underflows_without_quadrature(self, zeta, monkeypatch):
        # past z = 750 the integrand exp(-z cosh t) is below the smallest double everywhere
        from hyperradial import specialfn

        monkeypatch.setattr(specialfn, "integrate", lambda *args: pytest.fail("integrated"))
        assert [bessel_k_integral(n, zeta) for n in (0, 1, 2)] == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("zeta", [0.0, -1.0, math.inf, math.nan])
    def test_domain(self, zeta):
        with pytest.raises(DomainError):
            bessel_k(1, zeta)
        with pytest.raises(DomainError):
            bessel_k_ratio(zeta)
        with pytest.raises(DomainError):
            bessel_k_integral(1, zeta)

    @pytest.mark.parametrize("n", [-1, 1.5, "2"])
    def test_order_validation(self, n):
        with pytest.raises(DomainError):
            bessel_k(n, 2.0)

    def test_bool_is_not_an_order(self):
        with pytest.raises(DomainError):
            bessel_k(True, 2.0)

    def test_numpy_integer_order(self):
        assert bessel_k(np.int64(2), 2.0) == bessel_k(2, 2.0)

    def test_small_argument_series(self):
        # e^z K_0(z) = -ln(z/2) - gamma and e^z K_1(z) = 1/z, each to O(z ln z) relative
        euler_gamma = 0.5772156649015329
        for zeta in (1e-20, 1e-100, 1e-200):
            k0 = math.exp(zeta) * bessel_k(0, zeta)
            k1 = math.exp(zeta) * bessel_k(1, zeta)
            assert k0 == pytest.approx(-math.log(zeta / 2.0) - euler_gamma, rel=1e-13, abs=0.0)
            assert k1 == pytest.approx(1.0 / zeta, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("call", [
        lambda: bessel_k(0, 5e-324),
        lambda: bessel_k(1, 1e-320),
        lambda: bessel_k_ratio(2e-154),
    ], ids=["k0-5e-324", "k1-1e-320", "ratio-2e-154"])
    def test_overflow_names_the_sum(self, call):
        with pytest.raises(OverflowError, match=r"Bessel K_. sum overflows at argument"):
            call()

    def test_every_positive_argument_is_answered_or_named(self):
        # from the smallest subnormal to the largest doubles, a finite value or the named error
        for zeta in [5e-324, *np.geomspace(1e-320, 1.7e308, 126).tolist()]:
            for call in (lambda: bessel_k(0, zeta), lambda: bessel_k(1, zeta),
                         lambda: bessel_k(2, zeta), lambda: bessel_k_ratio(zeta)):
                try:
                    value = call()
                except OverflowError as exc:
                    assert re.match(r"the Bessel K_[012] sum overflows at argument", str(exc)), exc
                else:
                    assert math.isfinite(value), zeta


class TestBesselKAgainstScipy:
    """scipy.special stays the external reference for the in-house trapezoid rule."""

    GRID = np.geomspace(0.05, 700.0, 241)

    @pytest.mark.parametrize("n", range(6))
    def test_matches_kv(self, n):
        for zeta in map(float, self.GRID):
            # scipy's kv leaves its scaled path above zeta ~ 664.9, where it is
            # off by up to 4e-14, and flushes to 0.0 by 700; its kve does not
            reference = kv(n, zeta) if zeta < 660.0 else kve(n, zeta) * math.exp(-zeta)
            assert bessel_k(n, zeta) == pytest.approx(reference, rel=1e-14, abs=0.0)

    def test_ratio_matches_kve(self):
        for zeta in map(float, self.GRID):
            reference = kve(2, zeta) / kve(1, zeta)
            assert bessel_k_ratio(zeta) == pytest.approx(reference, rel=1e-14, abs=0.0)


class TestBesselKRatio:
    def test_limit_is_one(self):
        assert bessel_k_ratio(200.0) == pytest.approx(1.0, rel=0.02)

    def test_against_quadrature_oracle(self):
        oracle = bessel_k_integral(2, 2.0) / bessel_k_integral(1, 2.0)
        assert bessel_k_ratio(2.0) == pytest.approx(oracle, rel=1e-8)

    def test_exceeds_one(self):
        # K_n increases with the order at fixed argument
        for zeta in (0.5, 1.0, 2.0, 5.0, 10.0):
            assert bessel_k_ratio(zeta) > 1.0

    def test_limit_at_largest_arguments(self):
        # 2x overflows at x = 1e308; the sum never forms it
        assert bessel_k_ratio(1e308) == 1.0

    def test_no_underflow_at_huge_argument(self):
        # naive K_2/K_1 underflows to 0/0 near zeta ~ 750
        value = bessel_k_ratio(2000.0)
        assert math.isfinite(value) and 1.0 < value < 1.01
