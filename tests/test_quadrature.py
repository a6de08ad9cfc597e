import logging
import math
import subprocess
import sys

import numpy as np
import pytest

from hyperradial import (
    DomainError,
    PhysicalParams,
    QuadratureError,
    Tolerance,
    bessel_k_integral,
    bessel_k_ratio,
    integrate,
    integrate_radial,
    make_state,
    quadrature,
    t_r_closed,
    t_r_quadrature,
)


def test_gaussian():
    res = integrate(lambda x: np.exp(-(x**2)), -10.0, 10.0)
    assert res.value == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    assert res.converged and res.method == "tanh_sinh"


def test_polynomial():
    res = integrate(lambda x: x**3, 0.0, 1.0)
    assert res.value == pytest.approx(0.25, rel=1e-12)


def test_reversed_bounds_flip_sign():
    forward = integrate(lambda x: x**2, 0.0, 2.0).value
    backward = integrate(lambda x: x**2, 2.0, 0.0).value
    assert backward == pytest.approx(-forward, rel=1e-13)


def test_degenerate_interval():
    assert integrate(lambda x: x, 1.0, 1.0).value == 0.0


def test_endpoint_singularity():
    # integrable 1/sqrt(x) endpoint: tanh-sinh territory
    res = integrate(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0)
    assert res.value == pytest.approx(2.0, rel=1e-10)


def test_radial_exponential():
    res = integrate_radial(lambda r: np.exp(-r), 1e-12, 60.0)
    assert res.value == pytest.approx(1.0, rel=1e-10)


def test_radial_requires_positive_bounds():
    with pytest.raises(DomainError):
        integrate_radial(lambda r: r, 0.0, 1.0)
    with pytest.raises(DomainError):
        integrate_radial(lambda r: r, -1.0, 1.0)


@pytest.mark.parametrize("r_lo, r_hi", [(1.0, math.inf), (math.nan, 1.0), (1.0, math.nan)])
def test_radial_rejects_non_finite_bounds_naming_r(r_lo, r_hi):
    with pytest.raises(DomainError, match=rf"r in \[{r_lo}, {r_hi}\]"):
        integrate_radial(lambda r: r, r_lo, r_hi)


def test_rejects_infinite_bounds():
    with pytest.raises(DomainError):
        integrate(lambda x: np.exp(-x * x), 0.0, math.inf)


def test_nan_integrand_raises_without_fallback(caplog):
    calls = []

    def f(x):
        calls.append(x.size)
        return np.where(x > 0.75, np.nan, 1.0)

    with pytest.raises(QuadratureError, match=r"integrand is not finite on \[0, 1\]"):
        integrate(f, 0.0, 1.0)
    assert calls == [17]  # the first level, and no QUADPACK call
    assert caplog.records == []


def test_radial_failure_names_the_radial_window():
    with pytest.raises(QuadratureError) as info:
        integrate_radial(lambda r: np.full_like(r, np.nan), 1.0, 2.0)
    assert str(info.value).endswith("(the interval is s = ln r for r in [1, 2])")


def test_infinite_endpoint_node_falls_back_at_once(caplog):
    # 1 - delta rounds to 1 for the outermost nodes, where 1/sqrt(1 - x) is infinite
    res = integrate(lambda x: 1.0 / np.sqrt(1.0 - x), 0.0, 1.0)
    assert res.method == "gauss_kronrod"
    assert res.value == pytest.approx(2.0, rel=1e-10)
    assert "after 17 evaluations" in caplog.records[0].getMessage()


def test_integrand_arithmetic_error_in_fallback_is_a_quadrature_error():
    # the centre node sits on the pole, so tanh-sinh sums to inf and falls back; QUADPACK
    # samples x = 0.5 as a Python float, where the division raises instead of giving inf
    with pytest.raises(QuadratureError, match=r"integrand failed on \[0, 1\].*ZeroDivisionError"):
        integrate(lambda x: 1.0 / (x - 0.5) ** 2, 0.0, 1.0)


def test_gauss_kronrod_fallback():
    # capped tanh-sinh levels cannot resolve 80 oscillation periods; QUADPACK can
    tol = Tolerance(rel=1e-4, abs=1e-6, max_subdivisions=3)
    res = integrate(lambda x: np.sin(50.0 * x), 0.0, 10.0, tol)
    assert res.method == "gauss_kronrod"
    assert res.converged
    assert res.value == pytest.approx((1.0 - math.cos(500.0)) / 50.0, rel=1e-8)


def test_gauss_kronrod_fallback_logs_one_warning(caplog):
    # the call of test_gauss_kronrod_fallback: one warning names the interval
    # and the tanh-sinh estimate, error and evaluation count it gave up on
    tol = Tolerance(rel=1e-4, abs=1e-6, max_subdivisions=3)
    with caplog.at_level(logging.DEBUG, logger="hyperradial"):
        res = integrate(lambda x: np.sin(50.0 * x), 0.0, 10.0, tol)
    assert res.method == "gauss_kronrod"
    [record] = caplog.records
    assert record.name == "hyperradial" and record.levelno == logging.WARNING
    given_up = quadrature._tanh_sinh(lambda x: np.sin(50.0 * x), 0.0, 10.0, tol)
    message = record.getMessage()
    assert "[0, 10]" in message
    assert f"estimate {given_up.value:.6e}, error {given_up.error:.2e}" in message
    assert f"after {given_up.neval} evaluations" in message


def test_converged_integral_logs_nothing(caplog):
    with caplog.at_level(logging.DEBUG, logger="hyperradial"):
        integrate(lambda x: np.exp(-x) * np.sin(3 * x), 0.0, 8.0)
        make_state("u2", 30).normalization_integral()
    assert caplog.records == []


def test_nonconvergent_raises_with_diagnostics():
    tol = Tolerance(rel=1e-12, abs=1e-15, max_subdivisions=3)
    with pytest.raises(QuadratureError, match="failed to converge"):
        integrate(lambda x: np.sin(1.0 / np.maximum(x, 1e-300)), 1e-8, 1.0, tol)


def test_deterministic():
    runs = [integrate(lambda x: np.exp(-x) * np.sin(3 * x), 0.0, 8.0).value for _ in range(2)]
    assert runs[0] == runs[1]


def test_float_conversion():
    res = integrate(lambda x: np.ones_like(x), 0.0, 2.0)
    assert float(res) == pytest.approx(2.0, rel=1e-13)


def test_cli_import_leaves_scipy_integrate_unloaded(child_env):
    # QUADPACK is imported only when the fallback runs, LAPACK only by propagate_free,
    # and Bessel K and Lambert W are in-house: start-up loads no scipy module at all
    code = ("import sys, hyperradial.cli; "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    out = subprocess.run([sys.executable, "-c", code], env=child_env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_energies_command_imports_no_scipy(child_env):
    # -X importtime logs every module imported during the whole run, deferred ones included
    argv = ["-m", "hyperradial.cli", "energies", "--family", "u2", "--D", "30"]
    out = subprocess.run([sys.executable, "-X", "importtime", *argv], env=child_env,
                         capture_output=True, text=True, check=True)
    imported = [line.rsplit("|", 1)[-1].strip() for line in out.stderr.splitlines()
                if line.startswith("import time:")]
    assert "hyperradial.states" in imported
    assert [m for m in imported if m == "scipy" or m.startswith("scipy.")] == []


class TestFalseConvergenceRegressions:
    """Oracle states where a looser stopping rule accepted results off by 4e-8 to 7e-7."""

    @pytest.mark.parametrize("d, beta_kappa", [(13, 0.3481), (5, 3.743)])
    def test_u2_normalization(self, d, beta_kappa):
        state = make_state("u2", d, PhysicalParams(beta=beta_kappa))
        assert state.normalization_integral().value == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("beta_kappa", [1.276, 2.249])
    def test_bessel_ratio_from_defining_integral(self, beta_kappa):
        zeta = 2.0 * math.sqrt(beta_kappa)
        ratio = bessel_k_integral(2, zeta) / bessel_k_integral(1, zeta)
        assert ratio == pytest.approx(bessel_k_ratio(zeta), rel=1e-9)

    def test_u0_high_dimension_t_r(self):
        state = make_state("u0", 692)
        closed = t_r_closed(state.family, state.dim, state.params)
        assert t_r_quadrature(state) == pytest.approx(closed, rel=1e-8)
