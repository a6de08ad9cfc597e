import math
import re
import tracemalloc
import warnings
from decimal import Context, Decimal
from fractions import Fraction

import numpy as np
import pytest

from hyperradial import (
    DivergentIntegralError,
    DomainError,
    HyperDimension,
    PhysicalParams,
    PreconditionError,
    PropagationAborted,
    PropagationError,
    RadialGrid,
    StateFamily,
    asymptotic_slope_u0u1,
    bohm_quantum_potential,
    centrifugal_force,
    default_time_step,
    eigen_potential_v2,
    fit_window,
    gamma_ratio,
    linearity_window,
    make_state,
    propagate_free,
    raman_nath_slope,
    raman_nath_slope_closed,
    short_time_phase_state,
    v_q,
)
from hyperradial.quadrature import integrate_radial

U0, U1, U2 = StateFamily.U0, StateFamily.U1, StateFamily.U2


def exact_gaussian_momentum(d: int, t, params: PhysicalParams):
    """<p_r>(t) of a freely expanding u0 profile, from the exact solution.

    The D-dimensional Gaussian spreads as 1 + i tau with tau = 2 eps t / hbar;
    working out the phase gradient against the |u|^2 of the spread profile
    gives <p_r>(t) = hbar kappa * Gamma((D+1)/2)/Gamma(D/2) * tau/sqrt(1+tau^2),
    in units of hbar kappa below.
    """
    tau = 2.0 * params.epsilon() * np.asarray(t) / params.hbar
    ratio = gamma_ratio(0.5 * (d + 1), 0.5 * d)
    return ratio * tau / np.sqrt(1.0 + tau**2)


PI_50 = Decimal("3.14159265358979323846264338327950288419716939937510")
SQRT_PI = Fraction(PI_50.sqrt(Context(prec=50)))


def exact_trap_slope(family: StateFamily, d: int) -> float:
    """u0/u1 Raman-Nath slope at eps/hbar = 1/2, from exact integers and sqrt(pi) to 50 digits.

    s / (2(a-1)) * Gamma(a)/Gamma(a+1/2), with Gamma(n)/Gamma(n+1/2) = 4^n / (n C(2n,n) sqrt(pi))
    for a = n and Gamma(n+1/2)/Gamma(n+1) = C(2n,n) sqrt(pi) / 4^n for a = n + 1/2.
    """
    twice_a = d - 1 if family is U0 else d + 3
    n = twice_a // 2
    if twice_a % 2 == 0:
        ratio = Fraction(4**n, n * math.comb(2 * n, n)) / SQRT_PI
    else:
        ratio = Fraction(math.comb(2 * n, n), 4**n) * SQRT_PI
    return float(Fraction((d - 1) * (d - 3), twice_a - 2) * ratio / 2)


class TestCentrifugalForce:
    def test_zero_at_d3(self, params):
        assert centrifugal_force(HyperDimension(3), params, 0.8) == 0.0

    def test_d6ـvalue(self, params):
        assert centrifugal_force(HyperDimension(6), params, 1.0) == pytest.approx(15.0 / 4.0)

    def test_matches_potential_gradient(self, params):
        from hyperradial import v_q

        dim = HyperDimension(6)
        h = 1e-4
        fd = -(float(v_q(dim, params, 1.0 + h)) - float(v_q(dim, params, 1.0 - h))) / (2 * h)
        assert centrifugal_force(dim, params, 1.0) == pytest.approx(fd, rel=1e-7)


class TestRamanNathSlope:
    def test_u0_d6_closed_form(self, params):
        expected = 5.0 * gamma_ratio(2.5, 3.0) * params.epsilon()
        assert raman_nath_slope_closed(make_state(U0, 6, params)) == pytest.approx(
            expected, rel=1e-13
        )

    @pytest.mark.parametrize("family", [U0, U1])
    @pytest.mark.parametrize("d", [6, 60, 600, 3000])
    def test_quadrature_matches(self, family, d, params):
        state = make_state(family, d, params)
        assert raman_nath_slope(state) == pytest.approx(
            raman_nath_slope_closed(state), rel=1e-8
        )

    def test_u1_d9(self, params):
        state = make_state(U1, 9, params)
        expected = 0.5 * 8.0 * 6.0 * gamma_ratio(5.0, 6.5) * params.epsilon()
        assert raman_nath_slope_closed(state) == pytest.approx(expected, rel=1e-13)
        assert raman_nath_slope(state) == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("family", [U0, U1])
    def test_trap_closed_form_to_the_last_digits(self, family, params):
        # Gamma(a)/Gamma(a+1/2) from an lgamma difference is 6e-14 off at
        # D = 100 and 2e-11 at D = 20000
        dims = list(range(4, 41)) + [99, 100, 509, 510, 2999, 3000, 9999, 10000, 19999, 20000]
        errors = {d: raman_nath_slope_closed(make_state(family, d, params))
                  / exact_trap_slope(family, d) - 1.0 for d in dims}
        worst = max(errors, key=lambda d: abs(errors[d]))
        assert abs(errors[worst]) <= 1e-15, f"D={worst}: rel error {errors[worst]:.3e}"

    def test_u2_d30(self, params):
        from hyperradial import bessel_k_ratio

        state = make_state(U2, 30, params)
        expected = 783.0 / 2.0 * bessel_k_ratio(2.0) * params.epsilon()
        assert raman_nath_slope_closed(state) == pytest.approx(expected, rel=1e-13)
        assert raman_nath_slope(state) == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("family", [U0, U1, U2])
    @pytest.mark.parametrize("d", [1, 3])
    def test_zero_where_strength_vanishes(self, family, d, params):
        state = make_state(family, d, params)
        assert raman_nath_slope(state) == 0.0
        assert raman_nath_slope_closed(state) == 0.0

    def test_u2_slope_overflow_names_beta_kappa(self):
        # (beta*kappa)^(3/2) = 1e-300 is representable; s / (2e-300) * K2/K1 ~ 1e100 is not
        state = make_state(U2, 6, PhysicalParams(kappa=1.0, beta=1e-200))
        with pytest.raises(OverflowError, match=r"u2 slope overflows at beta\*kappa=1e-200"):
            raman_nath_slope_closed(state)

    @pytest.mark.parametrize("family, d, kappa", [(U0, 30, 1e154), (U2, 30, 1e153)])
    def test_slope_overflow_names_slope_and_kappa(self, family, d, kappa):
        # eps (5e307 and 5e305) and the slope in units of eps/hbar (7.7 and 710) are
        # finite; their product is not
        state = make_state(family, d, PhysicalParams(kappa=kappa, beta=1.0 / kappa))
        slopes = [raman_nath_slope, raman_nath_slope_closed]
        if family is U0:  # the large-D law sqrt(2D) eps/hbar as well
            slopes.append(lambda state: asymptotic_slope_u0u1(state.dim, state.params))
        message = re.escape(f"Raman-Nath slope overflows at kappa={kappa:g}")
        for slope in slopes:
            with pytest.raises(OverflowError, match=message):
                slope(state)

    def test_u0_d2_diverges(self, params):
        state = make_state(U0, 2, params)
        with pytest.raises(DivergentIntegralError):
            raman_nath_slope(state)
        with pytest.raises(DivergentIntegralError):
            raman_nath_slope_closed(state)

    def test_u0_d2_divergence_names_inverse_cube(self, params):
        state = make_state(U0, 2, params)
        for slope in (raman_nath_slope, raman_nath_slope_closed):
            with pytest.raises(DivergentIntegralError, match="<r\\^-3>"):
                slope(state)


class TestAsymptoticSlope:
    def test_value(self, params):
        assert asymptotic_slope_u0u1(HyperDimension(30), params) == pytest.approx(
            math.sqrt(60.0) * 0.5, rel=1e-13
        )

    def test_u0_ratio_at_300(self, params):
        exact = raman_nath_slope_closed(make_state(U0, 300, params))
        assert exact / asymptotic_slope_u0u1(HyperDimension(300), params) == pytest.approx(
            1.0, abs=0.01
        )

    def test_u1_ratio_at_300(self, params):
        # leading deviation is -(4 + 9/4)/D: 2.07% at D=300
        exact = raman_nath_slope_closed(make_state(U1, 300, params))
        ratio = exact / asymptotic_slope_u0u1(HyperDimension(300), params)
        assert ratio == pytest.approx(0.979349, abs=1e-5)
        assert ratio == pytest.approx(1.0, abs=0.03)

    @pytest.mark.parametrize("family", [U0, U1])
    def test_monotone_convergence(self, family, params):
        errors = []
        for d in (30, 100, 300, 1000):
            exact = raman_nath_slope_closed(make_state(family, d, params))
            errors.append(abs(exact / asymptotic_slope_u0u1(HyperDimension(d), params) - 1.0))
        assert errors == sorted(errors, reverse=True)

    def test_precondition(self, params):
        with pytest.raises(PreconditionError):
            asymptotic_slope_u0u1(HyperDimension(29), params)


class TestRadialGrid:
    def test_uniform_layout(self):
        grid = RadialGrid.uniform(10.0, 999)
        r = grid.points()
        assert len(r) == 999
        assert r[0] == pytest.approx(grid.spacing)
        assert r[-1] == pytest.approx(10.0 - grid.spacing)

    def test_minimum_points(self):
        with pytest.raises(DomainError):
            RadialGrid.uniform(10.0, 511)

    def test_only_n_points_and_spacing_are_fields(self):
        import dataclasses

        assert [f.name for f in dataclasses.fields(RadialGrid)] == ["n_points", "spacing"]
        grid = RadialGrid(n_points=4096, spacing=0.004)
        assert grid.r_min == grid.spacing
        assert grid.r_max == 4096 * grid.spacing
        assert grid.points()[0] == grid.spacing
        with pytest.raises(TypeError):  # a grid whose inner wall is off the origin
            RadialGrid(r_min=1.0, r_max=17.38, n_points=4096, spacing=0.004)

    @pytest.mark.parametrize("spacing", [0.0, -0.01, math.inf, math.nan])
    def test_spacing_must_be_positive_and_finite(self, spacing):
        with pytest.raises(DomainError, match="spacing"):
            RadialGrid(n_points=1024, spacing=spacing)

    def test_outer_edge_must_be_finite(self):
        # a finite spacing whose outer node 512 * 1e306 leaves double range
        with pytest.raises(DomainError, match=r"r_max = n_points \* spacing must be finite"):
            RadialGrid(512, 1e306)

    @pytest.mark.parametrize("family, d", [(U0, 6), (U2, 30)])
    def test_default_run_checks_no_radius(self, family, d, params, gate_calls):
        # the nodes are valid once the grid is built, and the step policy and the
        # propagation read the state and V_Q through the private kernels
        state = make_state(family, d, params)
        default_time_step(state, RadialGrid.for_state(state))
        assert len(gate_calls) == 0
        propagate_free(state)
        assert len(gate_calls) == 0

    def test_for_state_trap_margin(self, params):
        state = make_state(U0, 6, params)
        grid = RadialGrid.for_state(state, 1024)
        outer = grid.r_max + grid.spacing
        assert outer == pytest.approx(state.peak_radius() + 12.0, rel=1e-12)

    def test_for_state_scales_with_dimension(self, params):
        g30 = RadialGrid.for_state(make_state(U0, 30, params), 1024)
        g120 = RadialGrid.for_state(make_state(U0, 120, params), 1024)
        assert g120.r_max > g30.r_max

    def test_default_time_step_kinetic_only_at_d3(self, params):
        state = make_state(U0, 3, params)
        grid = RadialGrid.for_state(state, 1024)
        expected = 0.1 * 2.0 * grid.spacing**2
        assert default_time_step(state, grid) == pytest.approx(expected, rel=1e-12)

    def test_default_time_step_capped_by_potential(self, params):
        state = make_state(U0, 6, params)
        grid = RadialGrid.for_state(state, 1024)
        dt = default_time_step(state, grid)
        assert dt < 0.1 * 2.0 * grid.spacing**2

    def test_kinetic_cap_binds_for_u0_d6_on_8192_points(self, params):
        # the centrifugal cap, taken where |u|^2 is 1e-12 of its peak, lies above the kinetic one
        state = make_state(U0, 6, params)
        grid = RadialGrid.for_state(state, 8192)
        assert default_time_step(state, grid) == 0.1 * 2.0 * grid.spacing**2
        result = propagate_free(state, grid, n_steps=1)
        assert result.dt_cap == "kinetic"
        assert result.dt == 0.1 * 2.0 * grid.spacing**2

    def test_fit_cap_binds_for_u0_d1200(self, params):
        state = make_state(U0, 1200, params)
        result = propagate_free(state, RadialGrid.for_state(state, 4096), n_steps=1)
        assert result.dt_cap == "fit_window/16"
        assert result.dt == fit_window(state) / 16

    def test_centrifugal_cap_names_itself(self, params):
        state = make_state(U2, 30, params)
        result = propagate_free(state, RadialGrid.for_state(state, 1024), n_steps=1)
        assert result.dt_cap == "centrifugal"
        assert propagate_free(state, result.grid, dt=result.dt, n_steps=1).dt_cap == "given"

    def test_caps_are_named_in_table_order(self, params):
        from hyperradial.dynamics import _time_step_caps

        state = make_state(U2, 30, params)
        caps = _time_step_caps(state, RadialGrid.for_state(state, 1024))
        assert list(caps) == ["kinetic", "fit_window/16", "centrifugal"]

    @pytest.mark.parametrize("values, dt_cap", [
        ((1e-4, 1e-4, 2e-4), "kinetic"),
        ((2e-4, 1e-4, 1e-4), "fit_window/16"),
        ((2e-4, 2e-4, 1e-4), "centrifugal"),
    ])
    def test_tied_caps_name_the_first_in_table_order(self, values, dt_cap, params, monkeypatch):
        from hyperradial import dynamics

        names = ("kinetic", "fit_window/16", "centrifugal")
        monkeypatch.setattr(dynamics, "_time_step_caps", lambda state, grid: dict(zip(names, values)))
        state = make_state(U2, 30, params)
        result = propagate_free(state, RadialGrid.for_state(state, 1024), n_steps=1)
        assert (result.dt_cap, result.dt) == (dt_cap, min(values))

    def test_u2_d30_default_run_is_short_and_on_slope(self, params):
        state = make_state(U2, 30, params)
        result = propagate_free(state, RadialGrid.for_state(state, 4096))
        assert len(result.times) - 1 < 100
        measured = result.measured_slope(fit_window(state))
        assert measured == pytest.approx(raman_nath_slope_closed(state), rel=1e-2)

    @pytest.mark.parametrize("family, d", [(U0, 6), (U2, 30)])
    def test_default_time_step_fit_cap_does_not_bind_at_small_d(self, family, d, params):
        from hyperradial import v_q

        state = make_state(family, d, params)
        grid = RadialGrid.for_state(state, 8192)
        r_edge = state.support(drop_decades=6.0)[0]
        assert r_edge > grid.r_min  # else the cap would be taken at r_min, whatever the edge
        kinetic = 0.1 * 2.0 * grid.spacing**2
        centrifugal = 0.1 / abs(float(v_q(state.dim, params, r_edge)))
        assert default_time_step(state, grid) == min(kinetic, centrifugal)


class TestShortTimePhaseState:
    def test_identity_at_t0(self, params):
        state = make_state(U0, 6, params)
        r = np.linspace(0.5, 3.0, 7)
        values = short_time_phase_state(state, 0.0, r)
        np.testing.assert_allclose(values.real, np.asarray(state.u(r)), rtol=1e-13)
        np.testing.assert_allclose(values.imag, 0.0, atol=1e-15)

    def test_pure_phase(self, params):
        state = make_state(U0, 6, params)
        r = np.linspace(0.5, 3.0, 101)
        values = short_time_phase_state(state, 5e-3, r)
        np.testing.assert_allclose(np.abs(values), np.asarray(state.u(r)), rtol=1e-12)

    def test_norm_conserved(self, params):
        state = make_state(U1, 9, params)
        r_lo, r_hi = state.support()

        def density(r):
            return np.abs(short_time_phase_state(state, 2e-3, r)) ** 2

        assert integrate_radial(density, r_lo, r_hi).value == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("family,d", [(U0, 6), (U1, 9), (U2, 30)])
    def test_momentum_grows_at_quadrature_slope(self, family, d, params):
        # <p_r> of the phase-evolved state: the Bohm-potential part drops out
        # for these profiles, leaving exactly slope * t
        state = make_state(family, d, params)
        t = 2e-4 if family is U2 else 2e-3
        r_lo, r_hi = state.support()
        h_rel = 1e-6

        def p_density(r):
            h = h_rel * r
            up = short_time_phase_state(state, t, r + h)
            dn = short_time_phase_state(state, t, r - h)
            mid = short_time_phase_state(state, t, r)
            return np.imag(np.conj(mid) * (up - dn) / (2.0 * h))

        p = integrate_radial(p_density, r_lo, r_hi).value  # hbar = 1
        expected = raman_nath_slope(state) * t  # units hbar*kappa = 1
        assert p == pytest.approx(expected, rel=1e-6)

    def test_masks_negligible_amplitude(self, params):
        state = make_state(U2, 30, params)
        values = short_time_phase_state(state, 1e-4, np.array([1e-4, 1.0]))
        assert values[0] == 0.0 and values[1] != 0.0

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, t, params):
        state = make_state(U0, 6, params)
        with pytest.raises(DomainError, match="t must be finite"):
            short_time_phase_state(state, t, np.array([1.0]))

    def test_precondition_on_large_time(self, params):
        state = make_state(U2, 30, params)
        with pytest.raises(PreconditionError):
            short_time_phase_state(state, 10.0, np.array([1.0]))

    def test_finite_far_from_unit_kappa(self):
        # u''/u at kappa = 1e100 would need kappa^4 = 1e400 in r; in x = kappa r it is c(x)
        params = PhysicalParams(kappa=1e100, beta=1e-100)
        state = make_state(U0, 6, params)
        r = np.linspace(0.5, 3.0, 7) / params.kappa
        values = short_time_phase_state(state, 0.05 * params.hbar / params.epsilon(), r)
        assert np.isfinite(values).all() and np.all(np.abs(values) > 0)
        np.testing.assert_allclose(np.abs(values), np.asarray(state.u(r)), rtol=1e-12)

    def test_bohm_potential_sign_and_shape(self, params):
        # W = -(1/2) u''/u is positive where the profile is concave down
        state = make_state(U0, 6, params)
        assert float(bohm_quantum_potential(state, state.peak_radius())) > 0


class TestPropagation:
    def test_initial_momentum_exactly_zero(self, params):
        state = make_state(U0, 6, params)
        result = propagate_free(state, RadialGrid.for_state(state, 1024), n_steps=32)
        assert result.p_r_mean[0] == 0.0
        assert result.times[0] == 0.0

    def test_u0_d6_matches_quadrature_slope(self, params):
        state = make_state(U0, 6, params)
        result = propagate_free(state, RadialGrid.for_state(state, 2048))
        measured = result.measured_slope(fit_window(state))
        assert measured == pytest.approx(raman_nath_slope(state), rel=1e-2)

    def test_u0_d6_full_curve_against_exact_solution(self, params):
        state = make_state(U0, 6, params)
        result = propagate_free(state, RadialGrid.for_state(state, 2048))
        exact = exact_gaussian_momentum(6, result.times[1:], params)
        np.testing.assert_allclose(result.p_r_mean[1:], exact, rtol=1e-3)

    def test_u1_d9_ehrenfest(self, params):
        state = make_state(U1, 9, params)
        result = propagate_free(state, RadialGrid.for_state(state, 2048))
        measured = result.measured_slope(fit_window(state))
        assert measured == pytest.approx(raman_nath_slope(state), rel=1e-2)

    def test_u2_d30_ehrenfest(self, params):
        state = make_state(U2, 30, params)
        result = propagate_free(state, RadialGrid.for_state(state, 2048))
        measured = result.measured_slope(fit_window(state))
        assert measured == pytest.approx(raman_nath_slope(state), rel=1e-2)

    def test_u2_small_beta_kappa_window(self):
        # at beta*kappa = 0.25 the signal comes from the inner edge r ~ beta, where
        # F_Q ~ r^-3 bends <p_r> long before hbar/T; a window sized by T alone read +17%
        state = make_state(U2, 4, PhysicalParams(beta=0.25))
        result = propagate_free(state, RadialGrid.for_state(state, 8192))
        measured = result.measured_slope(fit_window(state))
        assert measured == pytest.approx(raman_nath_slope_closed(state), rel=1e-2)

    @pytest.mark.parametrize("family, d", [(U0, 1200), (U1, 700)])
    def test_default_step_leaves_room_for_the_fit_at_large_d(self, family, d):
        # the fit window shrinks faster with D than the kinetic and centrifugal caps
        state = make_state(family, d)
        result = propagate_free(state)
        measured = result.measured_slope(fit_window(state))
        assert measured == pytest.approx(raman_nath_slope_closed(state), rel=1e-2)

    def test_d3_free_gaussian_expands_despite_zero_force(self, params):
        # F_Q vanishes at D=3, but the reduced problem keeps a wall at the
        # origin: the exact solution gives d<p_r>/dt = 2 eps kappa
        # Gamma(2)/Gamma(3/2) = (4/sqrt(pi)) eps kappa, not zero.
        state = make_state(U0, 3, params)
        assert raman_nath_slope(state) == 0.0
        result = propagate_free(state, RadialGrid.for_state(state, 2048))
        measured = result.measured_slope(fit_window(state))
        wall_pressure = 2.0 / math.sqrt(math.pi)  # in hbar*kappa per time
        assert measured == pytest.approx(wall_pressure, rel=2e-2)
        exact = exact_gaussian_momentum(3, result.times[1:], params)
        np.testing.assert_allclose(result.p_r_mean[1:], exact, rtol=2e-2)

    def test_linearity_window_u0(self, params):
        # within 5% of slope*t out to t = 0.05 hbar/eps (exact solution bends
        # by only 0.5% there)
        state = make_state(U0, 6, params)
        window = 0.05 / params.epsilon()
        grid = RadialGrid.for_state(state, 1024)
        dt = default_time_step(state, grid)
        result = propagate_free(state, grid, dt, int(window / dt) + 1, record_every=64)
        slope = raman_nath_slope(state)
        deviation = result.p_r_mean[-1] / (slope * result.times[-1]) - 1.0
        assert abs(deviation) < 0.05
        assert linearity_window(state) == pytest.approx(window, rel=1e-12)

    def test_linearity_window_where_the_energy_underflows(self):
        # u2 at D=6 with kappa = 1e-150, beta*kappa = 1e60: T = 5.0e-31 eps and eps = 5e-301,
        # so T in absolute units rounds to 0 and only the trap-state bound 0.05 hbar/eps is left
        params = PhysicalParams(kappa=1e-150, beta=1e210)
        state = make_state(U2, 6, params)
        assert params.epsilon() * 5.0e-31 == 0.0
        assert linearity_window(state) == 0.05 * params.hbar / params.epsilon()
        assert linearity_window(state) == pytest.approx(1e299, rel=1e-12)

    def test_linearity_window_u2_energy_scaled(self, params):
        # u2 at D=30 stores ~198 eps, so its linear regime ends near hbar/T,
        # far earlier than the trap-state window
        state = make_state(U2, 30, params)
        window = linearity_window(state)
        assert window < 0.01 / params.epsilon()
        grid = RadialGrid.for_state(state, 4096)
        dt = default_time_step(state, grid)
        result = propagate_free(state, grid, dt, int(window / dt) + 1, record_every=16)
        slope = raman_nath_slope(state)
        deviation = result.p_r_mean[-1] / (slope * result.times[-1]) - 1.0
        assert abs(deviation) < 0.05

    def test_norm_conservation(self, params):
        state = make_state(U0, 6, params)
        result = propagate_free(state, RadialGrid.for_state(state, 1024), n_steps=2000)
        assert np.max(np.abs(result.norm - result.norm[0])) < 1e-10

    def test_second_order_in_time(self, params):
        # Richardson-style: errors against a dt/8 reference drop ~4x per
        # halving.  D=3 keeps the Hamiltonian potential-free so the time
        # error is cleanly measurable above round-off.
        state = make_state(U0, 3, params)
        grid = RadialGrid.for_state(state, 1024)
        t_end = 0.2048
        p_at = {}
        for divider in (1, 2, 8):
            dt = 1.6e-3 / divider
            result = propagate_free(state, grid, dt, int(round(t_end / dt)), record_every=64)
            p_at[divider] = result.p_r_mean[-1]
        err_coarse = abs(p_at[1] - p_at[8])
        err_fine = abs(p_at[2] - p_at[8])
        assert err_coarse > 1e-10  # the measurement sits well above round-off
        assert 3.0 <= err_coarse / err_fine <= 5.0

    def test_reflection_abort(self, params):
        state = make_state(U0, 6, params)
        grid = RadialGrid.uniform(state.peak_radius() + 9.0, 512)
        with pytest.raises(PropagationError, match="reflection"):
            propagate_free(state, grid, dt=2e-3, n_steps=4000, record_every=50)

    def test_profile_not_vanishing_at_origin_rejected(self, params):
        # u0 at D=1 is a half-Gaussian with u(0) = N0, the wall at r = 0 holds u = 0
        state = make_state(U0, 1, params)
        with pytest.raises(PreconditionError, match="does not vanish at the origin"):
            propagate_free(state, RadialGrid.for_state(state, 1024))

    def test_profile_underflowing_on_every_node_rejected(self):
        # at beta*kappa = 1e100 |u|^2 underflows to 0 on every node of the default grid
        state = make_state(U2, 6, PhysicalParams(kappa=1.0, beta=1e100))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError,
                               match=r"u2 profile at D=6, beta\*kappa=1e\+100 underflows on the grid"):
                propagate_free(state, RadialGrid.for_state(state, 1024))

    def test_epsilon_overflow_is_named_before_any_step(self, monkeypatch):
        # at kappa = 1e308 the profile is sampled in x = kappa r, where it cannot overflow;
        # the step policy then names epsilon, before any factorization and without a numpy warning
        from hyperradial import dynamics

        monkeypatch.setattr(dynamics, "_tridiagonal_lapack", lambda: pytest.fail("factored"))
        state = make_state(U0, 6, PhysicalParams(kappa=1e308, beta=1e-308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=re.escape(
                    "epsilon = (hbar*kappa)^2/(2M) overflows at kappa=1e+308")):
                propagate_free(state, RadialGrid.for_state(state, 1024))

    @pytest.mark.parametrize("dt, kappa", [(1e308, 1.0), (1e305, 1e5)])
    def test_coefficient_overflow_names_dt_and_kappa(self, dt, kappa, monkeypatch):
        # the step's coefficients dt H/(2 hbar) leave double range: named before zgttrf,
        # which would otherwise pivot on inf and nan
        from hyperradial import dynamics

        monkeypatch.setattr(dynamics, "_tridiagonal_lapack", lambda: pytest.fail("factored"))
        state = make_state(U0, 6, PhysicalParams(kappa=kappa, beta=1.0 / kappa))
        with pytest.raises(OverflowError, match=re.escape(
                f"the Crank-Nicolson coefficients dt H/(2 hbar) overflow at dt={dt:g}, kappa={kappa:g} ")):
            propagate_free(state, RadialGrid.for_state(state, 1024), dt, 16)

    @pytest.mark.parametrize("family, d, kappa, r_outer", [
        (U0, 6, 1e150, 1e200), (U2, 30, 1e150, 1e200), (U0, 6, 1e300, 1e10),
    ])
    def test_node_overflow_names_kappa_and_r_max(self, family, d, kappa, r_outer, monkeypatch):
        # x = kappa r leaves double range at the outer nodes: named before numpy samples the
        # grid, so numpy does not warn and the profile is not blamed
        from hyperradial import dynamics

        monkeypatch.setattr(dynamics, "_tridiagonal_lapack", lambda: pytest.fail("factored"))
        state = make_state(family, d, PhysicalParams(kappa=kappa, beta=1.0 / kappa))
        grid = RadialGrid.uniform(r_outer, 1024)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=re.escape(
                    f"kappa*r_max overflows at kappa={kappa:g}, r_max={grid.r_max:g}")):
                propagate_free(state, grid)

    @pytest.mark.parametrize("family, d", [(U0, 6), (U1, 9), (U2, 30)])
    def test_series_are_unit_invariant(self, family, d):
        # the step runs in x = kappa r and tau = eps t / hbar, so an exact power-of-two
        # change of kappa, hbar or M leaves every double of <p_r> and the norm the same
        def run(kappa, hbar, mass):
            params = PhysicalParams(hbar=hbar, mass=mass, kappa=kappa, beta=1.0 / kappa)
            state = make_state(family, d, params)
            return propagate_free(state, RadialGrid.for_state(state, 2048))

        unit = run(1.0, 1.0, 1.0)
        assert np.max(unit.p_r_mean) > 0.0
        for units in [(2.0**-40, 1.0, 1.0), (2.0**300, 1.0, 1.0), (2.0**-7, 4.0, 0.5)]:
            scaled = run(*units)
            assert np.array_equal(scaled.p_r_mean, unit.p_r_mean), units
            assert np.array_equal(scaled.norm, unit.norm), units
            assert scaled.dt_cap == unit.dt_cap, units

    def test_row_interchange_in_the_factorization_raises(self, params, monkeypatch):
        from hyperradial import dynamics

        gttrf, tbtrs = dynamics._tridiagonal_lapack()

        def swapping_gttrf(dl, d, du):
            dl_f, d_f, du_f, du2_f, ipiv, info = gttrf(dl, d, du)
            ipiv[0] = 2  # LAPACK's record of a swap of rows 1 and 2
            return dl_f, d_f, du_f, du2_f, ipiv, info

        monkeypatch.setattr(dynamics, "_tridiagonal_lapack", lambda: (swapping_gttrf, tbtrs))
        state = make_state(U0, 6, params)
        with pytest.raises(PropagationError, match="interchanged rows"):
            propagate_free(state, RadialGrid.for_state(state, 1024), n_steps=4)

    def test_failed_factorization_raises(self, params, monkeypatch):
        from hyperradial import dynamics

        gttrf, tbtrs = dynamics._tridiagonal_lapack()

        def failing_gttrf(dl, d, du):
            *factors, info = gttrf(dl, d, du)
            return (*factors, 3)  # LAPACK's report of an exactly zero pivot U(3,3)

        monkeypatch.setattr(dynamics, "_tridiagonal_lapack", lambda: (failing_gttrf, tbtrs))
        state = make_state(U0, 6, params)
        with pytest.raises(PropagationError, match=re.escape("factorization failed (LAPACK info=3)")):
            propagate_free(state, RadialGrid.for_state(state, 1024), n_steps=4)

    def test_grid_containment_precondition(self, params):
        state = make_state(U0, 6, params)
        grid = RadialGrid.uniform(state.peak_radius() + 2.0, 512)
        with pytest.raises(PreconditionError, match="contain"):
            propagate_free(state, grid, n_steps=8)

    def test_resolution_precondition(self, params):
        state = make_state(U2, 30, params)
        with pytest.raises(PreconditionError, match="20 points"):
            propagate_free(state, RadialGrid.for_state(state, 512), n_steps=8)

    def test_progress_hook_abort(self, params):
        state = make_state(U0, 6, params)
        calls = []

        def progress(step, total):
            calls.append((step, total))
            return False

        with pytest.raises(PropagationAborted):
            propagate_free(
                state,
                RadialGrid.for_state(state, 1024),
                n_steps=600,
                progress=progress,
                progress_every=256,
            )
        assert calls and calls[0][0] == 256

    def test_analytic_slope_field(self, params):
        state = make_state(U1, 9, params)
        result = propagate_free(state, RadialGrid.for_state(state, 1024), n_steps=32)
        assert result.analytic_slope == pytest.approx(raman_nath_slope_closed(state), rel=1e-13)

    @pytest.mark.parametrize("dt", [math.nan, math.inf, 0.0, -1e-3])
    def test_non_finite_or_non_positive_dt_rejected(self, dt, params):
        state = make_state(U0, 6, params)
        with pytest.raises(DomainError, match="dt must be positive and finite"):
            propagate_free(state, RadialGrid.for_state(state, 1024), dt=dt)

    @pytest.mark.parametrize("dt, n_steps, named", [
        (1e-30, None, "(n_steps = fit_window/dt = 7.5507e+25 at dt=1e-30, record_every=1)"),
        (None, 10**30, f"(n_steps={10**30}, record_every=1)"),
    ])
    def test_record_too_large_to_hold_names_its_count(self, dt, n_steps, named, params):
        # numpy refuses the record past its largest index, before it allocates anything
        state = make_state(U2, 30, params)
        with pytest.raises(DomainError, match=re.escape(
                f"the record of 1 + n_steps/record_every samples does not fit in memory {named}")):
            propagate_free(state, RadialGrid.for_state(state, 1024), dt, n_steps)

    def test_record_that_memory_cannot_hold_names_its_count(self, params, monkeypatch):
        empty = np.empty

        def refuse_records(shape, *args, **kwargs):
            if isinstance(shape, tuple) and shape[0] == 3:
                raise MemoryError
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", refuse_records)
        state = make_state(U0, 6, params)
        with pytest.raises(DomainError, match=re.escape("(n_steps=16, record_every=4)")):
            propagate_free(state, RadialGrid.for_state(state, 1024), n_steps=16, record_every=4)

    def test_step_count_past_double_range_names_dt(self, params):
        state = make_state(U0, 6, params)
        with pytest.raises(DomainError,
                           match=re.escape("n_steps = fit_window/dt overflows at dt=4.94066e-324")):
            propagate_free(state, RadialGrid.for_state(state, 1024), dt=5e-324)

    def test_nodes_too_many_to_hold_name_their_count(self, monkeypatch):
        grid = RadialGrid(n_points=10**30, spacing=1e-30)
        with pytest.raises(DomainError, match=re.escape(f"n_points={10**30} nodes do not fit in memory")):
            grid.points()

        def refuse(n):
            raise MemoryError

        monkeypatch.setattr(np, "arange", refuse)
        with pytest.raises(DomainError, match="n_points=1024 nodes do not fit in memory"):
            RadialGrid(n_points=1024, spacing=0.01).points()

    def test_measured_slope_needs_samples(self, params):
        state = make_state(U0, 6, params)
        result = propagate_free(state, RadialGrid.for_state(state, 1024), n_steps=3)
        with pytest.raises(PreconditionError):
            result.measured_slope()

    def test_csv_export(self, params, tmp_path):
        state = make_state(U0, 6, params)
        result = propagate_free(state, RadialGrid.for_state(state, 1024), n_steps=16)
        path = tmp_path / "run.csv"
        with open(path, "w") as stream:
            result.to_csv(stream)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,p_r_mean,norm"
        assert lines[1] == "natural,hbar*kappa,dimensionless"
        assert len(lines) == 2 + len(result.times)

    @pytest.mark.parametrize("record_every, steps", [
        (3, [0, 3, 6, 9, 10]),  # strides that do not divide n_steps = 10
        (7, [0, 7, 10]),
        (5, [0, 5, 10]),
        (10, [0, 10]),  # record_every == n_steps
        (20, [0, 10]),
    ])
    def test_recording_keeps_the_evolution_and_its_schedule(self, record_every, steps, params):
        # samples at every record_every-th step and the last one, the same doubles as
        # the stride-1 run at those steps
        state = make_state(U0, 6, params)
        grid = RadialGrid.for_state(state, 1024)
        dt = default_time_step(state, grid)
        every = propagate_free(state, grid, dt, 10)
        result = propagate_free(state, grid, dt, 10, record_every=record_every)
        assert np.array_equal(result.times, dt * np.array(steps))
        assert np.array_equal(result.p_r_mean, every.p_r_mean[steps])
        assert np.array_equal(result.norm, every.norm[steps])

    def test_deterministic(self, params):
        state = make_state(U2, 30, params)
        grid = RadialGrid.for_state(state, 1024)
        a = propagate_free(state, grid, n_steps=64)
        b = propagate_free(state, grid, n_steps=64)
        assert np.array_equal(a.p_r_mean, b.p_r_mean)
        assert np.array_equal(a.norm, b.norm)


def reference_cayley_run(state, grid, dt, n_steps):
    """Independent Crank-Nicolson run: explicit B u, a banded solve of A, explicit sums.

    Returns the <p_r> (units of hbar kappa) and norm series at every step.
    """
    from scipy.linalg import solve_banded

    from hyperradial import v_q

    params = state.params
    r, h, n = grid.points(), grid.spacing, grid.n_points
    u = np.asarray(state.u(r), dtype=complex)
    u /= math.sqrt(np.sum(np.abs(u) ** 2) * h)
    kinetic = params.hbar**2 / (2.0 * params.mass * h**2)
    h_diag = 2.0 * kinetic + np.asarray(v_q(state.dim, params, r))
    alpha = 1j * dt / (2.0 * params.hbar)
    a_banded = np.zeros((3, n), dtype=complex)
    a_banded[0, 1:] = -alpha * kinetic
    a_banded[1] = 1.0 + alpha * h_diag
    a_banded[2, :-1] = -alpha * kinetic

    def observables(vec):
        walled = np.concatenate([[0.0], vec, [0.0]])
        acc = np.sum(np.conj(vec) * (walled[2:] - walled[:-2]))
        return 0.5 * acc.imag / params.kappa, float(np.sum(np.abs(vec) ** 2)) * h

    series = [observables(u)]
    for _ in range(n_steps):
        rhs = (1.0 - alpha * h_diag) * u
        rhs[:-1] += alpha * kinetic * u[1:]
        rhs[1:] += alpha * kinetic * u[:-1]
        u = solve_banded((1, 1), a_banded, rhs)
        series.append(observables(u))
    momenta, norms = map(np.asarray, zip(*series))
    return momenta, norms


class TestStepOracle:
    # u0 D=2 has an attractive V_Q, the smallest diagonal margin of the factorization
    @pytest.mark.parametrize("family, d, n_points, n_steps", [
        pytest.param(U0, 6, 1024, 50, id="StateFamily.U0-6"),
        pytest.param(U2, 30, 1024, 50, id="StateFamily.U2-30"),
        pytest.param(U0, 2, 1024, 50, id="StateFamily.U0-2"),
        pytest.param(U1, 15, 4096, 300, id="StateFamily.U1-15-4096-300"),
    ])
    def test_matches_reference_stepper(self, family, d, n_points, n_steps, params):
        state = make_state(family, d, params)
        grid = RadialGrid.for_state(state, n_points)
        dt = default_time_step(state, grid)
        result = propagate_free(state, grid, dt, n_steps)
        momenta, norms = reference_cayley_run(state, grid, dt, n_steps)
        assert np.max(np.abs(momenta)) > 0.0
        assert np.max(np.abs(result.p_r_mean - momenta)) <= 1e-12 * np.max(np.abs(momenta))
        assert np.max(np.abs(result.norm - norms)) <= 1e-13

    def test_momentum_observable_identity(self):
        # with zero walls, sum conj(u_j)(u_{j+1} - u_{j-1}) = S - conj(S),
        # S = sum conj(u_j) u_{j+1}, so its imaginary part is 2 Im S
        rng = np.random.default_rng(11)
        u = rng.normal(size=257) + 1j * rng.normal(size=257)
        walled = np.concatenate([[0.0], u, [0.0]])
        explicit = np.sum(np.conj(u) * (walled[2:] - walled[:-2]))
        assert np.vdot(u[:-1], u[1:]).imag == pytest.approx(0.5 * explicit.imag, rel=1e-12)
        real = rng.normal(size=257).astype(complex)
        assert np.vdot(real[:-1], real[1:]).imag == 0.0


class TestTrapOnStationarity:
    # With its trap left on, an eigenstate must not move: the private stepper runs the same
    # Cayley step under H_h = -Delta_h + v with the trap in v, 2000 steps to t = 1 on the
    # default grid.  What moves is the O(h^2) of the 3-point Laplacian, so it shrinks by 4
    # per halving of h (measured: 3.99 to 4.00)
    @staticmethod
    def drift(state, n_points, trap):
        from hyperradial import dynamics

        params = state.params
        grid = RadialGrid.for_state(state, n_points)
        x, h = params.kappa * grid.points(), params.kappa * grid.spacing
        u, peak = dynamics._initial_profile(state, x, h)
        v = np.asarray(trap(params, grid.points())) / params.epsilon()
        start = np.abs(u) ** 2
        dtau = params.epsilon() * (1.0 / 2000) / params.hbar
        momentum = density = 0.0
        for _, w in dynamics._cayley_steps(u, v, h, dtau, 2000, dynamics._WINDOW_FLOOR * peak):
            momentum = max(momentum, abs(np.vdot(w[:-1], w[1:]).imag))
            density = max(density, float(np.max(np.abs(np.abs(w) ** 2 - start[:w.size]))))
        return momentum, density / peak

    def test_u2_rests_in_v2(self):
        # u2 is the zero-energy eigenstate of V2; at 2048 and 4096 points max |<p_r>| read
        # 1.094e-3 and 2.736e-4, and the worst change of |u|^2 3.14e-3 and 7.84e-4 of its peak
        state = make_state(U2, 30)
        coarse, fine = (self.drift(state, n, eigen_potential_v2) for n in (2048, 4096))
        assert coarse[0] < 2e-3 and coarse[1] < 5e-3
        assert coarse[0] / fine[0] >= 3.5 and coarse[1] / fine[1] >= 3.5

    def test_u0_rests_in_the_oscillator(self):
        # u0 is the ground state of V_Q + M omega^2 r^2 / 2 with omega = hbar kappa^2 / M,
        # eps x^2 in x = kappa r; max |<p_r>| read 8.715e-6 and 2.180e-6, and the worst
        # change of |u|^2 9.47e-6 and 2.38e-6 of its peak
        state = make_state(U0, 6)

        def trap(params, r):
            return np.asarray(v_q(state.dim, params, r)) + params.epsilon() * (params.kappa * r) ** 2

        coarse, fine = (self.drift(state, n, trap) for n in (2048, 4096))
        assert coarse[0] < 2e-5 and coarse[1] < 2e-5
        assert coarse[0] / fine[0] >= 3.5 and coarse[1] / fine[1] >= 3.5


class TestFactorBand:
    # one (2, n) band holds both unit factors: the U1 superdiagonal in row 0, the L1
    # subdiagonal in row 1, each where the other factor keeps its never-read unit diagonal
    @pytest.mark.parametrize("uplo", ["L", "U"])
    def test_unit_solve_reads_only_its_own_factor(self, uplo):
        from hyperradial import dynamics

        _, tbtrs = dynamics._tridiagonal_lapack()
        rng = np.random.default_rng(7)
        n = 64
        off = 0.5 * (rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1))
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        own, cols = (0, slice(1, None)) if uplo == "U" else (1, slice(None, -1))
        clean = np.zeros((2, n), dtype=np.complex128, order="F")
        clean[1 - own] = 1.0  # the other factor's row, here the unit diagonal it stands for
        clean[own, cols] = off
        poisoned = clean.copy(order="F")
        poisoned[1 - own] = np.nan
        poisoned[0, 0] = poisoned[1, -1] = np.nan
        x_clean, info_clean = tbtrs(clean, b.copy(), uplo=uplo, diag="U")
        x_poisoned, info_poisoned = tbtrs(poisoned, b.copy(), uplo=uplo, diag="U")
        assert info_clean == info_poisoned == 0
        assert x_clean.tobytes() == x_poisoned.tobytes()
        factor = np.eye(n) + np.diag(off, 1 if uplo == "U" else -1)
        assert np.allclose(factor @ x_clean, b, rtol=1e-12, atol=0.0)


@pytest.fixture
def solved_lengths(monkeypatch) -> list:
    """The length of every right-hand side the propagator's banded solves see, two per step."""
    from hyperradial import dynamics

    gttrf, tbtrs = dynamics._tridiagonal_lapack()
    lengths = []

    def recording_tbtrs(band, y, **kwargs):
        lengths.append(y.shape[0])
        return tbtrs(band, y, **kwargs)

    monkeypatch.setattr(dynamics, "_tridiagonal_lapack", lambda: (gttrf, recording_tbtrs))
    return lengths


class TestSolveWindow:
    # a step solves only the nodes up to the first one past the last where |u|^2 >= eps^2 peak
    def test_trap_state_steps_its_window_only(self, solved_lengths):
        state = make_state(U1, 15)
        grid = RadialGrid.for_state(state, 8192)  # peak + 12/kappa: the outer third is void
        result = propagate_free(state, grid)
        assert len(solved_lengths) == 2 * (len(result.times) - 1)
        assert max(solved_lengths) < 0.75 * grid.n_points

    def test_u2_steps_every_node(self, solved_lengths):
        # the u2 grid ends 13 decades down in amplitude, well above eps
        state = make_state(U2, 30)
        grid = RadialGrid.for_state(state, 4096)
        propagate_free(state, grid)
        assert solved_lengths and set(solved_lengths) == {grid.n_points}

    def test_widened_run_matches_full_grid_reference(self, solved_lengths, params):
        # at dt = 2e-3 the tail reaches the window edge between the recorded steps
        # 100 and 150, long before the reflection that test_reflection_abort triggers
        state = make_state(U0, 6, params)
        grid = RadialGrid.uniform(state.peak_radius() + 9.0, 1024)
        dt, n_steps = 2e-3, 400
        result = propagate_free(state, grid, dt, n_steps, record_every=50)
        solves = solved_lengths[::2]  # one per solve of a step; the widening step has two
        widened_at = solves.index(grid.n_points)  # that step's redo on every node
        assert len(solves) == n_steps + 1 and solves[widened_at - 1] < grid.n_points
        assert widened_at % 50 != 0 and set(solves[widened_at:]) == {grid.n_points}
        momenta, norms = reference_cayley_run(state, grid, dt, n_steps)
        recorded = np.arange(0, n_steps + 1, 50)
        assert np.max(np.abs(result.p_r_mean - momenta[recorded])) <= 1e-12 * np.max(np.abs(momenta))
        assert np.max(np.abs(result.norm - norms[recorded])) <= 1e-13

    @pytest.mark.parametrize("dt, n_steps", [(1.0, 4), (3.0, 1), (10.0, 1)])
    def test_large_explicit_dt_matches_full_grid_reference(self, dt, n_steps, params,
                                                           solved_lengths):
        # the first step carries the tail past the window edge: the step against the
        # moved wall would reflect there, so it is redone on every node
        state = make_state(U0, 6, params)
        grid = RadialGrid.for_state(state, 1024)
        result = propagate_free(state, grid, dt, n_steps)
        solves = solved_lengths[::2]
        assert solves[0] < grid.n_points and set(solves[1:]) == {grid.n_points}
        momenta, norms = reference_cayley_run(state, grid, dt, n_steps)
        assert np.max(np.abs(result.p_r_mean - momenta)) <= 1e-12 * np.max(np.abs(momenta))
        assert np.max(np.abs(result.norm - norms)) <= 1e-13

    def test_large_explicit_dt_still_hits_the_outer_wall(self, params):
        # the second step at dt = 10 reaches the real wall; a run kept on the
        # window would reflect off its edge instead and pass
        state = make_state(U0, 6, params)
        grid = RadialGrid.for_state(state, 1024)
        with pytest.raises(PropagationError, match="reflection detected at t=20"):
            propagate_free(state, grid, 10.0, 2)


class TestSolveFaults:
    # the two aborts of the step loop that no sound run reaches, driven through a
    # wrapped LAPACK ztbtrs as in solved_lengths
    @staticmethod
    def run_with(monkeypatch, solve):
        from hyperradial import dynamics

        gttrf, tbtrs = dynamics._tridiagonal_lapack()
        monkeypatch.setattr(dynamics, "_tridiagonal_lapack",
                            lambda: (gttrf, lambda band, y, **kwargs: solve(tbtrs(band, y, **kwargs))))
        state = make_state(U0, 6)
        propagate_free(state, RadialGrid.for_state(state, 1024), 1e-3, 20)

    def test_norm_drift_aborts(self, monkeypatch):
        # each solve 1e-3 too large lifts the norm by about 0.8% a step, past the 1e-4 limit
        with pytest.raises(PropagationError, match="norm drifted to .* at t=0.001 "):
            self.run_with(monkeypatch, lambda out: (out[0] * (1.0 + 1e-3), out[1]))

    def test_failed_banded_solve_aborts(self, monkeypatch):
        with pytest.raises(PropagationError, match=r"banded solve failed at step 1 \(info=1\)"):
            self.run_with(monkeypatch, lambda out: (out[0], 1))


class TestWorkingSet:
    # A run keeps the nodes, u and y, the factor band and 1/d (88 B/node) and one 24 B
    # float64 record entry per sample; its setup peaks at about 130 B/node.  The slack
    # covers the small objects of one run (the state's quadrature, the result)
    SLACK = 64 * 1024

    @staticmethod
    def traced_peak(state, grid, **kwargs):
        propagate_free(state, grid, n_steps=1)  # loads LAPACK outside the trace
        tracemalloc.start()
        try:
            result = propagate_free(state, grid, **kwargs)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_default_run_peaks_under_one_megabyte(self):
        state = make_state(U0, 6)
        _, peak = self.traced_peak(state, RadialGrid.for_state(state, 4096))
        assert peak <= 1_000_000, peak

    def test_long_run_keeps_one_record_entry_per_sample(self):
        state = make_state(U2, 30)
        grid = RadialGrid.for_state(state, 4096)
        result, peak = self.traced_peak(state, grid, n_steps=20_000)
        assert result.times.size == 20_001
        assert peak <= 140 * grid.n_points + 24 * result.times.size + self.SLACK, peak


class TestScalingLawOverDimensions:
    # Three-point power-law fits of the slope over D in {30, 60, 120}.
    # The closed forms give alpha = 0.5045 for u0 and alpha = 2.0762 for u2
    # (the strength factor (D-1)(D-3) sits above a pure D^2 at finite D).
    # The acceptance suite pins the TDSE-measured slopes to these closed
    # forms within 2%, which bounds the measured alpha to the same values.

    def test_u0_square_root_growth(self, params):
        from hyperradial import fit_power_law

        slopes = [raman_nath_slope_closed(make_state(U0, d, params)) for d in (30, 60, 120)]
        alpha, _ = fit_power_law([30, 60, 120], slopes)
        assert alpha == pytest.approx(0.504507, abs=1e-4)
        assert abs(alpha - 0.5) <= 0.05

    def test_u2_quadratic_growth(self, params):
        from hyperradial import fit_power_law

        slopes = [raman_nath_slope_closed(make_state(U2, d, params)) for d in (30, 60, 120)]
        alpha, _ = fit_power_law([30, 60, 120], slopes)
        assert alpha == pytest.approx(2.076157, abs=1e-4)
        assert 2.0 < alpha < 2.1
