from fractions import Fraction

import numpy as np
import pytest

from hyperradial import (
    CLOSED_FORM,
    QUADRATURE,
    DivergentIntegralError,
    DomainError,
    HyperDimension,
    PhysicalParams,
    RadialState,
    StateFamily,
    bessel_k_integral,
    energy_report,
    make_state,
    t_r_closed,
    t_r_quadrature,
    t_v_closed,
    t_v_quadrature,
    v_q,
)

U0, U1, U2 = StateFamily.U0, StateFamily.U1, StateFamily.U2


class TestCentrifugalPotential:
    def test_vanishes_at_one_and_three(self, params):
        for d in (1, 3):
            assert v_q(HyperDimension(d), params, 0.37) == 0.0
            assert v_q(HyperDimension(d), params, 42.0) == 0.0

    def test_attractive_at_two(self, params):
        assert v_q(HyperDimension(2), params, 1.0) == pytest.approx(-1.0 / 8.0, rel=1e-14)

    def test_d6_value(self, params):
        # independent recomputation: (1/2) * 5*3 / (4 * 2^2) = 15/32
        assert v_q(HyperDimension(6), params, 2.0) == pytest.approx(15.0 / 32.0, rel=1e-14)
        assert v_q(HyperDimension(6), params, 2.0) == pytest.approx(
            0.5 * (6 - 1) * (6 - 3) / (4.0 * 2.0**2), rel=1e-15
        )

    def test_sign_structure(self, params):
        radii = np.geomspace(1e-3, 1e3, 25)
        dims = sorted(set(np.geomspace(4, 3000, 40).astype(int)))
        for d in dims:
            assert np.all(np.asarray(v_q(HyperDimension(d), params, radii)) > 0)
        assert np.all(np.asarray(v_q(HyperDimension(2), params, radii)) < 0)
        for d in (1, 3):
            assert np.all(np.asarray(v_q(HyperDimension(d), params, radii)) == 0)

    def test_radius_domain(self, params):
        with pytest.raises(DomainError):
            v_q(HyperDimension(6), params, 0.0)


class TestClosedForms:
    def test_t_r_u0_d4(self, params):
        assert t_r_closed(U0, HyperDimension(4), params) == pytest.approx(1.25, rel=1e-14)

    def test_t_r_u1_d6(self, params):
        assert t_r_closed(U1, HyperDimension(6), params) == pytest.approx(1.0625, rel=1e-14)

    def test_t_r_u2_unit_shape(self, params):
        # K2(2)/(2 K1(2)), pinned by the defining-integral oracle
        oracle = bessel_k_integral(2, 2.0) / (2.0 * bessel_k_integral(1, 2.0))
        assert t_r_closed(U2, HyperDimension(30), params) == pytest.approx(oracle, rel=1e-9)

    def test_t_v_u0_d4(self, params):
        assert t_v_closed(U0, HyperDimension(4), params) == pytest.approx(0.75, rel=1e-14)

    @pytest.mark.parametrize("d", [4, 6, 9, 12, 30, 60, 150])
    def test_u0_total_is_half_d(self, d, params):
        total = t_r_closed(U0, HyperDimension(d), params) + t_v_closed(U0, HyperDimension(d), params)
        assert total == pytest.approx(0.5 * d, rel=1e-14)

    def test_u1_total_d30(self, params):
        total = t_r_closed(U1, HyperDimension(30), params) + t_v_closed(U1, HyperDimension(30), params)
        assert total == pytest.approx(15.0 - 2.0 + 8.0 / 32.0, rel=1e-14)

    def test_u2_t_v_d30(self, params):
        assert t_v_closed(U2, HyperDimension(30), params) == pytest.approx(195.75, rel=1e-14)

    def test_u2_total_d30(self, params):
        total = t_r_closed(U2, HyperDimension(30), params) + t_v_closed(U2, HyperDimension(30), params)
        oracle_tr = bessel_k_integral(2, 2.0) / (2.0 * bessel_k_integral(1, 2.0))
        assert total == pytest.approx(195.75 + oracle_tr, rel=1e-9)

    def test_u2_t_v_quadratic_in_strength(self):
        # T_V is exactly strength/(4 beta kappa) in units of eps
        params = PhysicalParams(beta=4.0)
        for d in (2, 5, 12, 99):
            dim = HyperDimension(d)
            assert t_v_closed(U2, dim, params) == pytest.approx(
                dim.strength() / 16.0, rel=1e-15
            )

    @pytest.mark.parametrize("d", [1, 2])
    def test_u0_closed_form_rejected_below_d3(self, d, params):
        for op in (t_r_closed, t_v_closed):
            with pytest.raises(DomainError, match="1/\\(D-2\\)"):
                op(U0, HyperDimension(d), params)

    def test_u1_total_negative_correction_at_d2(self, params):
        # u1 remains regular at D=2; its centrifugal part goes negative there
        assert t_v_closed(U1, HyperDimension(2), params) == pytest.approx(-0.125, rel=1e-13)

    @pytest.mark.parametrize("family, first_d, offset", [(U0, 3, -2), (U1, 1, 2)])
    def test_t_v_is_correctly_rounded_rational(self, family, first_d, offset, params):
        # T_V = s / (2m) with s = (D-1)(D-3) and m = D - 2 (u0) or D + 2 (u1)
        for d in range(first_d, 3001):
            exact = Fraction((d - 1) * (d - 3), 2 * (d + offset))
            assert t_v_closed(family, HyperDimension(d), params) == float(exact), d


class TestQuadratureRoutes:
    def test_u0_d6_t_r(self, params):
        assert t_r_quadrature(make_state(U0, 6, params)) == pytest.approx(1.125, rel=1e-8)

    def test_u1_d9_t_r(self, params):
        assert t_r_quadrature(make_state(U1, 9, params)) == pytest.approx(1.0 + 1.0 / 22.0, rel=1e-8)

    def test_u2_beta_kappa_4_t_r(self):
        params = PhysicalParams(beta=4.0)
        state = RadialState(family=U2, dim=HyperDimension(6), params=params)
        assert t_r_quadrature(state) == pytest.approx(t_r_closed(U2, state.dim, params), rel=1e-8)

    def test_u0_d4_t_v(self, params):
        assert t_v_quadrature(make_state(U0, 4, params)) == pytest.approx(0.75, rel=1e-8)

    def test_u2_d6_t_v(self, params):
        assert t_v_quadrature(make_state(U2, 6, params)) == pytest.approx(15.0 / 4.0, rel=1e-8)

    @pytest.mark.parametrize("family", [U0, U1, U2])
    def test_exactly_zero_at_d3(self, family, params):
        assert t_v_quadrature(make_state(family, 3, params)) == 0.0

    @pytest.mark.parametrize("family", [U0, U1])
    @pytest.mark.parametrize("d", [4, 5, 9, 30, 150])
    def test_closed_vs_quadrature_trap_states(self, family, d, params):
        state = make_state(family, d, params)
        assert t_r_quadrature(state) == pytest.approx(
            t_r_closed(family, state.dim, params), rel=1e-8
        )
        assert t_v_quadrature(state) == pytest.approx(
            t_v_closed(family, state.dim, params), rel=1e-8
        )

    @pytest.mark.parametrize("beta_kappa", [0.25, 4.0])
    @pytest.mark.parametrize("d", [5, 30])
    def test_closed_vs_quadrature_u2(self, beta_kappa, d):
        params = PhysicalParams(beta=beta_kappa)
        state = RadialState(family=U2, dim=HyperDimension(d), params=params)
        assert t_r_quadrature(state) == pytest.approx(t_r_closed(U2, state.dim, params), rel=1e-8)
        assert t_v_quadrature(state) == pytest.approx(t_v_closed(U2, state.dim, params), rel=1e-8)

    def test_u0_d2_diverges(self, params):
        state = make_state(U0, 2, params)
        with pytest.raises(DivergentIntegralError, match="r\\^-2"):
            t_v_quadrature(state)
        with pytest.raises(DivergentIntegralError):
            t_r_quadrature(state)

    def test_u0_d1_quadrature_continues_closed_form(self, params):
        # 1 + 1/(2(D-2)) evaluated at D=1 gives 0.5; the integral agrees
        # (a half-Gaussian has <(kappa r)^2> = 1/2)
        assert t_r_quadrature(make_state(U0, 1, params)) == pytest.approx(0.5, rel=1e-8)


class TestEnergyReport:
    def test_total_is_sum_bitwise(self, params):
        report = energy_report(make_state(U1, 9, params))
        assert report.total == report.t_r + report.t_v

    def test_methods_agree(self, params):
        state = make_state(U2, 12, params)
        closed = energy_report(state, CLOSED_FORM)
        quad = energy_report(state, QUADRATURE)
        assert quad.t_r == pytest.approx(closed.t_r, rel=1e-8)
        assert quad.t_v == pytest.approx(closed.t_v, rel=1e-8)
        assert quad.total == pytest.approx(closed.total, rel=1e-8)

    def test_carries_epsilon(self):
        params = PhysicalParams(kappa=2.0)
        report = energy_report(make_state(U0, 6, params))
        assert report.epsilon == 2.0

    def test_thermodynamic_total_u0(self, params):
        # N = 5 particles: total = D/2 = 7.5 in units of eps
        report = energy_report(make_state(U0, 15, params))
        assert report.total == pytest.approx(7.5, rel=1e-14)

    def test_unknown_method(self, params):
        with pytest.raises(DomainError):
            energy_report(make_state(U0, 6, params), "variational")

    def test_sign_invariant(self, params):
        # t_r positive always; t_v negative only at D=2
        for family in (U1, U2):
            for d in (2, 4, 9):
                report = energy_report(make_state(family, d, params))
                assert report.t_r > 0
                if d == 2:
                    assert report.t_v < 0
                else:
                    assert report.t_v >= 0


class TestThermodynamicLimit:
    def test_u0_exact(self, params):
        for n in range(2, 51):
            d = 3 * n
            report = energy_report(make_state(U0, d, params))
            assert abs(report.total / (0.5 * d) - 1.0) <= 1e-14

    def test_u1_within_five_over_d(self, params):
        for n in range(4, 51, 3):
            d = 3 * n
            report = energy_report(make_state(U1, d, params))
            assert abs(report.total / (0.5 * d) - 1.0) <= 5.0 / d


class TestLaplacianIdentity:
    @pytest.mark.parametrize(
        "family,d", [(U0, 6), (U1, 9), (U2, 12)]
    )
    def test_bracket_operator_reproduces_total(self, family, d, params):
        # integrate u * [-u'' + S/(4 r^2) u] with u'' from finite differences
        # on a dense uniform grid: an all-numerical route to the total energy
        state = make_state(family, d, params)
        r_lo, r_hi = state.support()
        n = 400_001
        r = np.linspace(max(r_lo, 1e-6), r_hi, n)
        h = r[1] - r[0]
        u = np.asarray(state.u(r))
        u_second = np.empty_like(u)
        u_second[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / h**2
        u_second[0] = u_second[1]
        u_second[-1] = u_second[-2]
        strength = state.dim.strength()
        bracket = -u_second + strength / (4.0 * r**2) * u
        total_abs = 0.5 * np.trapezoid(u * bracket, r)  # hbar^2/2M = 1/2
        expected = (
            t_r_closed(family, state.dim, params) + t_v_closed(family, state.dim, params)
        ) * params.epsilon()
        assert total_abs == pytest.approx(expected, rel=1e-6)
