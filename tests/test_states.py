import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar
from scipy.special import lambertw

from hyperradial import (
    DomainError,
    HyperDimension,
    PhysicalParams,
    QuadratureError,
    RadialState,
    StateFamily,
    bohm_quantum_potential,
    centrifugal_force,
    eigen_potential_v2,
    gamma,
    log_solid_angle,
    make_state,
    norm_constant,
    short_time_phase_state,
    solid_angle,
    u2_eigenstate_residual,
    unit_sphere_volume,
    v_q,
)
from hyperradial import states
from hyperradial.states import _lambert_w

ALL_FAMILIES = [StateFamily.U0, StateFamily.U1, StateFamily.U2]


def radial_functions(params: PhysicalParams) -> dict:
    """The twelve public functions of a radius, each taking r alone."""
    state = make_state(StateFamily.U0, 6, params)
    return {
        "log_u": state.log_u,
        "u": state.u,
        "d_log_u": state.d_log_u,
        "u_second_over_u": state.u_second_over_u,
        "log_abs_psi": state.log_abs_psi,
        "psi": state.psi,
        "v_q": lambda r: v_q(state.dim, params, r),
        "centrifugal_force": lambda r: centrifugal_force(state.dim, params, r),
        "eigen_potential_v2": lambda r: eigen_potential_v2(params, r),
        "bohm_quantum_potential": lambda r: bohm_quantum_potential(state, r),
        "short_time_phase_state": lambda r: short_time_phase_state(state, 0.0, r),
        "u2_eigenstate_residual": lambda r: u2_eigenstate_residual(params, r),
    }


def _middle(bad: float):
    return pytest.param(np.array([0.5, 1.0, bad, 1.5, 2.0]), id=f"middle-{bad}")


class TestGeometry:
    def test_solid_angle_circle_and_sphere(self):
        assert solid_angle(HyperDimension(2)) == pytest.approx(2 * math.pi, rel=1e-13)
        assert solid_angle(HyperDimension(3)) == pytest.approx(4 * math.pi, rel=1e-13)

    def test_solid_angle_d6(self):
        # 2 pi^3 / Gamma(3) = pi^3, cross-checked through the gamma op
        assert solid_angle(HyperDimension(6)) == pytest.approx(math.pi**3, rel=1e-13)
        assert solid_angle(HyperDimension(6)) == pytest.approx(
            2 * math.pi**3 / gamma(3.0), rel=1e-13
        )

    def test_unit_ball_volume(self):
        assert unit_sphere_volume(HyperDimension(3)) == pytest.approx(4 * math.pi / 3, rel=1e-13)

    def test_volume_decreasing_past_five(self):
        v6 = unit_sphere_volume(HyperDimension(6))
        v7 = unit_sphere_volume(HyperDimension(7))
        assert v6 > v7
        volumes = [unit_sphere_volume(HyperDimension(d)) for d in range(5, 21)]
        assert all(a > b for a, b in zip(volumes, volumes[1:]))

    def test_volume_peaks_at_five(self):
        volumes = {d: unit_sphere_volume(HyperDimension(d)) for d in range(1, 21)}
        assert max(volumes, key=volumes.get) == 5


class TestNormConstants:
    def test_u0_d3_closed_form(self, params):
        expected = math.sqrt(2.0 / gamma(1.5))  # equals (4/sqrt(pi))^(1/2)
        assert norm_constant(StateFamily.U0, HyperDimension(3), params) == pytest.approx(
            expected, rel=1e-12
        )
        assert expected == pytest.approx((4.0 / math.sqrt(math.pi)) ** 0.5, rel=1e-13)

    def test_u2_unit_beta_kappa(self, params):
        from hyperradial import bessel_k

        expected = math.sqrt(1.0 / (2.0 * bessel_k(1, 2.0)))
        assert norm_constant(StateFamily.U2, HyperDimension(3), params) == pytest.approx(
            expected, rel=1e-12
        )

    def test_kappa_scaling_u0(self):
        # N0 carries kappa^(D/2)
        d = HyperDimension(5)
        base = norm_constant(StateFamily.U0, d, PhysicalParams())
        scaled = norm_constant(StateFamily.U0, d, PhysicalParams(kappa=2.0))
        assert scaled / base == pytest.approx(2.0 ** (5 / 2), rel=1e-12)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("d", [4, 6, 9, 30, 60])
    def test_normalization_quadrature(self, family, d, params):
        state = RadialState(family=family, dim=HyperDimension(d), params=params)
        assert state.normalization_integral().value == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("beta_kappa", [0.25, 1.0, 4.0])
    def test_u2_normalization_all_shapes(self, beta_kappa):
        state = RadialState(
            family=StateFamily.U2,
            dim=HyperDimension(6),
            params=PhysicalParams(beta=beta_kappa),
        )
        assert state.normalization_integral().value == pytest.approx(1.0, abs=1e-9)

    def test_normalization_at_extreme_dimension(self, params):
        # exercises the log-space contract: naive constants underflow near D ~ 600
        state = make_state(StateFamily.U0, 3000, params)
        assert state.normalization_integral().value == pytest.approx(1.0, abs=1e-9)


class TestEvaluation:
    @pytest.mark.parametrize("kappa", [1.0, 2.0])
    def test_u0_peak_location_golden_section(self, kappa):
        state = make_state(StateFamily.U0, 6, PhysicalParams(kappa=kappa))
        analytic = math.sqrt(2.5) / kappa
        res = minimize_scalar(
            lambda r: -float(state.log_u(r)),
            bracket=(0.3 * analytic, analytic, 3.0 * analytic),
            method="golden",
            options={"xtol": 1e-12},
        )
        assert state.peak_radius() == pytest.approx(analytic, rel=1e-12)
        assert res.x == pytest.approx(analytic, rel=1e-6)

    @pytest.mark.parametrize("beta", [1.0, 4.0])
    def test_u2_peak_location(self, beta):
        state = RadialState(
            family=StateFamily.U2, dim=HyperDimension(6), params=PhysicalParams(beta=beta)
        )
        analytic = math.sqrt(beta)
        res = minimize_scalar(
            lambda r: -float(state.log_u(r)),
            bracket=(0.3 * analytic, analytic, 3.0 * analytic),
            method="golden",
            options={"xtol": 1e-12},
        )
        assert state.peak_radius() == pytest.approx(analytic, rel=1e-12)
        assert res.x == pytest.approx(analytic, rel=1e-6)

    def test_u1_over_u0_is_r_squared(self, params):
        u0 = make_state(StateFamily.U0, 6, params)
        u1 = make_state(StateFamily.U1, 6, params)
        double_ratio = (u1.u(2.0) / u0.u(2.0)) / (u1.u(1.0) / u0.u(1.0))
        assert double_ratio == pytest.approx(4.0, rel=1e-12)

    def test_psi0_product_form(self, params):
        # Psi0(r) = (kappa^2/pi)^(D/4) exp(-kappa^2 r^2/2)
        state = make_state(StateFamily.U0, 6, params)
        expected = (1.0 / math.pi) ** (6 / 4) * math.exp(-0.5)
        assert state.psi(1.0) == pytest.approx(expected, rel=1e-10)

    def test_psi0_equals_gaussian_product_at_random_point(self, params):
        d = 6
        state = make_state(StateFamily.U0, d, params)
        direction = np.random.randn(d)
        direction /= np.linalg.norm(direction)
        r = 1.7
        x = r * direction
        log_product = float(np.sum(0.25 * math.log(1.0 / math.pi) - 0.5 * x**2))
        assert float(state.log_abs_psi(r)) == pytest.approx(log_product, rel=1e-10)

    def test_u1_shape_ratio(self, params):
        # psi1(2r)/psi1(r) = 4 exp(-3 kappa^2 r^2 / 2)
        state = make_state(StateFamily.U1, 6, params)
        r = 0.7
        expected = 4.0 * math.exp(-1.5 * r**2)
        assert state.psi(2 * r) / state.psi(r) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_psi_normalized_in_hyperspace(self, family, params):
        # S_D int |Psi|^2 r^(D-1) dr = 1, assembled through the psi route
        from hyperradial import integrate_radial

        d = 30
        state = RadialState(family=family, dim=HyperDimension(d), params=params)
        log_sd = log_solid_angle(state.dim)

        def density(r):
            return np.exp(log_sd + 2.0 * np.asarray(state.log_abs_psi(r)) + (d - 1) * np.log(r))

        r_lo, r_hi = state.support()
        assert integrate_radial(density, r_lo, r_hi).value == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_positive_and_vanishing(self, family, params):
        state = RadialState(family=family, dim=HyperDimension(6), params=params)
        r_lo, r_hi = state.support()
        r = np.geomspace(max(r_lo, 1e-6), r_hi, 64)
        assert np.all(np.asarray(state.u(r)) > 0)
        peak = state.u(state.peak_radius() or r_lo)
        assert state.u(r_hi) < 1e-12 * peak
        if family is not StateFamily.U0 or state.dim.d > 1:
            assert state.u(max(r_lo, 1e-12)) < 1e-12 * peak

    def test_no_overflow_high_dimensions(self, params):
        # D up to 3000 on r in [1e-3, 1e3]: log-space evaluation must stay finite
        r = np.geomspace(1e-3, 1e3, 121)
        for family in (StateFamily.U0, StateFamily.U1):
            state = RadialState(family=family, dim=HyperDimension(3000), params=params)
            for values in (state.log_u(r), state.log_abs_psi(r)):
                assert np.all(np.isfinite(np.asarray(values)))
            assert np.all(np.isfinite(np.asarray(state.u(r))))
            assert np.all(np.isfinite(np.asarray(state.psi(r))))

    @pytest.mark.parametrize("bad_r", [
        0.0, -1.0, float("nan"), math.inf, -math.inf,
        _middle(float("nan")), _middle(math.inf), _middle(0.0), _middle(-1.0),
        pytest.param(np.array([]), id="empty"),
    ])
    def test_radius_domain(self, bad_r, params):
        for name, function in radial_functions(params).items():
            with pytest.raises(DomainError, match="radius"):
                function(bad_r)
                pytest.fail(f"{name} accepted r = {bad_r!r}")

    @pytest.mark.parametrize("r, shape", [
        (1.5, None),
        (np.array(1.5), None),
        ([1.0, 1.5, 2.0], (3,)),
        (np.array([1.0, 1.5, 2.0]), (3,)),
    ], ids=["float", "0-d", "list", "ndarray"])
    def test_radius_return_kind(self, r, shape, params):
        # a scalar r gives the matching element of the array call, of the same kind
        for name, function in radial_functions(params).items():
            out = function(r)
            reference = function(np.array([1.0, 1.5, 2.0]))
            if name == "u2_eigenstate_residual":  # one figure over all the radii
                assert type(out) is float, name
            elif shape is None:
                kind = complex if name == "short_time_phase_state" else float
                assert np.isscalar(out) and isinstance(out, kind), (name, type(out))
                assert out == reference[1], name
            else:
                assert isinstance(out, np.ndarray) and out.shape == shape, (name, type(out))
                assert np.array_equal(out, reference), name

    def test_one_radius_gate_per_call(self, params, monkeypatch):
        # composites build on one gated evaluator instead of checking r again; the
        # phase state and the eigenstate residual evaluate arrays of their own
        original = states._as_positive_radius
        calls = []

        def counting(r):
            calls.append(r)
            return original(r)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("hyperradial") and vars(module).get("_as_positive_radius") is original:
                monkeypatch.setattr(module, "_as_positive_radius", counting)
        for name, function in radial_functions(params).items():
            if name in ("short_time_phase_state", "u2_eigenstate_residual"):
                continue
            for r in (1.5, np.array([1.0, 1.5, 2.0])):
                calls.clear()
                function(r)
                assert len(calls) == 1, (name, len(calls))

    def test_curvature_matches_finite_differences(self, params):
        # u'' has zeros, so compare on an absolute scale set by the largest
        # curvature among the probe radii
        h = 1e-4
        radii = (0.6, 1.1, 2.3)
        for family in ALL_FAMILIES:
            state = RadialState(family=family, dim=HyperDimension(6), params=params)
            analytic = [state.u_second_over_u(r) * state.u(r) for r in radii]
            scale = max(abs(v) for v in analytic)
            for r, expected in zip(radii, analytic):
                fd = (state.u(r + h) - 2.0 * state.u(r) + state.u(r - h)) / h**2
                assert fd == pytest.approx(expected, abs=1e-6 * scale)


class TestEigenPotential:
    def test_asymptotic_constant(self, params):
        limit = params.hbar**2 / (2 * params.mass) * (params.kappa / 2.0) ** 2
        assert eigen_potential_v2(params, 1e6) == pytest.approx(limit, rel=1e-5)

    def test_u2_solves_zero_energy_equation_analytically(self, params):
        state = make_state(StateFamily.U2, 6, params)
        coupling = 2.0 * params.mass / params.hbar**2
        for r in np.geomspace(0.1, 10.0, 50):
            lhs = float(state.u_second_over_u(r))
            rhs = coupling * float(eigen_potential_v2(params, r))
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_u2_zero_energy_residual_finite_differences(self, params):
        radii = np.geomspace(0.1, 10.0, 200)
        assert u2_eigenstate_residual(params, radii) <= 1e-8

    def test_confining_potential_reduces_to_v2_at_d3(self, params):
        # V_Q vanishes at D=3, so V2 - V_Q is V2 itself
        r = np.geomspace(0.2, 5.0, 20)
        vq = np.asarray(v_q(HyperDimension(3), params, r))
        assert np.all(vq == 0)
        confining = np.asarray(eigen_potential_v2(params, r)) - vq
        np.testing.assert_allclose(confining, np.asarray(eigen_potential_v2(params, r)), rtol=0)

    def test_dimension_free(self):
        # V2 takes no dimension argument; different beta*kappa still vary it
        a = eigen_potential_v2(PhysicalParams(beta=1.0), 0.7)
        b = eigen_potential_v2(PhysicalParams(beta=2.0), 0.7)
        assert a != b


class TestSupportWindow:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("d", [1, 4, 6000])
    @pytest.mark.parametrize("drop", [17.0, 12.0])
    def test_edges_sit_drop_below_peak(self, family, d, drop):
        params = PhysicalParams(kappa=1.3, beta=0.7)
        state = RadialState(family=family, dim=HyperDimension(d), params=params)
        r_lo, r_hi = state.support(drop)
        peak = state.peak_radius()
        # u0 at D=1 peaks at the origin: the drop is measured from r = 1/kappa
        # and the inner edge is clamped
        reference = peak if peak > 0 else 1.0 / params.kappa
        edges = (r_lo, r_hi) if peak > 0 else (r_hi,)
        for r in edges:
            fall = float(state.log_u(reference)) - float(state.log_u(r))
            assert fall == pytest.approx(drop * math.log(10.0), rel=1e-10)
        assert r_lo < reference < r_hi

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("drop", [-1.0, 0.0, math.nan, math.inf])
    def test_drop_must_be_positive_and_finite(self, family, drop):
        state = make_state(family, 6)
        with pytest.raises(DomainError, match="drop_decades"):
            state.support(drop)

    def test_window_without_width_is_an_error(self):
        # at beta*kappa = 1e300 both edges round to sqrt(beta/kappa) = 1e150; an empty
        # window would integrate to an exact 0 and report a norm of 0
        state = RadialState(family=StateFamily.U2, dim=HyperDimension(6),
                            params=PhysicalParams(beta=1e300))
        assert state.support() == (1e150, 1e150)
        with pytest.raises(QuadratureError, match=r"r in \[1e\+150, 1e\+150\].*beta\*kappa=1e\+300"):
            state.normalization_integral()


class TestLambertW:
    @pytest.mark.parametrize("drop", [12.0, 17.0])
    @pytest.mark.parametrize("branch", [0, -1])
    def test_matches_scipy(self, branch, drop):
        # the exponents support() passes: L = -1 - 2 drop ln(10) / a
        for a in np.geomspace(0.5, 3000.0, 181):
            log_minus_z = -1.0 - 2.0 * drop * math.log(10.0) / a
            reference = lambertw(-math.exp(log_minus_z), branch).real
            assert _lambert_w(log_minus_z, branch) == pytest.approx(reference, rel=1e-14, abs=0.0)


class TestSerialization:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_round_trip(self, family):
        state = RadialState(
            family=family,
            dim=HyperDimension(9),
            params=PhysicalParams(kappa=1.3, beta=0.7 / 1.3),
        )
        rebuilt = RadialState.from_config(state.to_config())
        assert rebuilt.family == state.family
        assert rebuilt.dim == state.dim
        for r in (0.4, 1.0, 3.3):
            assert rebuilt.u(r) == pytest.approx(state.u(r), rel=1e-12)

    def test_schema(self, params):
        config = make_state(StateFamily.U1, 6, params).to_config()
        assert config == {"family": "u1", "D": 6, "kappa": 1.0, "beta_kappa": 1.0}

    def test_unknown_key_rejected(self):
        with pytest.raises(DomainError, match="unknown"):
            RadialState.from_config(
                {"family": "u0", "D": 6, "kappa": 1.0, "beta_kappa": 1.0, "mass": 2.0}
            )

    def test_missing_key_rejected(self):
        with pytest.raises(DomainError, match="missing"):
            RadialState.from_config({"family": "u0", "D": 6})

    @pytest.mark.parametrize("d", [6.7, True])
    def test_non_integer_dimension_rejected(self, d):
        with pytest.raises(DomainError, match="integer"):
            RadialState.from_config({"family": "u0", "D": d, "kappa": 1.0, "beta_kappa": 1.0})

    @pytest.mark.parametrize("key, value", [("kappa", True), ("beta_kappa", "2"), ("kappa", -1.0)])
    def test_non_positive_or_non_numeric_parameter_rejected(self, key, value):
        config = {"family": "u2", "D": 6, "kappa": 1.0, "beta_kappa": 1.0, key: value}
        with pytest.raises(DomainError, match=key):
            RadialState.from_config(config)

    def test_bad_family_rejected(self):
        with pytest.raises(DomainError, match="family"):
            RadialState.from_config({"family": "u9", "D": 6, "kappa": 1.0, "beta_kappa": 1.0})

    @settings(max_examples=40, deadline=None)
    @given(
        family=st.sampled_from(ALL_FAMILIES),
        d=st.integers(min_value=1, max_value=300),
        kappa=st.floats(min_value=0.1, max_value=10.0),
        beta_kappa=st.floats(min_value=0.1, max_value=10.0),
    )
    def test_round_trip_property(self, family, d, kappa, beta_kappa):
        state = RadialState(
            family=family,
            dim=HyperDimension(d),
            params=PhysicalParams(kappa=kappa, beta=beta_kappa / kappa),
        )
        rebuilt = RadialState.from_config(state.to_config())
        assert rebuilt.dim == state.dim and rebuilt.family == state.family
        assert rebuilt.params.kappa == pytest.approx(kappa, rel=1e-14)
        assert rebuilt.params.beta_kappa == pytest.approx(beta_kappa, rel=1e-14)
