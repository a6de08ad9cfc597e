import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperradial import (
    DivergentIntegralError,
    DomainError,
    HyperDimension,
    PhysicalParams,
    RadialGrid,
    StateFamily,
    Tolerance,
    bessel_k,
    bessel_k_integral,
    bessel_k_ratio,
    energy_scaling_table,
    epsilon,
    fermion_scaling_table,
    fermion_trap_energy,
    gamma,
    log_gamma,
    make_state,
    propagate_free,
    slope_scaling_table,
    strength,
)


class TestPhysicalParams:
    def test_epsilon_defaults(self):
        assert epsilon(PhysicalParams()) == 0.5

    def test_epsilon_kappa_two(self):
        assert epsilon(PhysicalParams(kappa=2.0)) == 2.0

    def test_epsilon_half_mass(self):
        assert epsilon(PhysicalParams(mass=0.5)) == 1.0

    @pytest.mark.parametrize("field", ["hbar", "mass", "kappa", "beta", "omega"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_nonpositive(self, field, bad):
        with pytest.raises(DomainError):
            PhysicalParams(**{field: bad})

    def test_beta_kappa_product(self):
        assert PhysicalParams(beta=0.5, kappa=4.0).beta_kappa == 2.0

    def test_immutable(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            PhysicalParams().kappa = 2.0

    @settings(max_examples=60, deadline=None)
    @given(
        kappa=st.floats(min_value=0.01, max_value=100.0),
        scale=st.floats(min_value=0.01, max_value=100.0),
    )
    def test_epsilon_scales_as_kappa_squared(self, kappa, scale):
        base = PhysicalParams(kappa=kappa).epsilon()
        scaled = PhysicalParams(kappa=scale * kappa).epsilon()
        assert scaled == pytest.approx(scale**2 * base, rel=1e-12)


class TestHyperDimension:
    @pytest.mark.parametrize("d,expected", [(1, 0), (2, -1), (3, 0), (4, 3), (30, 783)])
    def test_strength(self, d, expected):
        assert strength(HyperDimension(d)) == expected

    def test_strength_approaches_nine_n_squared(self):
        # (3N-1)(3N-3) vs 9N^2: 87% at N=10, above 95% from D=120 on
        assert HyperDimension(30).strength() / (9 * 10**2) == pytest.approx(783 / 900)
        for d in range(120, 601, 3):
            n = d // 3
            assert HyperDimension(d).strength() / (9 * n**2) > 0.95

    def test_strength_ratio_increases(self):
        ratios = [
            HyperDimension(d).strength() / (9 * (d // 3) ** 2) for d in range(120, 1201, 30)
        ]
        assert ratios == sorted(ratios)

    def test_particles(self):
        assert HyperDimension(30).particles() == 10
        assert HyperDimension(3).particles() == 1

    @pytest.mark.parametrize("d", [1, 2, 7, 100])
    def test_particles_requires_multiple_of_three(self, d):
        with pytest.raises(DomainError):
            HyperDimension(d).particles()

    @pytest.mark.parametrize("d", [0, -3, 2.5, "6"])
    def test_rejects_bad_dimension(self, d):
        with pytest.raises(DomainError):
            HyperDimension(d)

    @pytest.mark.parametrize("d", [True, False])
    def test_rejects_bool(self, d):
        with pytest.raises(DomainError):
            HyperDimension(d)

    def test_accepts_numpy_integer(self):
        dim = HyperDimension(np.int64(30))
        assert dim.d == 30 and type(dim.d) is int


class TestTolerance:
    def test_defaults(self):
        tol = Tolerance()
        assert tol.rel == 1e-10 and tol.abs == 1e-12

    @pytest.mark.parametrize("kwargs", [{"rel": 0.0}, {"abs": -1e-3}, {"max_subdivisions": 0}])
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            Tolerance(**kwargs)


def _propagate(**kwargs):
    state = make_state("u0", 6)
    grid = RadialGrid.for_state(state, 512)
    run = {"dt": 0.01, "n_steps": 3, "record_every": 1, "progress_every": 1, **kwargs}
    return propagate_free(state, grid, run.pop("dt"), run.pop("n_steps"),
                          progress=lambda step, n_steps: True, **run)


# id: (parameter named in the message, call taking the value, minimum, a valid value)
COUNTS = {
    "HyperDimension": ("dimension", HyperDimension, 1, 6),
    "Tolerance": ("max_subdivisions", lambda v: Tolerance(max_subdivisions=v), 1, 3),
    "RadialGrid": ("n_points", lambda v: RadialGrid(v, 0.012), 512, 1024),
    "propagate_free-n_steps": ("n_steps", lambda v: _propagate(n_steps=v), 1, 3),
    "propagate_free-record_every": ("record_every", lambda v: _propagate(record_every=v), 1, 2),
    "propagate_free-progress_every": ("progress_every", lambda v: _propagate(progress_every=v), 1, 2),
    "fermion_trap_energy": ("particle count", lambda v: fermion_trap_energy(v, PhysicalParams()), 1, 3),
    "fermion_scaling_table":
        ("N", lambda v: fermion_scaling_table([v, *range(10, 19)], PhysicalParams()), 1, 3),
    "fermion_scaling_table-jobs":
        ("jobs", lambda v: fermion_scaling_table(range(1, 20), PhysicalParams(), jobs=v), 1, 2),
    "energy_scaling_table-jobs":
        ("jobs", lambda v: energy_scaling_table(StateFamily.U2, range(2, 20), PhysicalParams(), jobs=v), 1, 2),
    "slope_scaling_table-jobs":
        ("jobs", lambda v: slope_scaling_table(StateFamily.U2, range(2, 20), PhysicalParams(), jobs=v), 1, 2),
    "bessel_k": ("Bessel order", lambda v: bessel_k(v, 1.0), 0, 1),
    "bessel_k_integral": ("Bessel order", lambda v: bessel_k_integral(v, 1.0), 0, 1),
}
# id: (parameter named in the message, call taking the value, a valid value)
NUMBERS = {
    "Tolerance-rel": ("rel", lambda v: Tolerance(rel=v), 1e-6),
    "Tolerance-abs": ("abs", lambda v: Tolerance(abs=v), 1e-6),
    "RadialState.support": ("drop_decades", make_state("u1", 9).support, 16.0),
    "RadialGrid": ("spacing", lambda v: RadialGrid(1024, v), 0.012),
    "propagate_free": ("dt", lambda v: _propagate(dt=v), 0.01),
    "bessel_k": ("Bessel argument", lambda v: bessel_k(1, v), 2.0),
    "bessel_k_ratio": ("Bessel argument", bessel_k_ratio, 2.0),
    "bessel_k_integral": ("Bessel argument", lambda v: bessel_k_integral(1, v), 2.0),
    "gamma": ("Gamma argument", gamma, 2.0),
    "log_gamma": ("Gamma argument", log_gamma, 2.0),
}


class TestInputContract:
    """Every scalar parameter is a count or a positive number, checked in core."""

    @pytest.mark.parametrize("name, call, minimum, good", COUNTS.values(), ids=COUNTS)
    def test_count(self, name, call, minimum, good):
        for bad in (2.5, float(good), True, minimum - 1, math.nan, math.inf, "3"):
            with pytest.raises(DomainError, match=f"{re.escape(name)} must be an integer >= {minimum}"):
                call(bad)
                pytest.fail(f"{name} accepted {bad!r}")
        for value in (good, np.int64(good)):
            call(value)

    @pytest.mark.parametrize("name, call, good", NUMBERS.values(), ids=NUMBERS)
    def test_positive_number(self, name, call, good):
        for bad in (True, 0, 0.0, -good, math.nan, math.inf, -math.inf, "1"):
            with pytest.raises(DomainError, match=f"{re.escape(name)} must be positive and finite"):
                call(bad)
                pytest.fail(f"{name} accepted {bad!r}")
        for value in (1, good, np.float64(good)):
            call(value)

    def test_a_divergent_integral_is_input_outside_the_domain(self):
        # a moment that does not exist is answered like any other input outside the domain
        assert isinstance(DivergentIntegralError("x"), DomainError)
