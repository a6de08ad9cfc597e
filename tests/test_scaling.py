import io
import json
import math

import numpy as np
import pytest

from hyperradial import (
    DomainError,
    HyperDimension,
    PhysicalParams,
    ScalingRow,
    ScalingTable,
    StateFamily,
    energy_scaling_table,
    fermion_scaling_table,
    fermion_trap_energy,
    fit_power_law,
    slope_scaling_table,
    t_r_closed,
    t_v_closed,
)
from hyperradial.cli import RECIPES, _parse_n_range, build_parser

U0, U1, U2 = StateFamily.U0, StateFamily.U1, StateFamily.U2


class TestFermionLadder:
    def test_single_particle(self, params):
        energy = fermion_trap_energy(1, params)
        assert energy.closed == 0.5  # hbar*Omega/2

    def test_four_particles(self, params):
        assert fermion_trap_energy(4, params).closed == 8.0

    def test_value_is_the_closed_form(self, params):
        energy = fermion_trap_energy(7, PhysicalParams(omega=3.0))
        assert energy.value == energy.closed == 73.5

    def test_summed_equals_closed_exactly(self, params):
        for n in range(1, 1001):
            energy = fermion_trap_energy(n, params)
            assert energy.summed == energy.closed

    def test_omega_scaling(self):
        energy = fermion_trap_energy(3, PhysicalParams(omega=2.0))
        assert energy.closed == 9.0

    @pytest.mark.parametrize("n", [0, -1, 2.5])
    def test_validation(self, n, params):
        with pytest.raises(DomainError):
            fermion_trap_energy(n, params)


class TestFitPowerLaw:
    def test_recovers_exact_exponent(self):
        n = np.arange(5, 60)
        exponent, err = fit_power_law(n, 3.7 * n**2.5)
        assert exponent == pytest.approx(2.5, abs=1e-12)
        assert err == pytest.approx(0.0, abs=1e-12)

    def test_rejects_nonpositive_values(self):
        with pytest.raises(DomainError):
            fit_power_law([1, 2, 3], [1.0, -2.0, 3.0])

    def test_needs_three_rows(self):
        with pytest.raises(DomainError):
            fit_power_law([1, 2], [1.0, 2.0])

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_non_finite_values(self, bad):
        with pytest.raises(DomainError):
            fit_power_law([1, 2, 3], [1.0, bad, 3.0])

    def test_constant_column_fits_exactly(self, params):
        table = energy_scaling_table(U2, range(2, 101), params, component="t_r")
        assert (table.fit_exponent, table.fit_error) == (0.0, 0.0)

    def test_rejects_equal_n_values(self, params):
        with pytest.raises(DomainError, match="distinct N"):
            energy_scaling_table(U0, [5] * 10, params)

    @pytest.mark.parametrize("values", [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0, 5.0]])
    def test_rejects_unequal_lengths(self, values):
        with pytest.raises(DomainError, match="one value per N"):
            fit_power_law([1, 2, 3, 4], values)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_rejects_non_positive_n(self, bad):
        with pytest.raises(DomainError):
            fit_power_law([bad, 2, 3], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("recipe", ["tv-quadratic", "sqrt-slope", "n2-slope", "fermion-ladder"])
    def test_matches_numpy_polyfit_on_recipe_tables(self, recipe):
        args = build_parser().parse_args(RECIPES[recipe][1])
        n_values = _parse_n_range(args.N)
        if args.quantity == "fermion":
            table = fermion_scaling_table(n_values, PhysicalParams())
        elif args.quantity == "slope":
            table = slope_scaling_table(StateFamily(args.family), n_values, PhysicalParams())
        else:
            table = energy_scaling_table(StateFamily(args.family), n_values, PhysicalParams(),
                                         component=args.component)
        x, y = np.log(table.n_values.astype(float)), np.log(table.values)
        (slope, _), cov = np.polyfit(x, y, 1, cov=True)  # covariance scaled by SSE / (n - 2)
        exponent, err = fit_power_law(table.n_values, table.values)
        assert exponent == pytest.approx(slope, rel=1e-13, abs=0.0)
        # the fermion ladder is an exact power law: both errors are round-off, below 1e-15
        assert err == pytest.approx(math.sqrt(cov[0, 0]), rel=1e-9, abs=1e-15)


class TestEnergyScaling:
    def test_u0_exactly_linear(self, params):
        table = energy_scaling_table(U0, range(10, 101), params)
        assert table.fit_exponent == pytest.approx(1.0, abs=1e-13)
        assert table.fit_error == pytest.approx(0.0, abs=1e-12)

    def test_u1_slightly_above_linear(self, params):
        # T = (D/2 - 2 + 8/(D+2)) eps: the constant offset -2 pushes every
        # finite-range log-log fit above 1; over N in [10, 100] the OLS slope
        # is 1.0387
        table = energy_scaling_table(U1, range(10, 101), params)
        assert table.fit_exponent == pytest.approx(1.0387352, abs=2e-4)
        assert 1.0 < table.fit_exponent < 1.05

    def test_u2_total_quadratic(self, params):
        table = energy_scaling_table(U2, range(10, 101), params)
        assert table.fit_exponent == pytest.approx(2.0413542, abs=2e-4)
        assert abs(table.fit_exponent - 2.0) <= 0.05

    def test_u2_centrifugal_component_quadratic(self, params):
        table = energy_scaling_table(U2, range(10, 101), params, component="t_v")
        assert table.fit_exponent == pytest.approx(2.0424646, abs=2e-4)
        assert abs(table.fit_exponent - 2.0) <= 0.05

    def test_u2_doubling_ratio(self, params):
        # T_V(2N)/T_V(N) -> 4; already >= 3.9 at N = 50
        t_v = lambda n: (3 * n - 1) * (3 * n - 3) / 4.0
        assert t_v(100) / t_v(50) == pytest.approx(4.0543761, abs=1e-6)
        assert t_v(100) / t_v(50) >= 3.9

    def test_component_validation(self, params):
        with pytest.raises(DomainError):
            energy_scaling_table(U0, range(10, 21), params, component="t_x")

    def test_minimum_n(self, params):
        with pytest.raises(DomainError):
            energy_scaling_table(U0, [1] + list(range(10, 20)), params)

    @pytest.mark.parametrize("component, closed, unused", [
        ("t_v", t_v_closed, "t_r_closed"),
        ("t_r", t_r_closed, "t_v_closed"),
    ])
    def test_component_evaluates_only_its_closed_form(self, component, closed, unused, params,
                                                      monkeypatch):
        # u2's T_r is a K2/K1 ratio per row, which a t_v table has no use for
        from hyperradial import scaling

        def unused_closed_form(*args):
            raise AssertionError(f"the {component} table evaluated {unused}")

        monkeypatch.setattr(scaling, unused, unused_closed_form)
        table = energy_scaling_table(U2, range(2, 12), params, component=component)
        assert [row.value for row in table.rows] == [
            closed(U2, HyperDimension(3 * n), params) for n in range(2, 12)
        ]


class TestSlopeScaling:
    def test_u0_square_root(self, params):
        table = slope_scaling_table(U0, range(20, 201), params)
        assert table.fit_exponent == pytest.approx(0.5012690, abs=1e-4)
        assert abs(table.fit_exponent - 0.5) <= 0.03

    def test_u1_square_root(self, params):
        table = slope_scaling_table(U1, range(20, 201), params)
        assert table.fit_exponent == pytest.approx(0.5319377, abs=1e-4)
        assert abs(table.fit_exponent - 0.5) <= 0.05

    def test_u2_quadratic(self, params):
        # the strength factor (3N-1)(3N-3) bends every finite-range fit
        # slightly above 2; the exact OLS value over [20, 200] is 2.02065
        table = slope_scaling_table(U2, range(20, 201), params)
        assert table.fit_exponent == pytest.approx(2.0206486, abs=1e-4)
        assert 2.0 < table.fit_exponent < 2.05

    def test_carries_both_n_and_d(self, params):
        table = slope_scaling_table(U0, range(20, 31), params)
        for row in table.rows:
            assert row.d == 3 * row.n


class TestFermionComparison:
    def test_matched_shape_reproduces_fermion_energy_at_n10(self):
        # beta*kappa chosen so T_V of the dimension-free profile equals the
        # fermion ladder at N=10: both then grow quadratically
        bk = 783.0 * 0.5 / (4.0 * 50.0)
        params = PhysicalParams(beta=bk)
        table = energy_scaling_table(U2, range(10, 101), params, component="t_v")
        t_v_abs = table.rows[0].value * params.epsilon()
        assert t_v_abs == pytest.approx(fermion_trap_energy(10, params).closed, rel=1e-12)

    def test_exponent_gap(self):
        # fermion ladder is an exact power law (exponent 2); the profile's
        # T_V carries -12N+3 corrections, leaving a 0.042 gap over [10, 100]
        bk = 783.0 * 0.5 / (4.0 * 50.0)
        params = PhysicalParams(beta=bk)
        fermions = fermion_scaling_table(range(10, 101), params)
        profile = energy_scaling_table(U2, range(10, 101), params, component="t_v")
        assert fermions.fit_exponent == pytest.approx(2.0, abs=1e-13)
        gap = abs(fermions.fit_exponent - profile.fit_exponent)
        assert gap == pytest.approx(0.0424646, abs=2e-4)
        assert gap <= 0.05
        assert 1.95 <= profile.fit_exponent <= 2.05


class TestFermionScalingTable:
    def test_exact_square(self, params):
        table = fermion_scaling_table(range(1, 101), params)
        assert table.fit_exponent == pytest.approx(2.0, abs=1e-13)

    def test_bool_is_not_a_particle_count(self, params):
        # fermion_trap_energy(True, ...) is a DomainError; the table must agree
        with pytest.raises(DomainError):
            fermion_scaling_table([True, *range(2, 12)], params)

    def test_numpy_integers_are_particle_counts(self, params):
        table = fermion_scaling_table(np.arange(1, 12), params)
        assert [row.n for row in table.rows] == list(range(1, 12))
        assert all(type(row.n) is int for row in table.rows)

    def test_rows_skip_the_summed_ladder(self, params, monkeypatch):
        # the ladder is an fsum of N terms per row, which made a table of N rows O(N^2)
        fsum, terms = math.fsum, []

        def counting_fsum(iterable):
            items = list(iterable)
            terms.append(len(items))
            return fsum(items)

        monkeypatch.setattr(math, "fsum", counting_fsum)
        table = fermion_scaling_table(range(1, 1001), params)
        assert [row.value for row in table.rows] == [0.5 * n * n for n in range(1, 1001)]
        assert sum(terms) <= 5 * len(table.rows)  # the power-law fit's five sums over the rows

    def test_jobs_parallel_matches_serial(self, params):
        serial = fermion_scaling_table(range(1, 41), params, jobs=1)
        parallel = fermion_scaling_table(range(1, 41), params, jobs=2)
        assert [r.value for r in serial.rows] == [r.value for r in parallel.rows]


class TestScalingTable:
    def test_rejects_mismatched_dimension(self):
        with pytest.raises(DomainError):
            ScalingTable(
                rows=(ScalingRow(n=5, d=16, value=1.0, units="epsilon"),),
                fit_exponent=1.0,
                fit_error=0.0,
                quantity="energy",
            )

    def test_requires_ten_rows(self, params):
        with pytest.raises(DomainError, match="10 rows"):
            energy_scaling_table(U0, range(10, 15), params)

    def test_csv_format(self, params):
        table = fermion_scaling_table(range(1, 12), params)
        buffer = io.StringIO()
        table.to_csv(buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == "N,D,value,units"
        assert lines[1] == "1,3,0.5,hbar*omega"
        assert len(lines) == 12

    def test_json_round_trip(self, params):
        table = slope_scaling_table(U2, range(10, 21), params)
        buffer = io.StringIO()
        table.to_json(buffer)
        payload = json.loads(buffer.getvalue())
        assert payload["family"] == "u2"
        assert payload["quantity"] == "slope"
        assert len(payload["rows"]) == 11
        assert payload["fit_exponent"] == table.fit_exponent

    def test_deterministic_output(self, params):
        streams = []
        for _ in range(2):
            buffer = io.StringIO()
            energy_scaling_table(U2, range(10, 41), params).to_csv(buffer)
            streams.append(buffer.getvalue())
        assert streams[0] == streams[1]
