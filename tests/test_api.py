import inspect

import pytest

from hyperradial import (
    RadialState,
    bessel_k_integral,
    energy_report,
    integrate_radial,
    propagate_free,
    raman_nath_slope,
    t_r_quadrature,
    t_v_quadrature,
    u2_eigenstate_residual,
)

# Parameter names of the quadrature- and propagation-backed entry points.
# The quadrature tolerance, the propagation abort limits and the eigenstate
# stencil step are fixed constants, not per-call options.
SIGNATURES = {
    integrate_radial: ["f", "r_lo", "r_hi"],
    RadialState.expectation: ["self", "weight"],
    RadialState.normalization_integral: ["self"],
    t_r_quadrature: ["state"],
    t_v_quadrature: ["state"],
    energy_report: ["state", "method"],
    raman_nath_slope: ["state"],
    bessel_k_integral: ["n", "zeta"],
    propagate_free: ["state", "grid", "dt", "n_steps", "record_every", "progress", "progress_every"],
    u2_eigenstate_residual: ["params", "r"],
}


@pytest.mark.parametrize("function", SIGNATURES, ids=lambda f: f.__qualname__)
def test_each_function_keeps_its_parameters(function):
    assert list(inspect.signature(function).parameters) == SIGNATURES[function]
