"""Kinetic-energy functionals of the radial states.

The kinetic energy of an s-state splits as T = T_r + T_V:

    T_r = int u* (-hbar^2/2M) u'' dr          (para-radial part, <p_r^2>/2M)
    T_V = int V_Q(r) |u(r)|^2 dr              (centrifugal part)

with the quantum centrifugal potential

    V_Q(r) = (hbar^2 / 2M) (D-1)(D-3) / (4 r^2),

repulsive for D >= 4, zero at D in {1, 3} and attractive at D = 2.  Each
energy is available both in closed form and by adaptive quadrature with
the analytic second derivative of the profile; the two routes are kept
independent so that one can certify the other.  All energies are returned
in units of epsilon = (hbar kappa)^2 / 2M.

The trap states u0 and u1 are one profile r^a exp(-kappa^2 r^2 / 2), with
a = (D-1)/2 and (D+3)/2 (states._trap_power).  With m = 2a - 1 (D - 2 for
u0, D + 2 for u1) the moment <(kappa r)^-2> is 2/m, so

    T_r = 1 + 1/(2m),    T_V = s/(2m),    s = (D-1)(D-3),

at every D but u0 at D = 2, where <r^-2> does not exist (_check_inverse_moment);
at D = 1 (m = -1) T_r = 1/2 and T_V = 0.  Since 2/m falls like 2/D, T_V of a
trap state grows linearly in N; for u2 the moment 1/(beta kappa) does not
depend on D and T_V = s/(4 beta kappa) grows as N^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .core import DivergentIntegralError, DomainError, HyperDimension, PhysicalParams
from .specialfn import bessel_k_ratio
from .states import ArrayLike, RadialState, StateFamily, _as_positive_radius, _scalar_like, _trap_power

if TYPE_CHECKING:
    import numpy as np

CLOSED_FORM = "closed_form"
QUADRATURE = "quadrature"


def v_q(dim: HyperDimension, params: PhysicalParams, r: ArrayLike) -> ArrayLike:
    """Quantum centrifugal potential V_Q(r) = eps s/(4 x^2), x = kappa r, in absolute units."""
    return _scalar_like(r, params.epsilon() * _v_q(dim, params.kappa * _as_positive_radius(r)))


def _v_q(dim: HyperDimension, x: np.ndarray) -> np.ndarray:
    # V_Q in units of epsilon, written in x = kappa r
    return dim.strength() / (4.0 * x**2)


def _check_inverse_moment(family: StateFamily, dim: HyperDimension, power: int) -> None:
    # <r^-power> for power 2 (energies) or 3 (centrifugal force): u0 has
    # |u|^2/r^power ~ r^(D-1-power) near the origin, and where that is not
    # integrable the weight vanishes (D in {1, 3}) except at D=2; u1 and u2
    # vanish fast enough for every D
    if family is StateFamily.U0 and dim.d == 2:
        raise DivergentIntegralError(
            f"<r^-{power}> does not exist for u0 at D=2 (|u|^2/r^{power} ~ r^{1 - power} "
            "near the origin); the integral diverges rather than evaluates"
        )


def _trap_order(family: StateFamily, dim: HyperDimension) -> float:
    # m = 2a - 1 of the trap profile r^a exp(-kappa^2 r^2 / 2), so <(kappa r)^-2> = 2/m
    _check_inverse_moment(family, dim, 2)
    return 2.0 * _trap_power(family, dim) - 1.0


def t_r_closed(family: StateFamily, dim: HyperDimension, params: PhysicalParams) -> float:
    """Closed-form para-radial energy T_r in units of epsilon."""
    if family is StateFamily.U2:
        bk = params.beta_kappa
        zeta = 2.0 * math.sqrt(bk)
        return bessel_k_ratio(zeta) / (2.0 * math.sqrt(bk))
    return 1.0 + 0.5 / _trap_order(family, dim)


def t_v_closed(family: StateFamily, dim: HyperDimension, params: PhysicalParams) -> float:
    """Closed-form centrifugal energy T_V in units of epsilon."""
    if family is StateFamily.U2:
        return dim.strength() / (4.0 * params.beta_kappa)
    # + 0.0 makes the 0 / (2m) of u0 at D = 1 (m = -1) read 0.0, not -0.0
    return dim.strength() / (2.0 * _trap_order(family, dim)) + 0.0


def t_r_quadrature(state: RadialState) -> float:
    """T_r by adaptive quadrature of -u u'' (analytic u''), in units of epsilon.

    The weight is -u''/u in units of kappa^2, -c(x) in x = kappa r, in every unit system.
    """
    _check_inverse_moment(state.family, state.dim, 2)
    return state._expectation_in_x(lambda x: -state._curvature(x)).value


def t_v_quadrature(state: RadialState) -> float:
    """T_V by adaptive quadrature of V_Q |u|^2, in units of epsilon.

    The weight is V_Q / eps = s/(4 x^2) in x = kappa r.  Exactly zero (no
    quadrature) when the strength s = (D-1)(D-3) vanishes.
    """
    if state.dim.strength() == 0:
        return 0.0
    _check_inverse_moment(state.family, state.dim, 2)
    return state._expectation_in_x(lambda x: _v_q(state.dim, x)).value


@dataclass(frozen=True)
class EnergyReport:
    """T_r, T_V and their sum for one state, in units of epsilon.

    `total` is constructed as t_r + t_v, never computed separately, so the
    decomposition identity holds exactly by construction.
    """

    t_r: float
    t_v: float
    method: str
    family: StateFamily
    dim: HyperDimension
    epsilon: float
    total: float = field(init=False)

    def __post_init__(self) -> None:
        if self.method not in (CLOSED_FORM, QUADRATURE):
            raise DomainError(f"unknown energy method {self.method!r}")
        object.__setattr__(self, "total", self.t_r + self.t_v)


def energy_report(state: RadialState, method: str = CLOSED_FORM) -> EnergyReport:
    """Assemble the kinetic-energy report for a state with the chosen method."""
    if method == CLOSED_FORM:
        t_r = t_r_closed(state.family, state.dim, state.params)
        t_v = t_v_closed(state.family, state.dim, state.params)
    elif method == QUADRATURE:
        t_r = t_r_quadrature(state)
        t_v = t_v_quadrature(state)
    else:
        raise DomainError(f"unknown energy method {method!r}")
    return EnergyReport(
        t_r=t_r,
        t_v=t_v,
        method=method,
        family=state.family,
        dim=state.dim,
        epsilon=state.params.epsilon(),
    )
