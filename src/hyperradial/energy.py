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

and u0 at D <= 2 (m <= 0) has no closed form.  Since 2/m falls like 2/D,
T_V of a trap state grows linearly in N; for u2 the moment 1/(beta kappa)
does not depend on D and T_V = s/(4 beta kappa) grows as N^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING

from .core import DivergentIntegralError, DomainError, HyperDimension, PhysicalParams
from .specialfn import bessel_k_ratio
from .states import ArrayLike, RadialState, StateFamily, _as_positive_radius, _scalar_like, _trap_power

if TYPE_CHECKING:
    import numpy as np

CLOSED_FORM = "closed_form"
QUADRATURE = "quadrature"


def v_q(dim: HyperDimension, params: PhysicalParams, r: ArrayLike) -> ArrayLike:
    """Quantum centrifugal potential V_Q(r) in absolute energy units."""
    arr = _as_positive_radius(r)
    prefactor = params.hbar**2 / (2.0 * params.mass)
    out = prefactor * dim.strength() / (4.0 * arr**2)
    return _scalar_like(r, out)


def _trap_order(family: StateFamily, dim: HyperDimension) -> float:
    # m = 2a - 1 of the trap profile r^a exp(-kappa^2 r^2 / 2), so <(kappa r)^-2> = 2/m
    m = 2.0 * _trap_power(family, dim) - 1.0
    if m <= 0:
        raise DomainError(
            f"u0 closed forms contain a 1/(D-2) singularity; D={dim.d} is rejected "
            "(the D=2 integrals diverge, <r^-2> does not exist)"
        )
    return m


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
    return dim.strength() / (2.0 * _trap_order(family, dim))


def _check_inverse_moment(state: RadialState, power: int) -> None:
    # <r^-power> for power 2 (energies) or 3 (centrifugal force): u0 has
    # |u|^2/r^power ~ r^(D-1-power) near the origin, and where that is not
    # integrable the weight vanishes (D in {1, 3}) except at D=2; u1 and u2
    # vanish fast enough for every D
    if state.family is StateFamily.U0 and state.dim.d == 2:
        raise DivergentIntegralError(
            f"<r^-{power}> does not exist for u0 at D=2 (|u|^2/r^{power} ~ r^{1 - power} "
            "near the origin); the integral diverges rather than evaluates"
        )


def t_r_quadrature(state: RadialState) -> float:
    """T_r by adaptive quadrature of -u u'' (analytic u''), in units of epsilon."""
    _check_inverse_moment(state, 2)
    prefactor = state.params.hbar**2 / (2.0 * state.params.mass)

    def weight(r: np.ndarray) -> np.ndarray:
        return -prefactor * state.u_second_over_u(r)

    return state.expectation(weight).value / state.params.epsilon()


def t_v_quadrature(state: RadialState) -> float:
    """T_V by adaptive quadrature of V_Q |u|^2, in units of epsilon.

    Exactly zero (no quadrature) when the strength (D-1)(D-3) vanishes.
    """
    if state.dim.strength() == 0:
        return 0.0
    _check_inverse_moment(state, 2)
    t_v = state.expectation(partial(v_q, state.dim, state.params)).value
    return t_v / state.params.epsilon()


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
