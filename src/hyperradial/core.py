"""Shared parameter types, unit conventions and the numerical tolerance policy.

Natural units hbar = M = kappa = 1 are the defaults throughout.  Energies
are reported in units of the kinetic scale epsilon = (hbar*kappa)^2/(2M)
and momenta in units of hbar*kappa.  The length beta enters every formula
only through the dimensionless product beta*kappa.

Input contract: every count (dimension, particle number, grid size, step
count or stride, subdivisions, Bessel order) passes `_require_integer` and
every positive parameter `_require_positive`, so a value outside its domain
raises DomainError naming it and is never quietly replaced.  A count is a
numbers.Integral, numpy integers included (2.5 and 1024.0 are not); a
positive number is a finite Python int or float above 0, np.float64
included.  A bool is neither.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from numbers import Integral


class HyperradialError(Exception):
    """Base class for every error raised by this package."""


class DomainError(HyperradialError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DivergentIntegralError(DomainError):
    """The requested integral does not exist (<r^-2> or <r^-3> of u0 at D=2): the
    input lies outside the domain, and the command line exits 2."""


class PreconditionError(HyperradialError, ValueError):
    """A documented precondition of an operation is not met."""


class NumericalError(HyperradialError, RuntimeError):
    """A numerical procedure failed to produce a trustworthy result."""


class QuadratureError(NumericalError):
    """Adaptive quadrature did not converge to the requested tolerance."""


class PropagationError(NumericalError):
    """Time propagation aborted on norm drift or boundary reflection."""


class PropagationAborted(HyperradialError):
    """Propagation stopped early by the caller's progress hook."""


def _require_positive(name: str, value) -> None:
    ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not ok or not 0 < value < math.inf:  # also rejects NaN
        raise DomainError(f"{name} must be positive and finite, got {value!r}")


def _beta(beta_kappa: float, kappa: float, names: tuple[str, str]) -> float:
    """beta = beta_kappa / kappa; where the ratio over- or underflows, the error names both inputs."""
    beta = beta_kappa / kappa
    if not 0 < beta < math.inf:
        raise DomainError(f"beta = {names[0]} / {names[1]} must be positive and finite, "
                          f"got {beta_kappa!r} / {kappa!r} = {beta!r}")
    return beta


def _require_integer(name: str, value, minimum: int) -> int:
    """value as an int, if it is an Integral (never bool) of at least minimum."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < minimum:
        raise DomainError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class PhysicalParams:
    """Physical constants of the problem, all strictly positive.

    omega is used only by the trapped-fermion comparison.
    """

    hbar: float = 1.0
    mass: float = 1.0
    kappa: float = 1.0
    beta: float = 1.0
    omega: float = 1.0

    def __post_init__(self) -> None:
        for name in ("hbar", "mass", "kappa", "beta", "omega"):
            _require_positive(name, getattr(self, name))

    def epsilon(self) -> float:
        """Kinetic energy scale (hbar*kappa)^2 / (2M); OverflowError outside the normal doubles."""
        try:
            eps = (self.hbar * self.kappa) ** 2 / (2.0 * self.mass)
        except OverflowError:
            eps = math.inf
        if not sys.float_info.min <= eps < math.inf:
            raise OverflowError(f"epsilon = (hbar*kappa)^2/(2M) {'over' if eps > 1 else 'under'}flows "
                                f"at kappa={self.kappa:g} (hbar={self.hbar:g}, mass={self.mass:g})")
        return eps

    @property
    def beta_kappa(self) -> float:
        """Dimensionless shape parameter of the u2 family."""
        return self.beta * self.kappa


@dataclass(frozen=True)
class HyperDimension:
    """Integer dimension D >= 1 of configuration space; D = 3N for N particles."""

    d: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "d", _require_integer("dimension", self.d, 1))

    def strength(self) -> int:
        """Strength (D-1)(D-3) of the quantum centrifugal potential.

        Zero at D in {1, 3}, -1 at D = 2, positive for D >= 4.
        """
        return (self.d - 1) * (self.d - 3)

    def particles(self) -> int:
        """Particle count N = D/3; defined only when D is a multiple of 3."""
        if self.d % 3 != 0:
            raise DomainError(f"D={self.d} is not a multiple of 3; particle count undefined")
        return self.d // 3


@dataclass(frozen=True)
class Tolerance:
    """Tolerance policy of the quadrature rule.

    Every quadrature-backed operation uses DEFAULT_TOLERANCE (rel 1e-10, abs
    1e-12); only `integrate` and the Bessel defining-integral reference take
    another.  The propagator's abort limits are fixed likewise: norm drift
    1e-4, reflection 1e-8 of peak (dynamics.NORM_DRIFT_LIMIT, REFLECTION_LIMIT).
    """

    rel: float = 1e-10
    abs: float = 1e-12
    max_subdivisions: int = 12

    def __post_init__(self) -> None:
        _require_positive("rel", self.rel)
        _require_positive("abs", self.abs)
        _require_integer("max_subdivisions", self.max_subdivisions, 1)


DEFAULT_TOLERANCE = Tolerance()


def epsilon(params: PhysicalParams) -> float:
    """Kinetic energy scale (hbar*kappa)^2/(2M) of the given parameters."""
    return params.epsilon()


def strength(dim: HyperDimension) -> int:
    """Centrifugal strength (D-1)(D-3) of the given dimension."""
    return dim.strength()
