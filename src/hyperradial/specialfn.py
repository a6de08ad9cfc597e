"""Gamma and modified-Bessel machinery for normalizations, energies and slopes.

Gamma and its logarithm come from the C implementations in ``math``.  The
production Bessel path is one trapezoid rule on the scaled integral

    e^x K_n(x) = int_0^inf exp(-2x sinh^2(t/2)) cosh(n t) dt,

whose integrand is entire and decays double-exponentially, so equal steps
converge geometrically (Trefethen & Weideman, SIAM Review 56, 385 (2014)).
Its ten to a few hundred terms are a plain loop over ``math`` summed
with ``math.fsum``, so every closed form that takes a Bessel K runs without
numpy.  The defining integral

    K_n(z) = 1/2 * int_0^inf r^n exp(-(z/2)(r + 1/r)) dr / r

is kept available through :func:`bessel_k_integral` as a separate
cross-check: a tanh-sinh quadrature of the unscaled form exp(-z cosh t)
cosh(n t), sharing neither the rule nor the integrand with the production
path; it is the one function here that imports numpy, when it is called.
The two must agree to 1e-9 relative over z in [0.1, 50] and n in {0, 1, 2}.
"""

from __future__ import annotations

import math

from .core import DomainError, PreconditionError, Tolerance, _require_integer, _require_positive
from .quadrature import integrate

# Tolerance of the defining-integral reference, tighter than DEFAULT_TOLERANCE:
# the absolute floor binds only where K_n(z) itself is below 1e-300 (z > ~690)
REFERENCE_TOLERANCE = Tolerance(rel=1e-13, abs=1e-300)
# B_2k / (2k (2k - 1)) for k = 1..4: the terms of the Stirling series of ln Gamma
_STIRLING_COEFFICIENTS = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0)

__all__ = [
    "gamma",
    "log_gamma",
    "gamma_ratio",
    "gamma_ratio_asymptotic",
    "bessel_k",
    "bessel_k_ratio",
    "bessel_k_integral",
]


def gamma(x: float) -> float:
    """Gamma function for strictly positive real argument."""
    if not (x > 0):
        raise DomainError(f"gamma requires x > 0, got {x!r}")
    return math.gamma(x)


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0; safe for arguments of several thousand."""
    if not (x > 0):
        raise DomainError(f"log_gamma requires x > 0, got {x!r}")
    return math.lgamma(x)


def gamma_ratio(x: float, y: float) -> float:
    """Ratio Gamma(x)/Gamma(y), formed in log space to dodge overflow.

    The log-space difference keeps only the absolute precision of lgamma
    values near x ln x, so the half step y = x + 1/2 of the trap-state
    slopes is formed without it: by math.gamma below x = 100, and above by
    the Stirling series of the difference (DLMF 5.11.1),

        ln Gamma(x) - ln Gamma(x + 1/2) = 1/2 - ln(x)/2 - x log1p(1/(2x))
                                          + sum_k c_k (x^(1-2k) - (x + 1/2)^(1-2k)),

    whose first omitted term is below 1e-20 at x >= 100.  Both stay
    within 3 ulp of the exact ratio.
    """
    if y == x + 0.5 and x > 0:
        if x < 100.0:
            return math.gamma(x) / math.gamma(y)
        series = math.fsum(c * (x ** (1 - 2 * k) - y ** (1 - 2 * k))
                           for k, c in enumerate(_STIRLING_COEFFICIENTS, start=1))
        return math.exp(0.5 - x * math.log1p(0.5 / x) + series) / math.sqrt(x)
    return math.exp(log_gamma(x) - log_gamma(y))


def gamma_ratio_asymptotic(a: float, z: float, b1: float, b2: float) -> float:
    """Large-argument estimate of Gamma(a*z + b1) / Gamma(a*z + b2).

    Uses Gamma(a*z + b) ~ sqrt(2*pi) e^{-a*z} (a*z)^{a*z + b - 1/2}; the
    common factors cancel in the ratio, leaving (a*z)^(b1 - b2).  Only
    meaningful for a*z >= 5.
    """
    az = a * z
    if not (az >= 5.0):
        raise PreconditionError(f"asymptotic gamma ratio needs a*z >= 5, got a*z = {az!r}")
    return az ** (b1 - b2)


def _scaled_bessel_k(n: int, x: float) -> float:
    """e^x K_n(x) for x > 0 by the trapezoid rule on its scaled integral.

    The integrand is exp(g(t)) (1 + e^{-2nt}) / 2 with g(t) = n t - 2x sinh^2(t/2);
    the sinh^2 form keeps g free of the cancellation in cosh t - 1 at large x.
    The step h = min(1/8, 1/(2 sqrt(x))) leaves a discretisation error near
    e^{-79}, and the range is cut where g < -42.
    """
    h = min(0.125, 0.5 / math.sqrt(x))
    # g is concave with g(0) = 0, so g >= -42 on a prefix [0, t_c].  sinh(u) >= u
    # bounds t_c by the root of n t - x t^2 / 2 = -42, and the increasing map
    # t -> 2 asinh(sqrt((42 + n t) / 2x)), whose fixed point is t_c, takes any
    # upper bound on t_c to a tighter one.
    try:
        t_c = n / x + math.sqrt((n / x) ** 2 + 84.0 / x)
    except OverflowError:
        raise OverflowError(f"the cut-off of the Bessel K_{n} sum overflows at argument {x:.3g} "
                            "(u2 takes 2 sqrt(beta*kappa): beta*kappa too small)") from None
    for _ in range(2):
        t_c = 2.0 * math.asinh(math.sqrt((42.0 + n * t_c) / (2.0 * x)))
    terms = [-0.5]  # the t = 0 term is 1, with weight 1/2
    for k in range(int(t_c / h) + 1):
        t = h * k
        g = n * t - 2.0 * x * math.sinh(0.5 * t) ** 2
        if g < -42.0:
            break
        terms.append(math.exp(g) * (0.5 + 0.5 * math.exp(-2.0 * n * t)))
    return h * math.fsum(terms)


def bessel_k(n: int, zeta: float) -> float:
    """Modified Bessel function K_n(zeta) of the second kind, integer order."""
    _require_integer("Bessel order", n, 0)
    _require_positive("Bessel argument", zeta)
    return math.exp(-zeta) * _scaled_bessel_k(n, zeta)


def bessel_k_ratio(zeta: float) -> float:
    """Ratio K_2(zeta)/K_1(zeta).

    Formed from the exponentially scaled functions e^zeta K_n(zeta), which
    is the log-space evaluation needed once zeta is large enough (> ~700)
    for K_n itself to underflow; the scaling cancels exactly in the ratio.
    """
    _require_positive("Bessel argument", zeta)
    return _scaled_bessel_k(2, zeta) / _scaled_bessel_k(1, zeta)


def bessel_k_integral(n: int, zeta: float) -> float:
    """K_n(zeta) by direct quadrature of its defining integral.

    The substitution r = e^t turns the integrand r^n exp(-(z/2)(r+1/r))/r
    into the symmetric form exp(n t - z cosh t), so

        K_n(z) = int_0^inf cosh(n t) exp(-z cosh t) dt.

    The upper limit is truncated where z cosh t reaches 750, past which
    the integrand underflows double precision.  This is the slow reference
    route: adaptive tanh-sinh quadrature of the unscaled definition, which
    shares neither its rule nor its integrand with the trapezoid sum behind
    :func:`bessel_k`, to REFERENCE_TOLERANCE.
    """
    _require_integer("Bessel order", n, 0)
    _require_positive("Bessel argument", zeta)
    if zeta >= 750.0:
        return 0.0  # true value below the double-precision underflow threshold
    t_max = math.acosh(max(750.0 / zeta, 2.0))

    import numpy as np

    def integrand(t: np.ndarray) -> np.ndarray:
        return np.cosh(n * t) * np.exp(-zeta * np.cosh(t))

    return integrate(integrand, 0.0, t_max, REFERENCE_TOLERANCE).value
