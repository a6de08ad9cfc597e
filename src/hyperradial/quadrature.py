"""Adaptive quadrature used by every integral-backed operation.

Primary rule: tanh-sinh (double exponential; Takahasi & Mori 1974, Bailey,
Jeyabalan & Li 2005), which handles the Gaussian outer tails of the trap
states and the essential r -> 0 decay of the dimension-free state equally
well.  Nodes span |t| <= 4 from step h = 1/2; each level halves h and reuses
the previous nodes, and the change |I_l - I_(l-1)| between levels is the
error estimate.  Abscissae are distances from the nearer endpoint, so nodes
crowding an endpoint keep full relative precision.  If the tolerance is not
met the integral falls back to adaptive Gauss-Kronrod subdivision
(QUADPACK) and logs one warning on the ``hyperradial`` logger;
``scipy.integrate`` and ``logging`` are imported only then.  An infinite
level sum (a node rounded onto a singular endpoint) falls back at once; a
NaN level sum raises QuadratureError at once, since no rule can repair it;
so does an arithmetic error that the integrand raises inside QUADPACK,
which calls it on Python floats.
Radial integrals over (0, inf) are truncated to the closed-form support
window of the state and evaluated on s = ln(r), so that features spanning
many decades of r are resolved uniformly.  A state integrates its kappa-free
profile u_x in x = kappa r, where u(r) = sqrt(kappa) u_x(kappa r), so the nodes
and the result of a state's integral are the same at every kappa.

Node layouts of both rules are deterministic: identical inputs produce
bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .core import DEFAULT_TOLERANCE, DomainError, QuadratureError, Tolerance

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class QuadResult:
    """Outcome of one adaptive integration."""

    value: float
    error: float
    neval: int
    method: str  # "tanh_sinh" or "gauss_kronrod"
    converged: bool

    def __float__(self) -> float:
        return self.value


def _tanh_sinh(f: Callable[[np.ndarray], np.ndarray], a: float, b: float, tol: Tolerance) -> QuadResult:
    import numpy as np

    half = 0.5 * (b - a)

    def nodes(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # the pair +-t, as distances half * (1 - tanh(pi/2 sinh t)) from the nearer endpoint
        e = np.exp(-math.pi * np.sinh(t))
        delta = 2.0 * half * e / (1.0 + e)
        weight = 2.0 * math.pi * half * np.cosh(t) * e / (1.0 + e) ** 2
        return np.concatenate((a + delta, b - delta)), np.concatenate((weight, weight))

    def level_sum(x: np.ndarray, w: np.ndarray) -> float:
        total = float(np.dot(w, f(x)))
        if math.isnan(total):  # no finer level and no QUADPACK can repair a NaN
            raise QuadratureError(f"integrand is not finite on [{a:.6g}, {b:.6g}]: a level "
                                  f"of {x.size} tanh-sinh nodes sums to nan")
        return total

    # the integrand's own overflow and divide warnings give way to that error
    with np.errstate(all="ignore"):
        # |t| <= 4: the weights there are ~1e-35 of the centre's; a cut at 3.2
        # would lose 9e-9 on int_0^1 dx/sqrt(x)
        h = 0.5
        x, w = nodes(h * np.arange(1.0, 9.0))
        x, w = np.append(a + half, x), np.append(0.5 * math.pi * half, w)
        total, neval = level_sum(x, w), x.size
        value, error = h * total, math.inf
        for _ in range(max(tol.max_subdivisions, 3)):
            if math.isinf(total):  # a node on a singular endpoint; QUADPACK never samples one
                break
            h *= 0.5
            x, w = nodes(h * np.arange(1.0, 4.0 / h, 2.0))  # odd multiples of the new step
            total, neval = total + level_sum(x, w), neval + x.size
            previous, value = value, h * total
            error = abs(value - previous)
            if error <= max(tol.abs, tol.rel * abs(value)):
                return QuadResult(value, error, neval, "tanh_sinh", True)
    return QuadResult(value, error, neval, "tanh_sinh", False)


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> QuadResult:
    """Integrate a vectorized callable over [a, b].

    Tries tanh-sinh first; on failure to converge within
    ``tol.max_subdivisions`` step-halving levels (at least 3), falls back
    to Gauss-Kronrod subdivision.  Raises QuadratureError when neither
    route meets the tolerance.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"integration bounds must be finite, got [{a}, {b}]")
    if a == b:
        return QuadResult(0.0, 0.0, 0, "tanh_sinh", True)
    if a > b:
        res = integrate(f, b, a, tol)
        return QuadResult(-res.value, res.error, res.neval, res.method, res.converged)

    res = _tanh_sinh(f, a, b, tol)
    if res.converged:
        return res

    import logging

    from scipy.integrate import quad  # deferred: only the fallback needs QUADPACK

    logging.getLogger("hyperradial").warning(
        "tanh-sinh did not converge on [%.6g, %.6g]: estimate %.6e, error %.2e after %d "
        "evaluations; falling back to Gauss-Kronrod", a, b, res.value, res.error, res.neval)
    try:
        value, abserr, info = quad(f, a, b, epsabs=tol.abs, epsrel=tol.rel,
                                   limit=max(50, 2 ** tol.max_subdivisions), full_output=True)[:3]
    except ArithmeticError as exc:  # QUADPACK calls f on scalars, which raise where arrays give inf
        raise QuadratureError(f"integrand failed on [{a:.6g}, {b:.6g}] during the Gauss-Kronrod "
                              f"fallback: {type(exc).__name__}: {exc}") from exc
    neval = int(info["neval"])
    if abserr <= max(tol.abs, tol.rel * abs(value)):
        return QuadResult(float(value), float(abserr), neval, "gauss_kronrod", True)

    raise QuadratureError(
        "quadrature failed to converge on "
        f"[{a:.6g}, {b:.6g}]: tanh-sinh estimate {res.value:.6e}, "
        f"Gauss-Kronrod estimate {value:.6e} +- {abserr:.2e}, "
        f"requested rel={tol.rel:.1e} abs={tol.abs:.1e}"
    )


def integrate_radial(f: Callable[[np.ndarray], np.ndarray], r_lo: float, r_hi: float) -> QuadResult:
    """Integrate f(r) dr over [r_lo, r_hi] in the log variable s = ln r.

    Both bounds must be strictly positive and finite, and the tolerance is
    DEFAULT_TOLERANCE.  A QuadratureError names the radial window as well as
    the interval in s.  The substitution maps the integrand to f(e^s) e^s,
    which decays at double-exponential rate for all three wave-function
    families and is the form the tanh-sinh rule is most efficient on.
    """
    if not (0 < r_lo < math.inf and 0 < r_hi < math.inf):  # also rejects NaN
        raise DomainError(f"radial bounds must be positive and finite, got r in [{r_lo}, {r_hi}]")
    import numpy as np

    def g(s: np.ndarray) -> np.ndarray:
        r = np.exp(s)
        return f(r) * r

    try:
        return integrate(g, math.log(r_lo), math.log(r_hi))
    except QuadratureError as exc:
        raise QuadratureError(f"{exc} (the interval is s = ln r for r in "
                              f"[{r_lo:.3g}, {r_hi:.3g}])") from None
