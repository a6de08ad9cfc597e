"""Radial s-state families and the hyperspherical geometry they live in.

A wave function depending only on the hyperradius r factors as

    Psi(r) = u(r) / (sqrt(S_D) * r^((D-1)/2)),   S_D = 2 pi^(D/2) / Gamma(D/2),

with the radial profile u normalized to int |u|^2 dr = 1.  Three families
are implemented:

    u0(r) = N0 * r^((D-1)/2) * exp(-kappa^2 r^2 / 2)
    u1(r) = N1 * r^((D+3)/2) * exp(-kappa^2 r^2 / 2)
    u2(r) = N2 * exp(-(beta/r + kappa r) / 2)

u0 is the product of D identical one-dimensional Gaussians (the ground
state of an isotropic harmonic trap), u1 the symmetrized excitation with
one x^2 factor, and u2 a profile whose shape does not depend on D at all.
Every evaluation runs through log|u| plus sign so that dimensions in the
thousands neither overflow nor produce NaNs (r^((D-1)/2) alone would leave
double range near D ~ 600 at r = 2); psi raises OverflowError where |Psi|
itself leaves it, as for u2 at D = 300 near r = 0.02.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Union

from .core import DomainError, HyperDimension, PhysicalParams, QuadratureError, _beta, _require_positive
from .quadrature import QuadResult, integrate
from .specialfn import _scaled_bessel_k, log_gamma

if TYPE_CHECKING:
    import numpy as np

# numpy is imported by the functions that build or evaluate arrays, never at
# module level, so the closed forms run without it
ArrayLike = Union[float, "np.ndarray"]

# Amplitude drop (in decades below the peak) that defines the numerical
# support window: |u|^2 outside it integrates to well under 1e-14.
SUPPORT_DROP_DECADES = 17.0
# Finite-difference step of u2_eigenstate_residual, relative to the local
# variation scale of u2
RESIDUAL_STEP_SCALE = 5e-3


class StateFamily(enum.Enum):
    """The three radial profiles: u0/u1 are D-dependent, u2 is not."""

    U0 = "u0"
    U1 = "u1"
    U2 = "u2"


def log_solid_angle(dim: HyperDimension) -> float:
    """ln of the total solid angle S_D = 2 pi^(D/2) / Gamma(D/2)."""
    d = dim.d
    return math.log(2.0) + 0.5 * d * math.log(math.pi) - log_gamma(0.5 * d)


def solid_angle(dim: HyperDimension) -> float:
    """Total solid angle in D dimensions: 2 pi, 4 pi, ... for D = 2, 3, ..."""
    return math.exp(log_solid_angle(dim))


def unit_sphere_volume(dim: HyperDimension) -> float:
    """Volume V_D = S_D / D of the unit ball; peaks at D = 5, then decreases."""
    return math.exp(log_solid_angle(dim) - math.log(dim.d))


def _log_k1(zeta: float) -> float:
    # ln K_1(zeta) via the scaled Bessel function, stable for large zeta
    return math.log(_scaled_bessel_k(1, zeta)) - zeta


def _lambert_w(log_minus_z: float, branch: int) -> float:
    """Real Lambert W at z = -exp(L) in (-1/e, 0): W_0 for branch 0, W_-1 for branch -1.

    Solves w + ln(-w) = L by Newton iteration on s = ln(-w), that is on
    (s - expm1(s)) - (1 + L) = 0, so that w = -e^s keeps full relative
    precision on branch 0 where |w| ~ e^L is tiny, and s - expm1(s) ~ -s^2/2
    carries no cancellation near the branch point.  The start is the
    branch-point series w = -1 + q - q^2/3 + 11 q^3/72 with q = +p (branch 0)
    or -p (branch -1), p = sqrt(2(1 + e z)) = sqrt(-2 expm1(1 + L)), or for
    p >= 1 the logarithmic asymptote: w ~ z on branch 0, w ~ L - ln(-L) on
    branch -1 (Corless et al., Adv. Comput. Math. 5, 329 (1996)).
    """
    L = log_minus_z
    p = math.sqrt(-2.0 * math.expm1(1.0 + L))
    if p < 1.0:
        q = p if branch == 0 else -p
        s = math.log1p(q * (q * (1.0 / 3.0 - 11.0 / 72.0 * q) - 1.0))
    elif branch == 0:
        s = L + math.exp(L)
    else:
        s = math.log(math.log(-L) - L)
    # Newton's error after a step of size d is below d^2 / (2p), so a step
    # under 1e-9 leaves s (the relative error of w) at round-off
    for _ in range(50):
        expm1_s = math.expm1(s)
        g = (s - expm1_s) - (1.0 + L)
        if g == 0.0:
            break
        step = g / -expm1_s
        s -= step
        if abs(step) < 1e-9:
            break
    return -math.exp(s)


def _trap_power(family: StateFamily, dim: HyperDimension) -> float:
    """Power a of the trap profile r^a exp(-kappa^2 r^2 / 2): (D-1)/2 for u0, (D+3)/2 for u1."""
    if family is StateFamily.U0:
        return 0.5 * (dim.d - 1)
    if family is StateFamily.U1:
        return 0.5 * (dim.d + 3)
    if family is StateFamily.U2:
        raise DomainError("u2 has no power-law prefactor")
    raise DomainError(f"family must be a StateFamily, got {family!r}")


def log_norm_constant(family: StateFamily, dim: HyperDimension, params: PhysicalParams) -> float:
    """ln of the closed-form normalization constant N0, N1 or N2."""
    return RadialState(family=family, dim=dim, params=params).log_norm


def norm_constant(family: StateFamily, dim: HyperDimension, params: PhysicalParams) -> float:
    """Closed-form normalization constant; may underflow for D of several hundred,
    in which case the log-space accessor is the one to use."""
    return math.exp(log_norm_constant(family, dim, params))


# The one radius check.  Radii are checked where they enter from a caller, or where a
# grid or window is built, and never again inside: a caller's r in each public function
# of a radius goes through this check once.  A support window is checked once, where
# `RadialState._support_x` makes it; `_expectation_in_x` hands it straight to
# `quadrature.integrate`, whose nodes lie inside it, so no node is checked.  Past the
# check the work is done by array kernels (`RadialState._log_u_x`, `energy._v_q`, ...),
# which take a checked array, return one and stay private, so no public path skips it.
def _as_positive_radius(r: ArrayLike) -> np.ndarray:
    import numpy as np

    arr = np.asarray(r, dtype=float)
    if arr.size == 0:
        raise DomainError("empty radius array")
    # one min and one max pass: NaN propagates through both and fails either test
    if not (arr.min() > 0 and arr.max() < math.inf):
        raise DomainError("radius must be finite and strictly positive")
    return arr


def _scalar_like(template: ArrayLike, value: np.ndarray):
    import numpy as np

    if np.isscalar(template) or (isinstance(template, np.ndarray) and template.ndim == 0):
        return float(value)
    return value


@dataclass(frozen=True)
class RadialState:
    """One normalized radial wave function u(r) on (0, inf).

    Immutable after construction; evaluation is pure.  u(r) = sqrt(kappa) u_x(kappa r)
    with u_x set by D (u0, u1) or beta kappa (u2) alone: the private kernels are written
    once for u_x, the public methods convert r = x/kappa and ln u = ln(kappa)/2 + ln u_x.
    The norm constant is stored in log space; the bare constant is exposed as a property
    and is exact wherever it is representable in double precision.
    """

    family: StateFamily
    dim: HyperDimension
    params: PhysicalParams
    log_norm: float = field(init=False)
    _log_norm_x: float = field(init=False, repr=False)  # ln of the norm constant of u_x

    def __post_init__(self) -> None:
        if not isinstance(self.family, StateFamily):
            raise DomainError(f"family must be a StateFamily, got {self.family!r}")
        if self.family is StateFamily.U2:
            bk, b = self.params.beta_kappa, 0.5
            _require_positive("beta*kappa", bk)  # beta * kappa can leave double range
            log_norm_x = -0.25 * math.log(bk) + 0.5 * (-math.log(2.0) - _log_k1(2.0 * math.sqrt(bk)))
        else:  # int x^(2a) exp(-x^2) dx = Gamma(b) / 2 with b = a + 1/2
            b = _trap_power(self.family, self.dim) + 0.5
            log_norm_x = 0.5 * (math.log(2.0) - log_gamma(b))
        object.__setattr__(self, "_log_norm_x", log_norm_x)
        # N = N_x kappa^b with b = a + 1/2, and a = 0 for u2
        object.__setattr__(self, "log_norm", log_norm_x + b * math.log(self.params.kappa))

    @property
    def norm_constant(self) -> float:
        return math.exp(self.log_norm)

    # -- evaluation, written in x = kappa r (order one on the support at any kappa) --

    def _log_u_x(self, x: np.ndarray) -> np.ndarray:
        import numpy as np

        if self.family is StateFamily.U2:
            return self._log_norm_x - 0.5 * (self.params.beta_kappa / x + x)
        return self._log_norm_x + _trap_power(self.family, self.dim) * np.log(x) - 0.5 * x**2

    def _d_log_u_x(self, x: np.ndarray) -> np.ndarray:
        if self.family is StateFamily.U2:
            return 0.5 * self.params.beta_kappa / x**2 - 0.5
        return _trap_power(self.family, self.dim) / x - x

    def _curvature(self, x: np.ndarray) -> np.ndarray:
        """c(x) = u''/u in units of kappa^2, written in x = kappa r."""
        if self.family is StateFamily.U2:
            b = self.params.beta_kappa
            return b**2 / (4.0 * x**4) - b / (2.0 * x**2) - b / x**3 + 0.25
        a = _trap_power(self.family, self.dim)
        return a * (a - 1.0) / x**2 - (2.0 * a + 1.0) + x**2

    def _log_u(self, arr: np.ndarray) -> np.ndarray:
        return 0.5 * math.log(self.params.kappa) + self._log_u_x(self.params.kappa * arr)

    def log_u(self, r: ArrayLike) -> ArrayLike:
        """ln u(r); u is strictly positive for r > 0 in all three families."""
        return _scalar_like(r, self._log_u(_as_positive_radius(r)))

    def u(self, r: ArrayLike) -> ArrayLike:
        """Radial profile u(r)."""
        import numpy as np

        return _scalar_like(r, np.exp(self.log_u(r)))

    def d_log_u(self, r: ArrayLike) -> ArrayLike:
        """Logarithmic derivative u'(r)/u(r): kappa (a/x - x), or kappa (b/(2 x^2) - 1/2) for u2."""
        kappa = self.params.kappa
        return _scalar_like(r, kappa * self._d_log_u_x(kappa * _as_positive_radius(r)))

    def u_second_over_u(self, r: ArrayLike) -> ArrayLike:
        """Analytic curvature ratio u''(r)/u(r) = kappa^2 c(kappa r)."""
        kappa = self.params.kappa
        return _scalar_like(r, kappa**2 * self._curvature(kappa * _as_positive_radius(r)))

    def log_abs_psi(self, r: ArrayLike) -> ArrayLike:
        """ln |Psi(r)| of the full D-dimensional wave function."""
        import numpy as np

        arr = _as_positive_radius(r)
        out = self._log_u(arr) - 0.5 * log_solid_angle(self.dim) - 0.5 * (self.dim.d - 1) * np.log(arr)
        return _scalar_like(r, out)

    def psi(self, r: ArrayLike) -> ArrayLike:
        """Full wave function Psi(r) = u(r) / (sqrt(S_D) r^((D-1)/2)); OverflowError
        where |Psi| leaves double range, and log_abs_psi gives ln |Psi| there."""
        import numpy as np

        with np.errstate(over="ignore"):  # named below, with the radius
            out = np.exp(np.asarray(self.log_abs_psi(r)))
        if np.isinf(out).any():
            raise OverflowError(f"|Psi| of {self.family.value} at D={self.dim.d} overflows at "
                                f"r={np.asarray(r, dtype=float)[np.isinf(out)][0]:g}; use log_abs_psi")
        return _scalar_like(r, out)

    # -- geometry of the profile ----------------------------------------

    def _peak_x(self) -> float:
        x2 = self.params.beta_kappa if self.family is StateFamily.U2 else _trap_power(self.family, self.dim)
        return math.sqrt(x2) if x2 > 0 else 0.0  # x2 = (kappa r_peak)^2

    def peak_radius(self) -> float:
        """argmax of u(r): sqrt(a)/kappa for the trap states, sqrt(beta kappa)/kappa for u2.

        For u0 at D = 1 the profile is a half-Gaussian whose supremum sits
        at the origin; 0.0 is returned in that case.
        """
        return self._peak_x() / self.params.kappa

    def _support_x(self, drop_decades: float = SUPPORT_DROP_DECADES) -> tuple[float, float]:
        _require_positive("drop_decades", drop_decades)
        drop = drop_decades * math.log(10.0)
        if self.family is StateFamily.U2:
            bk, root_bk = self.params.beta_kappa, math.sqrt(self.params.beta_kappa)
            x_hi = root_bk + drop + math.sqrt(drop * (drop + 2.0 * root_bk))
            x_lo = bk / x_hi  # product of the roots, free of cancellation
        elif (a := _trap_power(self.family, self.dim)) == 0.0:
            # u0 at D=1: flat at the origin, drop measured from x = 1
            x_lo, x_hi = 1e-30, math.sqrt(1.0 + 2.0 * drop)
        else:
            x_lo, x_hi = (math.sqrt(-a * _lambert_w(-1.0 - 2.0 * drop / a, k)) for k in (0, -1))
        # each window is checked here, where it is made, and never by its users: a drop
        # large enough to overflow or underflow an edge leaves none (NaN fails too)
        if not 0 < x_lo <= x_hi < math.inf:
            raise DomainError(f"drop_decades={drop_decades:g} leaves no finite, positive support "
                              f"window for {self.family.value} at D={self.dim.d}")
        return x_lo, x_hi

    def support(self, drop_decades: float = SUPPORT_DROP_DECADES) -> tuple[float, float]:
        """Window [r_lo, r_hi] outside which u is `drop_decades` decades below peak.

        With the default drop the |u|^2 mass left outside is below 1e-14,
        which justifies truncating every (0, inf) integral to this window.
        The edges solve ln u(r) = ln u(peak) - drop in closed form, in x = kappa r:
        for u2 x^2 - 2 (sqrt(beta kappa) + drop) x + beta kappa = 0, and for u0/u1
        x^2 = a (-W_k(-exp(-1 - 2 drop/a))), W_0 inner, W_-1 outer,
        with the real branches of Lambert W from the in-house Newton solver
        `_lambert_w`, which takes the exponent -1 - 2 drop/a rather than z.
        The drop must be positive and finite, and both edges must come out as finite
        radii above zero, in x and again in r = x / kappa; otherwise DomainError names
        the drop, or kappa where only the division leaves no window.
        """
        x_lo, x_hi = self._support_x(drop_decades)
        kappa = self.params.kappa
        r_lo, r_hi = x_lo / kappa, x_hi / kappa
        # the window in x is checked where _support_x makes it, the window in r here
        if not 0 < r_lo <= r_hi < math.inf:
            raise DomainError(f"the support window x in [{x_lo:g}, {x_hi:g}] of {self.family.value} "
                              f"at D={self.dim.d} leaves no finite, positive radii r = x/kappa "
                              f"at kappa={kappa:g}")
        return r_lo, r_hi

    def expectation(self, weight: Callable[[np.ndarray], ArrayLike] | None = None) -> QuadResult:
        """Quadrature of int weight(r) |u|^2 dr over the support window (weight 1 if None)."""
        return self._expectation_in_x(None if weight is None else lambda x: weight(x / self.params.kappa))

    def _expectation_in_x(self, weight: Callable[[np.ndarray], ArrayLike] | None = None) -> QuadResult:
        """int weight(x) |u|^2 dr, x = kappa r, by quadrature of |u_x|^2 x in s = ln x over the
        window _support_x checks, the same at every kappa; QuadratureError, naming the window in r
        and kappa, where it has no width in s (the result would be an exact 0) or quadrature fails."""
        import numpy as np

        x_lo, x_hi = self._support_x()
        kappa = self.params.kappa
        # the failures name the window in r unchecked: the quadrature runs in x, where the
        # window is checked, even where r = x / kappa leaves it
        r_lo, r_hi = x_lo / kappa, x_hi / kappa
        s_lo, s_hi = math.log(x_lo), math.log(x_hi)
        if not s_lo < s_hi:
            raise QuadratureError(
                f"the support window r in [{r_lo:.6g}, {r_hi:.6g}] of {self.family.value} at "
                f"D={self.dim.d}, beta*kappa={self.params.beta_kappa:g} has no width in s = ln r"
            )

        def integrand(s: np.ndarray) -> np.ndarray:
            x = np.exp(s)
            density = np.exp(2.0 * self._log_u_x(x))
            return (density if weight is None else np.asarray(weight(x)) * density) * x

        try:
            return integrate(integrand, s_lo, s_hi)
        except QuadratureError as exc:
            raise QuadratureError(f"{exc} (the interval is s = ln(kappa r) for r in "
                                  f"[{r_lo:.3g}, {r_hi:.3g}], kappa={kappa:g})") from None

    def normalization_integral(self) -> QuadResult:
        """Quadrature of int |u|^2 dr over the support window; must be 1."""
        return self.expectation()

    # -- serialization ---------------------------------------------------

    def to_config(self) -> dict:
        """JSON-ready parameter block: family, D, kappa, beta_kappa."""
        return {
            "family": self.family.value,
            "D": self.dim.d,
            "kappa": self.params.kappa,
            "beta_kappa": self.params.beta_kappa,
        }

    @classmethod
    def from_config(cls, config: dict) -> "RadialState":
        """Rebuild a state from its `to_config` block (hbar = M = 1 implied)."""
        expected = {"family", "D", "kappa", "beta_kappa"}
        unknown = set(config) - expected
        if unknown:
            raise DomainError(f"unknown state-config keys: {sorted(unknown)}")
        missing = expected - set(config)
        if missing:
            raise DomainError(f"missing state-config keys: {sorted(missing)}")
        family = _family(config["family"])
        for name in ("kappa", "beta_kappa"):
            _require_positive(name, config[name])
        kappa, beta_kappa = float(config["kappa"]), float(config["beta_kappa"])
        params = PhysicalParams(kappa=kappa, beta=_beta(beta_kappa, kappa, ("beta_kappa", "kappa")))
        return cls(family=family, dim=HyperDimension(config["D"]), params=params)


def _family(tag: StateFamily | str) -> StateFamily:
    try:
        return StateFamily(tag)
    except ValueError:
        raise DomainError(f"unknown family {tag!r}; expected one of "
                          f"{', '.join(repr(f.value) for f in StateFamily)}") from None


def make_state(family: StateFamily | str, d: int, params: PhysicalParams | None = None) -> RadialState:
    """Convenience constructor accepting the family tag as a plain string."""
    return RadialState(family=_family(family), dim=HyperDimension(d), params=params or PhysicalParams())


def eigen_potential_v2(params: PhysicalParams, r: ArrayLike) -> ArrayLike:
    """Potential V2(r) for which u2 is a zero-energy bound eigenstate.

    V2 = eps [ b^2/(4 x^4) - b/(2 x^2) - b/x^3 + 1/4 ] in x = kappa r, b = beta kappa;
    independent of D by construction, approaching eps/4 as r -> inf.
    """
    x = params.kappa * _as_positive_radius(r)
    return _scalar_like(r, params.epsilon() * _eigen_potential_v2(params.beta_kappa, x))


def _eigen_potential_v2(b: float, x: np.ndarray) -> np.ndarray:
    # V2/eps in x, its own formula, not RadialState._curvature: the residual checks u2 against it
    return b**2 / (4.0 * x**4) - b / (2.0 * x**2) - b / x**3 + 0.25


def u2_eigenstate_residual(params: PhysicalParams, r: ArrayLike) -> float:
    """Residual of the zero-energy equation u2'' - (2M/hbar^2) V2 u2 = 0.

    The equation is taken in x = kappa r on u_x, where u2(r) = sqrt(kappa) u_x(kappa r),
    and reads d^2u_x/dx^2 = (V2/eps) u_x, so one x gives one stencil at every kappa.  The
    curvature is taken from a 5-point finite-difference stencil with a locally
    scaled step (never from the analytic second derivative), so this is an
    independent check that u2 really solves its Schroedinger equation with E = 0.
    Returns max|residual| / max|u2''| over the given radii; the scan normalizer
    follows the convention of quoting residuals against the largest curvature.
    """
    import numpy as np

    x = params.kappa * _as_positive_radius(r)
    state = RadialState(family=StateFamily.U2, dim=HyperDimension(3), params=params)

    # h resolves the local variation scale of u2 in x, and h <= x/400 keeps x +- 2h positive
    h = RESIDUAL_STEP_SCALE / (np.abs(state._d_log_u_x(x)) + 2.0 / x + 1.0)

    stencil = np.zeros_like(x)
    for offset, weight in ((-2, -1.0), (-1, 16.0), (0, -30.0), (1, 16.0), (2, -1.0)):
        stencil += weight * np.exp(state._log_u_x(x + offset * h))
    u_second_fd = stencil / (12.0 * h**2)

    potential_term = _eigen_potential_v2(params.beta_kappa, x) * np.exp(state._log_u_x(x))
    residual = np.max(np.abs(u_second_fd - potential_term))
    return float(residual / np.max(np.abs(u_second_fd)))
