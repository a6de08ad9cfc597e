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
thousands neither overflow nor produce NaNs; r^((D-1)/2) alone would leave
double range near D ~ 600 at r = 2.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Union

from .core import DomainError, HyperDimension, PhysicalParams, QuadratureError, _require_positive
from .quadrature import QuadResult, integrate_radial
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
    raise DomainError("u2 has no power-law prefactor")


def log_norm_constant(family: StateFamily, dim: HyperDimension, params: PhysicalParams) -> float:
    """ln of the closed-form normalization constant N0, N1 or N2."""
    kappa = params.kappa
    if family is StateFamily.U2:
        bk = params.beta_kappa
        zeta = 2.0 * math.sqrt(bk)
        return -0.25 * math.log(bk) + 0.5 * (math.log(kappa) - math.log(2.0) - _log_k1(zeta))
    # int r^(2a) exp(-kappa^2 r^2) dr = Gamma(b) / (2 kappa^(2b)) with b = a + 1/2
    b = _trap_power(family, dim) + 0.5
    return 0.5 * (math.log(2.0) - log_gamma(b)) + b * math.log(kappa)


def norm_constant(family: StateFamily, dim: HyperDimension, params: PhysicalParams) -> float:
    """Closed-form normalization constant; may underflow for D of several hundred,
    in which case the log-space accessor is the one to use."""
    return math.exp(log_norm_constant(family, dim, params))


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

    Immutable after construction; evaluation is pure.  The norm constant
    is stored in log space; the bare constant is exposed as a property and
    is exact wherever it is representable in double precision.
    """

    family: StateFamily
    dim: HyperDimension
    params: PhysicalParams
    log_norm: float = field(init=False)

    def __post_init__(self) -> None:
        if not isinstance(self.family, StateFamily):
            raise DomainError(f"family must be a StateFamily, got {self.family!r}")
        object.__setattr__(self, "log_norm", log_norm_constant(self.family, self.dim, self.params))

    @property
    def norm_constant(self) -> float:
        return math.exp(self.log_norm)

    # -- evaluation -----------------------------------------------------

    def log_u(self, r: ArrayLike) -> ArrayLike:
        """ln u(r); u is strictly positive for r > 0 in all three families."""
        import numpy as np

        arr = _as_positive_radius(r)
        kappa = self.params.kappa
        if self.family is StateFamily.U2:
            beta = self.params.beta
            out = self.log_norm - 0.5 * (beta / arr + kappa * arr)
        else:
            a = _trap_power(self.family, self.dim)
            out = self.log_norm + a * np.log(arr) - 0.5 * (kappa * arr) ** 2
        return _scalar_like(r, out)

    def u(self, r: ArrayLike) -> ArrayLike:
        """Radial profile u(r)."""
        import numpy as np

        return _scalar_like(r, np.exp(self.log_u(r)))

    def d_log_u(self, r: ArrayLike) -> ArrayLike:
        """Logarithmic derivative u'(r)/u(r)."""
        arr = _as_positive_radius(r)
        kappa = self.params.kappa
        if self.family is StateFamily.U2:
            beta = self.params.beta
            out = 0.5 * beta / arr**2 - 0.5 * kappa
        else:
            a = _trap_power(self.family, self.dim)
            out = a / arr - kappa**2 * arr
        return _scalar_like(r, out)

    def u_second_over_u(self, r: ArrayLike) -> ArrayLike:
        """Analytic curvature ratio u''(r)/u(r), used by the energy oracle."""
        arr = _as_positive_radius(r)
        kappa = self.params.kappa
        if self.family is StateFamily.U2:
            beta = self.params.beta
            out = (
                beta**2 / (4.0 * arr**4)
                - beta * kappa / (2.0 * arr**2)
                - beta / arr**3
                + kappa**2 / 4.0
            )
        else:
            a = _trap_power(self.family, self.dim)
            out = a * (a - 1.0) / arr**2 - kappa**2 * (2.0 * a + 1.0) + kappa**4 * arr**2
        return _scalar_like(r, out)

    def log_abs_psi(self, r: ArrayLike) -> ArrayLike:
        """ln |Psi(r)| of the full D-dimensional wave function."""
        import numpy as np

        log_u = self.log_u(r)  # the radius gate; r is known good below
        out = (
            np.asarray(log_u)
            - 0.5 * log_solid_angle(self.dim)
            - 0.5 * (self.dim.d - 1) * np.log(np.asarray(r, dtype=float))
        )
        return _scalar_like(r, out)

    def psi(self, r: ArrayLike) -> ArrayLike:
        """Full wave function Psi(r) = u(r) / (sqrt(S_D) r^((D-1)/2))."""
        import numpy as np

        return _scalar_like(r, np.exp(np.asarray(self.log_abs_psi(r))))

    # -- geometry of the profile ----------------------------------------

    def peak_radius(self) -> float:
        """argmax of u(r): sqrt(a)/kappa for the trap states, sqrt(beta/kappa) for u2.

        For u0 at D = 1 the profile is a half-Gaussian whose supremum sits
        at the origin; 0.0 is returned in that case.
        """
        kappa = self.params.kappa
        if self.family is StateFamily.U2:
            return math.sqrt(self.params.beta / kappa)
        a = _trap_power(self.family, self.dim)
        return math.sqrt(a) / kappa if a > 0 else 0.0

    def support(self, drop_decades: float = SUPPORT_DROP_DECADES) -> tuple[float, float]:
        """Window [r_lo, r_hi] outside which u is `drop_decades` decades below peak.

        With the default drop the |u|^2 mass left outside is below 1e-14,
        which justifies truncating every (0, inf) integral to this window.
        The edges solve ln u(r) = ln u(peak) - drop in closed form: for u2
        kappa r^2 - 2 (sqrt(beta kappa) + drop) r + beta = 0, and for u0/u1
        r^2 = (a/kappa^2) (-W_k(-exp(-1 - 2 drop/a))), W_0 inner, W_-1 outer,
        with the real branches of Lambert W from the in-house Newton solver
        `_lambert_w`, which takes the exponent -1 - 2 drop/a rather than z.
        The drop must be positive and finite.
        """
        _require_positive("drop_decades", drop_decades)
        drop = drop_decades * math.log(10.0)
        kappa = self.params.kappa
        if self.family is StateFamily.U2:
            beta, root_bk = self.params.beta, math.sqrt(self.params.beta_kappa)
            r_hi = (root_bk + drop + math.sqrt(drop * (drop + 2.0 * root_bk))) / kappa
            return beta / (kappa * r_hi), r_hi  # product of the roots, free of cancellation
        a = _trap_power(self.family, self.dim)
        if a == 0.0:  # u0 at D=1: flat at the origin, drop measured from r = 1/kappa
            return 1e-30 / kappa, math.sqrt(1.0 + 2.0 * drop) / kappa
        log_minus_z = -1.0 - 2.0 * drop / a
        r_lo, r_hi = (math.sqrt(-a * _lambert_w(log_minus_z, k)) / kappa for k in (0, -1))
        return r_lo, r_hi

    def expectation(self, weight: Callable[[np.ndarray], ArrayLike] | None = None) -> QuadResult:
        """Quadrature of int weight(r) |u|^2 dr over the support window (weight 1 if None).

        Raises QuadratureError when the window rounds to zero width in s = ln r,
        where the integral would come out as an exact 0.
        """
        import numpy as np

        r_lo, r_hi = self.support()
        if not math.log(r_lo) < math.log(r_hi):
            raise QuadratureError(
                f"the support window r in [{r_lo:.6g}, {r_hi:.6g}] of {self.family.value} at "
                f"D={self.dim.d}, beta*kappa={self.params.beta_kappa:g} has no width in s = ln r"
            )

        def integrand(r: np.ndarray) -> np.ndarray:
            density = np.exp(2.0 * np.asarray(self.log_u(r)))
            return density if weight is None else np.asarray(weight(r)) * density

        return integrate_radial(integrand, r_lo, r_hi)

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
        try:
            family = StateFamily(config["family"])
        except ValueError as exc:
            raise DomainError(f"unknown family {config['family']!r}") from exc
        for name in ("kappa", "beta_kappa"):
            _require_positive(name, config[name])
        kappa, beta_kappa = float(config["kappa"]), float(config["beta_kappa"])
        params = PhysicalParams(kappa=kappa, beta=beta_kappa / kappa)
        return cls(family=family, dim=HyperDimension(config["D"]), params=params)


def make_state(family: StateFamily | str, d: int, params: PhysicalParams | None = None) -> RadialState:
    """Convenience constructor accepting the family tag as a plain string."""
    fam = family if isinstance(family, StateFamily) else StateFamily(str(family))
    return RadialState(family=fam, dim=HyperDimension(d), params=params or PhysicalParams())


def eigen_potential_v2(params: PhysicalParams, r: ArrayLike) -> ArrayLike:
    """Potential V2(r) for which u2 is a zero-energy bound eigenstate.

    V2(r) = (hbar^2/2M) [ beta^2/(4 r^4) - beta*kappa/(2 r^2) - beta/r^3 + (kappa/2)^2 ];
    independent of D by construction, approaching (hbar^2/2M)(kappa/2)^2 as r -> inf.
    """
    arr = _as_positive_radius(r)
    beta, kappa = params.beta, params.kappa
    prefactor = params.hbar**2 / (2.0 * params.mass)
    out = prefactor * (
        beta**2 / (4.0 * arr**4)
        - beta * kappa / (2.0 * arr**2)
        - beta / arr**3
        + (kappa / 2.0) ** 2
    )
    return _scalar_like(r, out)


def u2_eigenstate_residual(params: PhysicalParams, r: ArrayLike) -> float:
    """Residual of the zero-energy equation u2'' - (2M/hbar^2) V2 u2 = 0.

    The curvature is taken from a 5-point finite-difference stencil with a
    locally scaled step (never from the analytic second derivative), so
    this is an independent check that u2 really solves its Schroedinger
    equation with E = 0.  Returns max|residual| / max|u2''| over the given
    radii; the scan normalizer follows the convention of quoting residuals
    against the largest curvature in the window.
    """
    import numpy as np

    arr = _as_positive_radius(r)
    state = RadialState(family=StateFamily.U2, dim=HyperDimension(3), params=params)

    # local variation scale of u2; the step must resolve it
    local_rate = np.abs(np.asarray(state.d_log_u(arr))) + 2.0 / arr + params.kappa
    h = RESIDUAL_STEP_SCALE / local_rate

    stencil = np.zeros_like(arr)
    for offset, weight in ((-2, -1.0), (-1, 16.0), (0, -30.0), (1, 16.0), (2, -1.0)):
        stencil += weight * np.asarray(state.u(arr + offset * h))
    u_second_fd = stencil / (12.0 * h**2)

    coupling = 2.0 * params.mass / params.hbar**2
    potential_term = coupling * np.asarray(eigen_potential_v2(params, arr)) * np.asarray(state.u(arr))
    residual = np.max(np.abs(u_second_fd - potential_term))
    return float(residual / np.max(np.abs(u_second_fd)))
