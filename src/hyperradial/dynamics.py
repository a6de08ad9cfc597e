"""Free expansion after trap switch-off.

Once the confining potential is removed at t = 0 the radial profile obeys

    i hbar du/dt = [ -(hbar^2/2M) d^2/dr^2 + V_Q(r) ] u(r, t),

so the only force left is the quantum centrifugal force
F_Q(r) = -dV_Q/dr = (hbar^2/2M)(D-1)(D-3)/(2 r^3).  For a real initial
profile the average radial momentum grows linearly at short times with
slope integral F_Q |u|^2 dr (the Raman-Nath regime); this module provides
that slope by quadrature, its Gamma/Bessel closed forms, the sqrt(2D)
large-D law, a short-time phase-evolution approximation, and a full
Crank-Nicolson propagator as the independent numerical check.

Propagator notes
----------------
The step runs in x = kappa r and tau = eps t / hbar, on u_x at the nodes
x_j = kappa r_j (spacing h) under H_h = -Delta_h + v (Delta_h the 3-point
Laplacian).  The free expansion takes v = V_Q/eps, which holds no hbar, M or
kappa: an exact power-of-two change of units leaves <p_r> and the norm the
same doubles.  The Cayley form A u_new = B u, A = 1 + i dtau H_h / 2, is
unconditionally stable and exactly unitary in the discrete l2 norm, so norm
drift measures only solver round-off (about 2e-13 per 1e4 steps).  Since
B = 2 - A, each step solves the constant tridiagonal system (A/2) y = u,
LU-factored once, and sets u_new = y - u (Goldberg, Schey & Schwartz, Am. J.
Phys. 35, 177 (1967)).

One private generator, _cayley_steps, owns everything that knows the band
layout or LAPACK: the factors, their checks, the two solves of a step, the
solve window and its full-grid redo, and the pair of buffers the state
alternates between.  It takes any diagonal v, so a trap left on (V2/eps for
u2, V_Q/eps + x^2 for u0) makes the stationarity test of the same stepper.
The diagonal 2c + v of A/2 (c = 1/h^2) outweighs its off-diagonal, so the LU
factors (LAPACK zgttrf) need no row interchange, and a factorization that
made one raises PropagationError.  Writing U = D U1 and L1 = D^-1 L D, a
step scales u by 1/d and makes two unit-diagonal bidiagonal solves in place
(LAPACK ztbtrs), with no pivot test or division per row.  One (2, n) band
holds both factors: the U1 superdiagonal in row 0 and the L1 subdiagonal in
row 1, each row where the other factor keeps its unit diagonal, which ztbtrs
never reads.  The band's rows hold A/2 until zgttrf has copied it, and 1/d
overwrites zgttrf's d, so a run keeps of its setup only the band and 1/d.
Both routines are loaded once per process by _tridiagonal_lapack, straight
from scipy's _flapack extension: neither the scipy package nor scipy.linalg
is imported.

propagate_free keeps what concerns the free expansion: the input checks, the
step policy and dt_cap, the overflow checks, the record, the
norm-drift and reflection aborts and the progress hook.  The samples go into
one float64 record of three rows, t, <p_r> and norm, sized from n_steps and
record_every before the first step; the returned series are its rows.  A
sample's observables are one vdot each: the norm is h <u, u>, and with zero
walls the central-difference <p_r> is Im S_1, S_1 = sum conj(u_j) u_(j+1),
in units of hbar kappa, exactly zero for a real profile.

A step solves only the leading nodes the state occupies: every node where
the sampled |u|^2 is at least eps^2 of its peak (eps the double epsilon,
an amplitude eps times the peak's) and the first node past them.  The
caller passes only that floor, eps^2 times the peak; the stepper finds the
window from it before its first step and widens it as below.  The
factors are those of the full grid; without pivoting the LU of a leading
block is the leading part of the full LU, so sliced factors make the same
Cayley step with its outer wall moved to the window's end, and the nodes
past it hold zeros.  A node below that floor adds under eps^2 of the peak
term to the norm and <p_r> sums, and the moved wall reaches the inner nodes
through A^-1 only by about eps in amplitude, which can still reach an ulp
of a sum: that the recorded doubles stay the same is measured, not proven
(with the step policy's dt, every run of the benchmark's expansion pass
and the CLI outputs compared in CHANGES.md are bit-identical to a full-grid
run).  After every step the stepper reads the window's last node; a step that
lifts its |u|^2 to the floor is redone on the full grid from the values
before it, the new nodes starting from zero, and every later step solves
every node.  So a large explicit dt, one step of which carries the tail past
the window, still takes the full-grid step and meets the reflection check at
the real wall.  The trap states' grids reach 12/kappa past the peak, so their
outer third lies below the floor (u0 D=6 on 4096 points steps 67% of the
nodes); a u2 grid ends 13 decades down in amplitude, above it, so a u2 run
steps every node.

The grid is n_points nodes r_j = (j + 1) h between Dirichlet walls at the
origin and at (n_points + 1) h, so the profile has to vanish at the origin:
u0 at D = 1, a half-Gaussian with u(0) = N0, is rejected.  An outer node
x = kappa r_max past double range raises OverflowError naming kappa and r_max
before numpy samples the grid.  Accuracy, not
stability, sets the time step.  One table names its caps, in the order that
settles a tie: the kinetic phase per step across one cell, fit_window /
MIN_FIT_STEPS (so the slope fit has samples at every D), and the centrifugal
phase per step where |u| has dropped 6 decades below its peak.
default_time_step is their minimum; PropagationResult.dt_cap names the cap
that set a default dt.  The centrifugal potential is enormous at r_min, but
the wave function is void there, and it carries no weight the slope can see
where |u|^2 is below 1e-12 of its peak: a cap taken 12 decades down takes up
to 4 times the steps (u0 at D=6 on 8192 points, u2 at D = 30 to 3000), with
every measured slope the same to 3 digits.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cache
from typing import TYPE_CHECKING, Callable, Iterator, Optional, TextIO

from .core import (
    DomainError,
    HyperDimension,
    PhysicalParams,
    PreconditionError,
    PropagationAborted,
    PropagationError,
    _require_integer,
    _require_positive,
)
from .energy import _check_inverse_moment, _v_q, t_r_closed, t_v_closed
from .specialfn import bessel_k_ratio, gamma_ratio
from .states import ArrayLike, RadialState, StateFamily, _as_positive_radius, _scalar_like, _trap_power

if TYPE_CHECKING:
    import numpy as np

DEFAULT_N_POINTS = 4096
REFLECTION_LIMIT = 1e-8
NORM_DRIFT_LIMIT = 1e-4
MIN_FIT_STEPS = 16  # fewest steps a default run takes, and spends inside fit_window
_WINDOW_FLOOR = sys.float_info.epsilon**2  # |u|^2 / peak below which a node is not stepped


def centrifugal_force(dim: HyperDimension, params: PhysicalParams, r: ArrayLike) -> ArrayLike:
    """Quantum centrifugal force F_Q(r) = -dV_Q/dr = eps kappa s/(2 x^3), in absolute units."""
    x = params.kappa * _as_positive_radius(r)
    return _scalar_like(r, params.epsilon() * params.kappa * _f_q(dim, x))


def _f_q(dim: HyperDimension, x: np.ndarray) -> np.ndarray:
    # F_Q in units of kappa*epsilon, written in x = kappa r
    return dim.strength() / (2.0 * x**3)


def _checked_slope(slope: float, params: PhysicalParams) -> float:
    # factor * eps/hbar is a float product, which returns inf where the slope overflows
    if math.isinf(slope):
        raise OverflowError(f"the Raman-Nath slope overflows at kappa={params.kappa:g} "
                            f"(hbar={params.hbar:g}, mass={params.mass:g})")
    return slope


def raman_nath_slope(state: RadialState) -> float:
    """Initial momentum growth rate d<p_r>/dt at t=0, in units of hbar*kappa per time.

    Computed as the quadrature of F_Q |u|^2 over the state's support, with F_Q in
    units of kappa*eps, s/(2 x^3) in x = kappa r.  By Ehrenfest's theorem this is
    the initial slope of <p_r>(t) whenever u'(0) = 0 (every family at D >= 4).  It
    is the F_Q moment alone and omits the wall term (hbar^2/2M) u'(0)^2 of the
    reduced radial problem, which u0 at D = 3 keeps: its slope reads 0, while the
    free Gaussian expands at (4/sqrt(pi)) eps/hbar.
    """
    if state.dim.strength() == 0:
        return 0.0
    _check_inverse_moment(state.family, state.dim, 3)
    moment = state._expectation_in_x(lambda x: _f_q(state.dim, x)).value
    return _checked_slope(moment * (state.params.epsilon() / state.params.hbar), state.params)


def raman_nath_slope_closed(state: RadialState) -> float:
    """Closed-form Raman-Nath slope, same units as :func:`raman_nath_slope`.

    u0, u1 (r^a exp(-kappa^2 r^2/2)): s / (2 (a-1)) * Gamma(a)/Gamma(a+1/2) * eps/hbar
    u2: s / (2 (beta kappa)^(3/2)) * K2/K1(2 sqrt(beta kappa)) * eps/hbar
    with s = (D-1)(D-3) and a = (D-1)/2 for u0, (D+3)/2 for u1.  Like the
    quadrature, it is the Ehrenfest F_Q moment and omits the wall term
    (hbar^2/2M) u'(0)^2: 0 for u0 at D = 3, whose measured slope is (4/sqrt(pi)) eps/hbar.
    """
    strength = state.dim.strength()
    if strength == 0:
        return 0.0
    _check_inverse_moment(state.family, state.dim, 3)
    eps_over_hbar = state.params.epsilon() / state.params.hbar
    if state.family is StateFamily.U2:
        bk = state.params.beta_kappa
        try:
            bk_three_halves = bk**1.5
        except OverflowError:
            raise OverflowError(f"(beta*kappa)^(3/2) of the u2 slope overflows "
                                f"at beta*kappa={bk:g}") from None
        if bk_three_halves == 0.0:
            raise OverflowError(f"(beta*kappa)^(3/2) of the u2 slope underflows to 0 "
                                f"at beta*kappa={bk:g}; the slope overflows")
        factor = strength / (2.0 * bk_three_halves) * bessel_k_ratio(2.0 * math.sqrt(bk))
        if not math.isfinite(factor):  # float * and / return inf where ** raises
            raise OverflowError(f"s / (2 (beta*kappa)^(3/2)) * K2/K1 of the u2 slope "
                                f"overflows at beta*kappa={bk:g}")
    else:
        a = _trap_power(state.family, state.dim)
        factor = strength / (2.0 * (a - 1.0)) * gamma_ratio(a, a + 0.5)
    return _checked_slope(factor * eps_over_hbar, state.params)


def asymptotic_slope_u0u1(dim: HyperDimension, params: PhysicalParams) -> float:
    """Large-D slope law sqrt(2D) * eps/hbar shared by u0 and u1 (units hbar*kappa/time)."""
    if dim.d < 30:
        raise PreconditionError(f"sqrt(2D) slope law needs D >= 30, got D={dim.d}")
    return _checked_slope(math.sqrt(2.0 * dim.d) * params.epsilon() / params.hbar, params)


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial grid r_j = (j + 1) * spacing, j = 0 .. n_points - 1.

    Its Dirichlet walls sit one spacing outside both ends: at the origin, below
    r_min as the singular centrifugal potential requires, and above r_max.
    """

    n_points: int
    spacing: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_points", _require_integer("n_points", self.n_points, 512))
        _require_positive("spacing", self.spacing)
        if self.r_max == math.inf:  # so every node is positive and finite
            raise DomainError(f"r_max = n_points * spacing must be finite, "
                              f"got {self.n_points} * {self.spacing!r}")

    @property
    def r_min(self) -> float:
        return self.spacing

    @property
    def r_max(self) -> float:
        return self.n_points * self.spacing

    @classmethod
    def uniform(cls, r_outer: float, n_points: int = DEFAULT_N_POINTS) -> "RadialGrid":
        """Interior nodes of [0, r_outer] with walls at 0 and r_outer."""
        return cls(n_points=n_points, spacing=r_outer / (n_points + 1))

    @classmethod
    def for_state(cls, state: RadialState, n_points: int = DEFAULT_N_POINTS) -> "RadialGrid":
        """Default production grid for a state.

        Trap states get peak + 12/kappa (the peak radius itself grows as
        sqrt(D)/kappa); the exponential-tailed u2 gets the radius at which
        its amplitude has dropped 13 decades below peak.
        """
        width = 2.0 * 13.0 * math.log(10.0) if state.family is StateFamily.U2 else 12.0
        return cls.uniform((state._peak_x() + width) / state.params.kappa, n_points)

    def points(self) -> np.ndarray:
        import numpy as np

        return self.r_min + self.spacing * np.arange(self.n_points)


def _time_step_caps(state: RadialState, grid: RadialGrid) -> dict[str, float]:
    # the caps of the default step by name, in the order that names a tie
    params = state.params
    window = fit_window(state)  # names an epsilon out of range before h^2 can overflow
    caps = {
        # kinetic phase hbar dt / (2 M h^2) per step across one cell held at 0.1
        "kinetic": 0.1 * 2.0 * params.mass * grid.spacing**2 / params.hbar,
        f"fit_window/{MIN_FIT_STEPS}": window / MIN_FIT_STEPS,
    }
    if state.dim.strength() != 0:
        x_edge = max(params.kappa * grid.r_min, state._support_x(6.0)[0])
        caps["centrifugal"] = 0.1 * params.hbar / abs(params.epsilon() * _v_q(state.dim, x_edge))
    return caps


def default_time_step(state: RadialState, grid: RadialGrid) -> float:
    """Accuracy-driven time step for the Crank-Nicolson propagator.

    Caps the kinetic phase per step across one grid cell at 0.1, the
    centrifugal phase per step at 0.1 evaluated at the inner edge of the
    state's 6-decade support (where the amplitude is 1e-6 of peak), and the
    step at fit_window(state) / MIN_FIT_STEPS, so every D has samples to fit.
    """
    return min(_time_step_caps(state, grid).values())


def linearity_window(state: RadialState) -> float:
    """Time span over which <p_r>(t) stays within ~5% of slope * t.

    min(0.05 hbar/eps, 0.15 hbar/T): the first bound covers the trap
    states, whose curvature time is hbar/eps; the energy-scaled bound
    takes over for u2, whose stored energy T ~ D^2 eps makes the bend
    correspondingly earlier.  For u2, T takes 2 eps/(beta kappa)^2 more: at small
    beta kappa the force F_Q ~ r^-3 at the inner edge r ~ beta bends <p_r> first.
    """
    params = state.params
    t_eps = 0.05 * params.hbar / params.epsilon()
    try:
        total_eps = t_r_closed(state.family, state.dim, params) + t_v_closed(
            state.family, state.dim, params
        )
    except DomainError:
        return t_eps
    if state.family is StateFamily.U2:
        total_eps += 2.0 / params.beta_kappa / params.beta_kappa
    total_abs = abs(total_eps) * params.epsilon()
    if total_abs == 0.0:
        return t_eps
    return min(t_eps, 0.15 * params.hbar / total_abs)


def fit_window(state: RadialState) -> float:
    """Window for the initial-slope fit: the first 5% of the linearity window."""
    return 0.05 * linearity_window(state)


@dataclass
class PropagationResult:
    """Time series of one free-expansion run.

    times, p_r_mean and norm are the rows of one float64 record, with a sample
    at t = 0, at every record_every-th step and at the last step.
    p_r_mean is in units of hbar*kappa; times are in natural units
    (hbar = M = kappa = 1 by default).  analytic_slope is the closed-form
    Raman-Nath slope when one exists, NaN otherwise.  dt_cap names what set
    dt: the cap of :func:`default_time_step` that bound ("kinetic",
    "centrifugal" or "fit_window/16"), or "given" when the caller passed dt.
    """

    times: np.ndarray
    p_r_mean: np.ndarray
    norm: np.ndarray
    analytic_slope: float
    grid: RadialGrid
    dt: float
    dt_cap: str

    def measured_slope(self, window: Optional[float] = None) -> float:
        """Initial slope from a least-squares fit of p(t) = s t + c t^3.

        The cubic term absorbs the leading curvature of the exact signal
        (odd in t for a real initial state), which a straight-line fit
        would alias into the slope.
        """
        import numpy as np

        t, p = self.times, self.p_r_mean
        if window is not None:
            keep = t <= window
            t, p = t[keep], p[keep]
        if np.count_nonzero(t > 0) < 4:
            raise PreconditionError("need at least 4 non-zero-time samples to fit a slope")
        scale = t[-1]
        basis = np.column_stack([t / scale, (t / scale) ** 3])
        coeffs, *_ = np.linalg.lstsq(basis, p, rcond=None)
        return float(coeffs[0] / scale)

    def to_csv(self, stream: TextIO) -> None:
        """Write `t,p_r_mean,norm` rows with a units header row."""
        stream.write("t,p_r_mean,norm\n")
        stream.write("natural,hbar*kappa,dimensionless\n")
        for t, p, n in zip(self.times, self.p_r_mean, self.norm):
            stream.write(f"{t:.12g},{p:.12g},{n:.12g}\n")


@cache
def _tridiagonal_lapack() -> tuple[Callable, Callable]:
    """LAPACK zgttrf/ztbtrs, loaded from scipy's compiled _flapack module.

    zgttrf LU-factors the Crank-Nicolson matrix once; ztbtrs makes the two
    unit-diagonal bidiagonal solves of each step.  Loading the extension
    directly skips scipy/linalg/__init__.py, whose imports cost about 0.3 s
    and 26 MB per process, and locating the scipy package with find_spec
    skips scipy/__init__.py (about 15 ms).  CPython caches an extension
    module per file and name, so these are the same objects that
    scipy.linalg.get_lapack_funcs(("gttrf", "tbtrs")) returns for complex128.
    """
    import os
    from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
    from importlib.util import find_spec, module_from_spec

    name = "scipy.linalg._flapack"
    scipy_spec = find_spec("scipy")
    if scipy_spec is None:
        raise ImportError("scipy not found", name="scipy")
    finder = FileFinder(os.path.join(scipy_spec.submodule_search_locations[0], "linalg"),
                        (ExtensionFileLoader, EXTENSION_SUFFIXES))
    spec = finder.find_spec(name)
    if spec is None:
        raise ImportError(f"{name} not found under {finder.path}", name=name)
    flapack = module_from_spec(spec)
    spec.loader.exec_module(flapack)
    return flapack.zgttrf, flapack.ztbtrs


def _initial_profile(state: RadialState, x: np.ndarray, h: float) -> tuple[np.ndarray, float]:
    """u_x on the nodes x of spacing h, normalized to h sum |u|^2 = 1, and its peak |u|^2;
    PreconditionError when it underflows or overflows there or the grid does not contain or
    resolve it.  The stepper finds its solve window from the floor _WINDOW_FLOOR * peak."""
    import numpy as np

    with np.errstate(over="ignore"):  # an overflow is reported by the norm check below
        u = np.asarray(np.exp(state._log_u_x(x)), dtype=np.complex128)
        norm_sum = float(np.sum(np.abs(u) ** 2))
    if not 0 < norm_sum < math.inf:
        raise PreconditionError(
            f"the {state.family.value} profile at D={state.dim.d}, "
            f"beta*kappa={state.params.beta_kappa:g} "
            f"{'underflows' if norm_sum == 0 else 'overflows'} on the grid: "
            f"|u|^2 sums to {norm_sum:g} over its {x.size} nodes"
        )
    u /= math.sqrt(norm_sum * h)
    density = np.abs(u) ** 2
    peak = float(density.max())
    if density[-1] > 1e-24 * peak:  # amplitude 1e-12 of peak
        raise PreconditionError(
            "grid does not contain the state: |u| at r_max exceeds 1e-12 of peak; "
            "increase r_max"
        )
    if int(np.count_nonzero(density >= 0.5 * peak)) < 20:
        raise PreconditionError(
            "grid under-resolves the state: fewer than 20 points across the "
            "|u|^2 peak at half maximum"
        )
    return u, peak


def _cayley_steps(u: np.ndarray, v: np.ndarray, h: float, dtau: float, n_steps: int,
                  floor: float) -> Iterator[tuple[int, np.ndarray]]:
    """Cayley steps of u under H_h = -Delta_h + v (spacing h, step dtau), yielding (step, u[:window])
    for step 0 .. n_steps.  The state alternates between u and one buffer, so a view holds its step
    until the next is made.  A step solves only the window, the leading nodes up to the first one
    past the last where |u|^2 >= floor, the rest held at zero; one that lifts the window's last
    node to |u|^2 >= floor is redone on every node, and so is every later step."""
    import numpy as np

    # the window is found before the band is made, so its scratch does not add to the setup's peak
    c, n = 1.0 / h**2, u.size
    window = min(n + 1 - int(np.argmax(np.abs(u[::-1]) ** 2 >= floor)), n)
    # B = 1 - alpha H_h = 2 - A, alpha = i dtau / 2, so A^-1 B u = y - u with (A/2) y = u.
    # A/2 = L U is factored once (LAPACK zgttrf) without row interchanges: its diagonal
    # 2c + v is at least 1.75 c (v attractive at D = 2), its off-diagonal c = 1/h^2.  With
    # U = D U1 and L1 = D^-1 L D, each step solves L1 U1 y = u / d by two in-place
    # unit-diagonal banded solves (LAPACK ztbtrs, kd = 1).  One LAPACK band (ldab = 2,
    # column-major) holds both unit factors: row 0 the U1 superdiagonal, which uplo="U"
    # reads, row 1 the L1 subdiagonal, which uplo="L" reads.  Each row is the other
    # factor's diagonal, never read under diag="U".  Until zgttrf has copied them, its
    # rows hold the diagonal 0.5 + 0.5 alpha (2c + v) and off-diagonal of A/2
    band = np.zeros((2, n), dtype=np.complex128, order="F")
    dd, off = band[0], band[1, :-1]
    np.add(2.0 * c, v, out=dd)
    alpha = 1j * dtau / 2.0
    np.multiply(0.5 * alpha, dd, out=dd)
    np.add(0.5, dd, out=dd)
    off.fill(0.5 * alpha * -c)
    gttrf, tbtrs = _tridiagonal_lapack()
    dl_f, d_f, du_f, du2_f, ipiv, info = gttrf(off, dd, off)
    if info != 0:
        raise PropagationError(f"tridiagonal factorization failed (LAPACK info={info})")
    if not np.array_equal(ipiv, np.arange(1, n + 1, dtype=ipiv.dtype)) or du2_f.any():
        raise PropagationError("tridiagonal factorization interchanged rows; the "
                               "Crank-Nicolson step needs a pivot-free LU")
    np.divide(du_f, d_f[:-1], out=band[0, 1:])
    np.multiply(dl_f, d_f[:-1], out=band[1, :-1])
    np.divide(band[1, :-1], d_f[1:], out=band[1, :-1])
    dinv = np.divide(1.0, d_f, out=d_f)
    del dl_f, du_f, du2_f, ipiv  # of the setup a run keeps only the band and 1/d

    # Nodes past the window hold zeros in u and y, so a step solves the leading rows of the
    # factors: without pivoting that is the same Cayley step with its wall moved to the window's end
    u[window:] = 0.0
    y = np.zeros_like(u)
    yield 0, u[:window]
    for step in range(1, n_steps + 1):
        for k in (window, n):
            # y[:k] = A^-1 B u[:k] with the Dirichlet wall at node k
            y_k = np.multiply(u[:k], dinv[:k], out=y[:k])
            for uplo in "LU":
                y_k, info = tbtrs(band[:, :k], y_k, uplo=uplo, diag="U", overwrite_b=1)
                if info != 0:
                    raise PropagationError(f"banded solve failed at step {step} (info={info})")
            np.subtract(y_k, u[:k], out=y[:k])
            if k == n or abs(y[k - 1]) ** 2 < floor:
                break
        window = k
        u, y = y, u
        yield step, u[:window]


def propagate_free(
    state: RadialState,
    grid: Optional[RadialGrid] = None,
    dt: Optional[float] = None,
    n_steps: Optional[int] = None,
    *,
    record_every: int = 1,
    progress: Optional[Callable[[int, int], bool]] = None,
    progress_every: int = 256,
) -> PropagationResult:
    """Propagate a state through trap switch-off and record <p_r>(t).

    Parameters
    ----------
    state : RadialState
        Real, normalized initial profile.
    grid : RadialGrid, optional
        Defaults to ``RadialGrid.for_state(state)``.
    dt : float, optional
        Defaults to :func:`default_time_step`, at most fit_window /
        MIN_FIT_STEPS; the scheme is stable for any dt.
    n_steps : int, optional
        Defaults to enough steps to cover :func:`fit_window`, at least
        MIN_FIT_STEPS.
    record_every : int
        Sampling stride for the returned time series, which also holds t = 0
        and the last step.
    progress : callable, optional
        Polled every ``progress_every`` steps with (step, n_steps); return
        False to abort the run (raises PropagationAborted).

    Raises
    ------
    PreconditionError
        When the profile does not vanish at the origin (u0 at D = 1), where the
        grid puts its inner Dirichlet wall, or, before dt is set, when |u|^2 under-
        or overflows on the grid or the grid does not contain or resolve the state.
    OverflowError
        When kappa r_max, epsilon or the step's coefficients dt H / (2 hbar) leave double
        range.
    PropagationError
        On norm drift beyond NORM_DRIFT_LIMIT (1e-4) or when |u|^2 at the
        outer wall exceeds REFLECTION_LIMIT (1e-8) of its initial peak
        (reflection would corrupt the signal).
    """
    import numpy as np

    if state._peak_x() == 0.0:
        raise PreconditionError(
            f"{state.family.value} at D={state.dim.d} does not vanish at the origin, "
            "where the propagator holds u = 0 at its inner wall"
        )
    if grid is None:
        grid = RadialGrid.for_state(state)
    params = state.params
    if params.kappa * grid.r_max == math.inf:  # a float product, checked before numpy would warn
        raise OverflowError(f"the outer node x = kappa*r_max overflows at kappa={params.kappa:g}, "
                            f"r_max={grid.r_max:g}")
    x, h = params.kappa * grid.points(), params.kappa * grid.spacing
    u, peak_density = _initial_profile(state, x, h)
    if dt is None:
        caps = _time_step_caps(state, grid)
        dt_cap = min(caps, key=caps.get)
        dt = caps[dt_cap]
    else:
        dt_cap = "given"
    _require_positive("dt", dt)
    if n_steps is None:
        n_steps = max(int(math.ceil(fit_window(state) / dt)), MIN_FIT_STEPS)
    _require_integer("n_steps", n_steps, 1)
    _require_integer("record_every", record_every, 1)
    _require_integer("progress_every", progress_every, 1)

    v, dtau = _v_q(state.dim, x), params.epsilon() * dt / params.hbar
    if not 0.25 * dtau * (2.0 / h**2 + float(v.max())) < math.inf:
        raise OverflowError(f"the Crank-Nicolson coefficients dt H/(2 hbar) overflow at dt={dt:g}, "
                            f"kappa={params.kappa:g} (hbar={params.hbar:g}, mass={params.mass:g})")
    # One float64 record whose rows are the returned series, with a sample at t = 0, at
    # every record_every-th step and at the last step
    n_samples = 1 + n_steps // record_every + (n_steps % record_every != 0)
    for step, w in _cayley_steps(u, v, h, dtau, n_steps, _WINDOW_FLOOR * peak_density):
        if step == 0:  # made once the factor setup has freed its scratch, so the peaks do not add
            times, p_r_mean, norm = np.empty((3, n_samples))
        if progress is not None and step and step % progress_every == 0:
            if progress(step, n_steps) is False:
                raise PropagationAborted(f"aborted by progress hook at step {step}/{n_steps}")
        if step % record_every == 0 or step == n_steps:
            i, t = -(-step // record_every), step * dt  # sample i, the last one after a partial stride
            # Central-difference d/dx between zero walls: sum conj(u_j) (u_{j+1} - u_{j-1}) is
            # S - conj(S) with S = sum conj(u_j) u_{j+1}, so <p_r> is Im S in units of hbar kappa,
            # exactly zero for a real profile
            times[i], p_r_mean[i], norm[i] = t, np.vdot(w[:-1], w[1:]).imag, np.vdot(w, w).real * h
            if abs(norm[i] - norm[0]) > NORM_DRIFT_LIMIT:
                raise PropagationError(
                    f"norm drifted to {norm[i]:.12f} at t={t:.6g} "
                    f"(limit {NORM_DRIFT_LIMIT:g}); the run is untrustworthy"
                )
            # w[-1] is the outer wall's neighbour once the window spans the grid, and below the
            # window floor before, far under the reflection limit
            if abs(w[-1]) ** 2 > REFLECTION_LIMIT * peak_density:
                raise PropagationError(
                    f"boundary reflection detected at t={t:.6g}: |u|^2 at r_max is "
                    f"{abs(w[-1])**2 / peak_density:.3e} of peak (limit {REFLECTION_LIMIT:g}); "
                    "enlarge r_max"
                )

    try:
        analytic = raman_nath_slope_closed(state)
    except DomainError:
        analytic = math.nan

    return PropagationResult(
        times=times,
        p_r_mean=p_r_mean,
        norm=norm,
        analytic_slope=analytic,
        grid=grid,
        dt=dt,
        dt_cap=dt_cap,
    )


def bohm_quantum_potential(state: RadialState, r: ArrayLike) -> ArrayLike:
    """State-dependent potential W(r) = -(hbar^2/2M) u''(r)/u(r) = -eps c(x), x = kappa r.

    Enters the short-time phase but drops out of <p_r> for real initial
    profiles that vanish at the origin.
    """
    x = state.params.kappa * _as_positive_radius(r)
    return _scalar_like(r, -state.params.epsilon() * state._curvature(x))


def short_time_phase_state(state: RadialState, t: float, r: ArrayLike) -> np.ndarray:
    """Raman-Nath-regime amplitude u(r, t) ~ exp(-i [W(r) + V_Q(r)] t / hbar) u(r, 0).

    A pure phase: |u(r, t)| = |u(r, 0)| exactly.  Points where the initial
    amplitude is below 1e-12 of peak are returned as zero (W is undefined
    where u vanishes).  Requires a finite t with |[W + V_Q] t / hbar| <= 0.5
    at the peak.
    """
    import numpy as np

    arr = _as_positive_radius(r)
    if not math.isfinite(t):
        raise DomainError(f"t must be finite, got {t!r}")
    kappa, rate = state.params.kappa, state.params.epsilon() / state.params.hbar
    x = kappa * arr
    # the peak, or the support's inner edge for u0 at D = 1, is positive
    x_peak = np.asarray(state._peak_x() or state._support_x()[0])
    # [W + V_Q] / hbar = (eps/hbar) (s/(4 x^2) - c(x))
    phase_scale = abs(float(rate * (_v_q(state.dim, x_peak) - state._curvature(x_peak))) * t)
    if phase_scale > 0.5:
        raise PreconditionError(
            f"short-time approximation invalid: |[W+V_Q] t/hbar| = {phase_scale:.3g} > 0.5 at the peak"
        )
    log_u_x = state._log_u_x(x)
    mask = log_u_x > float(state._log_u_x(x_peak)) + math.log(1e-12)
    amplitude = np.where(mask, np.exp(0.5 * math.log(kappa) + log_u_x), 0.0)
    phase = np.where(mask, -rate * (_v_q(state.dim, x) - state._curvature(x)) * t, 0.0)
    return amplitude * np.exp(1j * phase)
