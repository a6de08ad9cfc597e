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
The Cayley form A u_new = B u, A = 1 + i dt H / 2 hbar, B = 1 - i dt H / 2 hbar,
with a 3-point Laplacian is unconditionally stable and exactly unitary in
the discrete l2 norm, so norm drift measures only solver round-off (about
2e-13 per 1e4 steps).  Since B = 2 - A, each step solves the constant
tridiagonal system (A/2) y = u, LU-factored once, and sets u_new = y - u
(Goldberg, Schey & Schwartz, Am. J. Phys. 35, 177 (1967)).  The diagonal of
A/2 outweighs its off-diagonal, so the LU factors (LAPACK zgttrf) need no row
interchange, and a factorization that made one raises PropagationError.
Writing U = D U1 and L1 = D^-1 L D, a step scales u by 1/d and makes two
unit-diagonal bidiagonal solves in place (LAPACK ztbtrs), with no pivot test
or division per row.  The observables are one vdot each: the norm is
h * <u, u>, and with zero walls the central-difference <p_r> is
hbar Im sum conj(u_j) u_(j+1), which is exactly zero for a real profile.
Both routines are loaded once per process by _tridiagonal_lapack, straight
from scipy's _flapack extension: neither the scipy package nor scipy.linalg
is imported.

A step solves only the leading nodes the state occupies: every node where
the sampled |u|^2 is at least eps^2 of its peak (eps the double epsilon,
an amplitude eps times the peak's) and the first node past them.  The
factors are those of the full grid; without pivoting the LU of a leading
block is the leading part of the full LU, so sliced factors make the same
Cayley step with its outer wall moved to the window's end, and the nodes
past it hold zeros.  A node below that floor adds under eps^2 of the peak
term to the norm and <p_r> sums, and the moved wall reaches the inner nodes
through A^-1 only by about eps in amplitude, which can still reach an ulp
of a sum: that the recorded doubles stay the same is measured, not proven
(with the step policy's dt, every run of the benchmark's expansion pass
and the CLI outputs compared in CHANGES.md are bit-identical to a full-grid
run).  After every step the run reads the window's last node; a step that
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
u0 at D = 1, a half-Gaussian with u(0) = N0, is rejected.  Accuracy, not
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
from typing import TYPE_CHECKING, Callable, Optional, TextIO

from .core import (
    DivergentIntegralError,
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
    """Quantum centrifugal force F_Q(r) = -dV_Q/dr, in absolute units."""
    return _scalar_like(r, _centrifugal_force(dim, params, _as_positive_radius(r)))


def _centrifugal_force(dim: HyperDimension, params: PhysicalParams, arr: np.ndarray) -> np.ndarray:
    return params.hbar**2 / (2.0 * params.mass) * dim.strength() / (2.0 * arr**3)


def raman_nath_slope(state: RadialState) -> float:
    """Initial momentum growth rate d<p_r>/dt at t=0, in units of hbar*kappa per time.

    Computed as the quadrature of F_Q |u|^2 over the state's support; by
    Ehrenfest's theorem this equals the initial slope of <p_r>(t) whenever
    the profile vanishes fast enough at the origin (all families at D >= 4).
    F_Q is integrated in units of kappa*eps, where the absolute tolerance holds.
    """
    if state.dim.strength() == 0:
        return 0.0
    _check_inverse_moment(state, 3)
    params = state.params
    unit = params.kappa * params.epsilon()
    moment = state.expectation(lambda r: _centrifugal_force(state.dim, params, r) / unit).value
    return moment * (params.epsilon() / params.hbar)


def raman_nath_slope_closed(state: RadialState) -> float:
    """Closed-form Raman-Nath slope, same units as :func:`raman_nath_slope`.

    u0, u1 (r^a exp(-kappa^2 r^2/2)): s / (2 (a-1)) * Gamma(a)/Gamma(a+1/2) * eps/hbar
    u2: s / (2 (beta kappa)^(3/2)) * K2/K1(2 sqrt(beta kappa)) * eps/hbar
    with s = (D-1)(D-3) and a = (D-1)/2 for u0, (D+3)/2 for u1.
    """
    strength = state.dim.strength()
    if strength == 0:
        return 0.0
    _check_inverse_moment(state, 3)
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
    return factor * eps_over_hbar


def asymptotic_slope_u0u1(dim: HyperDimension, params: PhysicalParams) -> float:
    """Large-D slope law sqrt(2D) * eps/hbar shared by u0 and u1 (units hbar*kappa/time)."""
    if dim.d < 30:
        raise PreconditionError(f"sqrt(2D) slope law needs D >= 30, got D={dim.d}")
    return math.sqrt(2.0 * dim.d) * params.epsilon() / params.hbar


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
        kappa = state.params.kappa
        if state.family is StateFamily.U2:
            r_outer = state.peak_radius() + 2.0 * 13.0 * math.log(10.0) / kappa
        else:
            r_outer = state.peak_radius() + 12.0 / kappa
        return cls.uniform(r_outer, n_points)

    def points(self) -> np.ndarray:
        import numpy as np

        return self.r_min + self.spacing * np.arange(self.n_points)


def _time_step_caps(state: RadialState, grid: RadialGrid) -> dict[str, float]:
    # the caps of the default step by name, in the order that names a tie
    import numpy as np

    params = state.params
    window = fit_window(state)  # names an epsilon out of range before h^2 can overflow
    caps = {
        # kinetic phase hbar dt / (2 M h^2) per step across one cell held at 0.1
        "kinetic": 0.1 * 2.0 * params.mass * grid.spacing**2 / params.hbar,
        f"fit_window/{MIN_FIT_STEPS}": window / MIN_FIT_STEPS,
    }
    if state.dim.strength() != 0:
        r_edge = np.asarray(max(grid.r_min, state.support(drop_decades=6.0)[0]))
        caps["centrifugal"] = 0.1 * params.hbar / abs(float(_v_q(state.dim, params, r_edge)))
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


def _initial_profile(state: RadialState, r: np.ndarray, h: float) -> tuple[np.ndarray, float, int]:
    """The state on the nodes r, normalized on the grid, its peak |u|^2 and its window end;
    PreconditionError when it underflows or overflows there or the grid does not contain or
    resolve it.  The window is the leading nodes up to the first one past the last where
    |u|^2 >= _WINDOW_FLOOR * peak; that first node past is the one the run watches."""
    import numpy as np

    with np.errstate(over="ignore"):  # an overflow is reported by the norm check below
        u = np.asarray(np.exp(state._log_u(r)), dtype=np.complex128)
        norm_sum = float(np.sum(np.abs(u) ** 2))
    if not 0 < norm_sum < math.inf:
        raise PreconditionError(
            f"the {state.family.value} profile at D={state.dim.d}, "
            f"beta*kappa={state.params.beta_kappa:g} "
            f"{'underflows' if norm_sum == 0 else 'overflows'} on the grid: "
            f"|u|^2 sums to {norm_sum:g} over its {r.size} nodes"
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
    past_last = r.size - int(np.argmax(density[::-1] >= _WINDOW_FLOOR * peak))
    return u, peak, min(past_last + 1, r.size)


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
        Sampling stride for the returned time series.
    progress : callable, optional
        Polled every ``progress_every`` steps with (step, n_steps); return
        False to abort the run (raises PropagationAborted).

    Raises
    ------
    PreconditionError
        When the profile does not vanish at the origin (u0 at D = 1), where the
        grid puts its inner Dirichlet wall, or, before dt is set, when |u|^2 under-
        or overflows on the grid or the grid does not contain or resolve the state.
    PropagationError
        On norm drift beyond NORM_DRIFT_LIMIT (1e-4) or when |u|^2 at the
        outer wall exceeds REFLECTION_LIMIT (1e-8) of its initial peak
        (reflection would corrupt the signal).
    """
    import numpy as np

    if state.family is not StateFamily.U2 and _trap_power(state.family, state.dim) == 0.0:
        raise PreconditionError(
            f"{state.family.value} at D={state.dim.d} does not vanish at the origin, "
            "where the propagator holds u = 0 at its inner wall"
        )
    if grid is None:
        grid = RadialGrid.for_state(state)
    r, h, n = grid.points(), grid.spacing, grid.n_points
    u, peak_density, m = _initial_profile(state, r, h)
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

    params = state.params
    hbar, mass, kappa = params.hbar, params.mass, params.kappa
    try:
        kinetic = hbar**2 / (2.0 * mass * h**2)
    except ArithmeticError:  # h**2 overflows (h > 1) or underflows to 0
        kinetic = 0.0 if h > 1.0 else math.inf
    if not 0.0 < kinetic < math.inf:
        raise OverflowError(f"the kinetic coupling hbar^2/(2 M h^2) "
                            f"{'underflows' if h > 1.0 else 'overflows'} at spacing "
                            f"h={h:g}, kappa={kappa:g} (hbar={hbar:g}, mass={mass:g})")
    potential = _v_q(state.dim, params, r)
    h_diag = 2.0 * kinetic + potential
    h_off = -kinetic

    alpha = 1j * dt / (2.0 * hbar)
    # B = 1 - alpha H = 2 - A, so A^-1 B u = y - u with (A/2) y = u.  A/2 = L U is
    # factored once (LAPACK zgttrf) without row interchanges: its diagonal 2K + V_Q is
    # at least 1.75 K (V_Q attractive at D = 2), its off-diagonal K.  With U = D U1 and
    # L1 = D^-1 L D, each step solves L1 U1 y = u / d by two in-place unit-diagonal
    # banded solves (LAPACK ztbtrs, kd = 1)
    dl = np.full(n - 1, 0.5 * alpha * h_off, dtype=np.complex128)
    dd = 0.5 + 0.5 * alpha * h_diag.astype(np.complex128)
    du = dl.copy()
    gttrf, tbtrs = _tridiagonal_lapack()
    dl_f, d_f, du_f, du2_f, ipiv, info = gttrf(dl, dd, du)
    if info != 0:
        raise PropagationError(f"tridiagonal factorization failed (LAPACK info={info})")
    if not np.array_equal(ipiv, np.arange(1, n + 1)) or du2_f.any():
        raise PropagationError("tridiagonal factorization interchanged rows; the "
                               "Crank-Nicolson step needs a pivot-free LU")
    dinv = 1.0 / d_f
    # LAPACK band storage (ldab = 2, column-major): the unit diagonal is never read
    lower = np.ones((2, n), dtype=np.complex128, order="F")
    lower[1, :-1] = dl_f * d_f[:-1] / d_f[1:]
    upper = np.ones((2, n), dtype=np.complex128, order="F")
    upper[0, 1:] = du_f / d_f[:-1]

    def p_r_mean(vec: np.ndarray) -> float:
        # central-difference d/dr between zero walls: sum conj(u_j)(u_{j+1} - u_{j-1})
        # is S - conj(S) with S = sum conj(u_j) u_{j+1}, so a real profile gives exactly zero
        return np.vdot(vec[:-1], vec[1:]).imag / kappa

    def norm_of(vec: np.ndarray) -> float:
        return np.vdot(vec, vec).real * h

    # Nodes past the window hold zeros in u and y, so a step solves the leading m rows of
    # the factors: without pivoting that is the same Cayley step with its wall moved to
    # node m.  A step that lifts the watched node m - 1 to the floor is redone on every node.
    floor = _WINDOW_FLOOR * peak_density
    u[m:] = 0.0
    y = np.zeros_like(u)

    def cayley_step(k: int, step: int) -> None:
        # y[:k] = A^-1 B u[:k] with the Dirichlet wall at node k
        y_k = np.multiply(u[:k], dinv[:k], out=y[:k])
        for uplo, band in (("L", lower), ("U", upper)):
            y_k, info = tbtrs(band[:, :k], y_k, uplo=uplo, diag="U", overwrite_b=1)
            if info != 0:
                raise PropagationError(f"banded solve failed at step {step} (info={info})")
        np.subtract(y_k, u[:k], out=y[:k])

    times = [0.0]
    momenta = [p_r_mean(u[:m])]
    norms = [norm_of(u[:m])]

    for step in range(1, n_steps + 1):
        cayley_step(m, step)
        if m < n and abs(y[m - 1]) ** 2 >= floor:
            m = n
            cayley_step(m, step)
        u, y = y, u
        if progress is not None and step % progress_every == 0:
            if progress(step, n_steps) is False:
                raise PropagationAborted(f"aborted by progress hook at step {step}/{n_steps}")
        if step % record_every == 0 or step == n_steps:
            t = step * dt
            current_norm = norm_of(u[:m])
            times.append(t)
            momenta.append(p_r_mean(u[:m]))
            norms.append(current_norm)
            if abs(current_norm - norms[0]) > NORM_DRIFT_LIMIT:
                raise PropagationError(
                    f"norm drifted to {current_norm:.12f} at t={t:.6g} "
                    f"(limit {NORM_DRIFT_LIMIT:g}); the run is untrustworthy"
                )
            if abs(u[-1]) ** 2 > REFLECTION_LIMIT * peak_density:
                raise PropagationError(
                    f"boundary reflection detected at t={t:.6g}: |u|^2 at r_max is "
                    f"{abs(u[-1])**2 / peak_density:.3e} of peak (limit {REFLECTION_LIMIT:g}); "
                    "enlarge r_max"
                )

    try:
        analytic = raman_nath_slope_closed(state)
    except (DomainError, DivergentIntegralError):
        analytic = math.nan

    return PropagationResult(
        times=np.asarray(times),
        p_r_mean=np.asarray(momenta),
        norm=np.asarray(norms),
        analytic_slope=analytic,
        grid=grid,
        dt=dt,
        dt_cap=dt_cap,
    )


def bohm_quantum_potential(state: RadialState, r: ArrayLike) -> ArrayLike:
    """State-dependent potential W(r) = -(hbar^2/2M) u''(r)/u(r).

    Enters the short-time phase but drops out of <p_r> for real initial
    profiles that vanish at the origin.
    """
    return _scalar_like(r, _bohm_quantum_potential(state, _as_positive_radius(r)))


def _bohm_quantum_potential(state: RadialState, arr: np.ndarray) -> np.ndarray:
    return -state.params.hbar**2 / (2.0 * state.params.mass) * state._u_second_over_u(arr)


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
    params = state.params
    # the peak radius, or the support's inner edge for u0 at D = 1, is positive
    r_peak = np.asarray(state.peak_radius() or state.support()[0])
    phase_scale = abs(
        float(_bohm_quantum_potential(state, r_peak))
        + float(_v_q(state.dim, params, r_peak))
    ) * abs(t) / params.hbar
    if phase_scale > 0.5:
        raise PreconditionError(
            f"short-time approximation invalid: |[W+V_Q] t/hbar| = {phase_scale:.3g} > 0.5 at the peak"
        )
    log_u = state._log_u(arr)
    mask = log_u > float(state._log_u(r_peak)) + math.log(1e-12)
    amplitude = np.where(mask, np.exp(log_u), 0.0)
    phase = np.where(mask, -(_bohm_quantum_potential(state, arr) + _v_q(state.dim, params, arr))
                     * t / params.hbar, 0.0)
    return amplitude * np.exp(1j * phase)
