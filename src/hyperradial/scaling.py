"""Scaling-law analyses: how energies and momentum slopes grow with N.

Each table sweeps the particle number N (always with D = 3N, both columns
carried to rule out the 3x bookkeeping slip), evaluates a closed-form
quantity per row and fits an exponent by ordinary least squares on
(log N, log value).  Headline behaviors: total kinetic energy is linear
in N for the trap states but quadratic for the dimension-free profile;
the momentum slope grows as sqrt(N) for the trap states and as N^2 for
the dimension-free profile.  The filled-trap fermion ladder provides the
classic N^2 reference point.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, TextIO

from .core import DomainError, HyperDimension, PhysicalParams, _require_integer
from .dynamics import raman_nath_slope_closed
from .energy import t_r_closed, t_v_closed
from .states import RadialState, StateFamily

if TYPE_CHECKING:
    import numpy as np

MIN_FIT_ROWS = 10


def __getattr__(name: str):
    # bench/tracer.py counts pool starts through this name; looked up, never started
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def fit_power_law(n_values: Sequence[float], values: Sequence[float]) -> tuple[float, float]:
    """OLS exponent and its standard error from a log-log fit (no weighting).

    Every sum is a correctly rounded math.fsum, so the result does not
    depend on the order of the rows.  A column constant in N fits exactly
    (0.0, 0.0) rather than to round-off in the centred logs.
    """
    ns = [float(n) for n in n_values]
    ys = [float(v) for v in values]
    if len(ns) != len(ys):
        raise DomainError(f"power-law fit needs one value per N, "
                          f"got {len(ns)} N and {len(ys)} values")
    if not all(0 < v < math.inf for v in ns + ys):  # also rejects NaN and inf
        raise DomainError("power-law fit requires strictly positive, finite N and values")
    if len(ns) < 3:
        raise DomainError("power-law fit needs at least 3 rows")
    if min(ns) == max(ns):
        raise DomainError("power-law fit needs at least two distinct N values")
    if min(ys) == max(ys):
        return 0.0, 0.0
    x = [math.log(n) for n in ns]
    y = [math.log(v) for v in ys]
    x_mean, y_mean = math.fsum(x) / len(x), math.fsum(y) / len(y)
    dx = [xi - x_mean for xi in x]
    dy = [yi - y_mean for yi in y]
    sxx = math.fsum(d * d for d in dx)
    slope = math.fsum(a * b for a, b in zip(dx, dy)) / sxx
    sse = math.fsum((b - slope * a) ** 2 for a, b in zip(dx, dy))
    return slope, math.sqrt(sse / (len(x) - 2) / sxx)


@dataclass(frozen=True)
class ScalingRow:
    n: int
    d: int
    value: float
    units: str


@dataclass(frozen=True)
class ScalingTable:
    """Rows of (N, D, value) plus the fitted power-law exponent."""

    rows: tuple[ScalingRow, ...]
    fit_exponent: float
    fit_error: float
    quantity: str
    family: Optional[StateFamily] = None

    def __post_init__(self) -> None:
        for row in self.rows:
            if row.d != 3 * row.n:
                raise DomainError(f"row N={row.n} carries D={row.d}, expected D=3N")

    @property
    def n_values(self) -> np.ndarray:
        import numpy as np

        return np.array([row.n for row in self.rows])

    @property
    def values(self) -> np.ndarray:
        import numpy as np

        return np.array([row.value for row in self.rows])

    def to_csv(self, stream: TextIO) -> None:
        stream.write("N,D,value,units\n")
        for row in self.rows:
            stream.write(f"{row.n},{row.d},{row.value:.12g},{row.units}\n")

    def to_json(self, stream: TextIO) -> None:
        payload = {
            "quantity": self.quantity,
            "family": self.family.value if self.family else None,
            "fit_exponent": self.fit_exponent,
            "fit_error": self.fit_error,
            "rows": [
                {"N": row.n, "D": row.d, "value": row.value, "units": row.units}
                for row in self.rows
            ],
        }
        json.dump(payload, stream, indent=2, sort_keys=True)
        stream.write("\n")


def _build_table(
    n_values: Iterable[int],
    values: Sequence[float],
    units: str,
    quantity: str,
    family: Optional[StateFamily],
) -> ScalingTable:
    ns = list(n_values)
    if len(ns) < MIN_FIT_ROWS:
        raise DomainError(f"scaling fits need at least {MIN_FIT_ROWS} rows, got {len(ns)}")
    exponent, err = fit_power_law(ns, values)
    rows = tuple(ScalingRow(n=n, d=3 * n, value=v, units=units) for n, v in zip(ns, values))
    return ScalingTable(rows=rows, fit_exponent=exponent, fit_error=err,
                        quantity=quantity, family=family)


@dataclass(frozen=True)
class FermionTrapEnergy:
    """Ground-ladder energy of N trapped fermions, summed and in closed form."""

    summed: float
    closed: float

    @property
    def value(self) -> float:
        return self.closed


def fermion_trap_energy(n: int, params: PhysicalParams) -> FermionTrapEnergy:
    """Total energy of N fermions filling the first N oscillator levels.

    sum_{j=0}^{N-1} (j + 1/2) hbar Omega = N^2 hbar Omega / 2; both forms
    are returned and are identical (the partial sums are exact in binary
    floating point for any practical N).
    """
    n = _require_integer("particle count", n, 1)
    ladder = math.fsum(j + 0.5 for j in range(n))
    return FermionTrapEnergy(summed=ladder * (params.hbar * params.omega),
                             closed=_fermion_closed(n, params))


def _fermion_closed(n: int, params: PhysicalParams) -> float:
    # N^2 hbar Omega / 2, the closed form of the filled ladder
    return (0.5 * n * n) * (params.hbar * params.omega)


def energy_scaling_table(
    family: StateFamily,
    n_values: Iterable[int],
    params: PhysicalParams,
    component: str = "total",
    jobs: int = 1,
) -> ScalingTable:
    """Kinetic energy (in units of epsilon) per particle number, with exponent.

    `component` selects "total", "t_r" or "t_v", and a row evaluates only the
    closed forms its component sums.  Expect an exponent of
    ~1 for u0/u1 and ~2 for u2.  `jobs` is accepted and has no effect: every
    table here is a closed form evaluated in microseconds per row, serially.
    """
    _require_integer("jobs", jobs, 1)
    closed_forms = {"total": (t_r_closed, t_v_closed), "t_r": (t_r_closed,), "t_v": (t_v_closed,)}
    if component not in closed_forms:
        raise DomainError(f"unknown energy component {component!r}")
    ns = [_require_integer("N", n, 2) for n in n_values]
    values = []
    for n in ns:
        dim = HyperDimension(3 * n)
        values.append(sum(closed(family, dim, params) for closed in closed_forms[component]))
    quantity = "energy" if component == "total" else component
    return _build_table(ns, values, units="epsilon", quantity=quantity, family=family)


def slope_scaling_table(
    family: StateFamily,
    n_values: Iterable[int],
    params: PhysicalParams,
    jobs: int = 1,
) -> ScalingTable:
    """Analytic Raman-Nath slope per particle number, with fitted exponent.

    Expect ~0.5 for u0/u1 at large N and ~2 for u2.  `jobs` has no effect.
    """
    _require_integer("jobs", jobs, 1)
    ns = [_require_integer("N", n, 2) for n in n_values]
    values = [raman_nath_slope_closed(RadialState(family, HyperDimension(3 * n), params))
              for n in ns]
    return _build_table(ns, values, units="hbar*kappa/time", quantity="slope", family=family)


def fermion_scaling_table(
    n_values: Iterable[int], params: PhysicalParams, jobs: int = 1
) -> ScalingTable:
    """Exact N^2 hbar Omega / 2 reference column (fit exponent 2 to round-off).

    Every value is an exact power of N, so the fitted exponent is 2 within a
    few ulps and its error is round-off (below 1e-15).  A row takes the closed
    form alone, not the O(N) summed ladder of :func:`fermion_trap_energy`.
    `jobs` has no effect.
    """
    _require_integer("jobs", jobs, 1)
    ns = [_require_integer("N", n, 1) for n in n_values]
    values = [_fermion_closed(n, params) for n in ns]
    return _build_table(ns, values, units="hbar*omega", quantity="fermion", family=None)
