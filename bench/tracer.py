"""Spans and counts around the package's public functions, recorded from outside.

`Tracer.installed()` wraps each public function at every module that binds
it (its defining module, the package namespace and each module that imports
it), and each traced method on its class.  A span is (op, span, parent,
name, start, end, extra): spans of one benchmark operation share ``op``, and
``parent`` is the span that was open when the call began.  ``extra`` holds
counts read off the return value (quadrature evaluations, CN steps, table
rows).  Process pools built by `scaling` and `cli` are counted as
zero-length spans; work done inside pool workers is not seen.

Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Optional

import hyperradial as hr
from hyperradial import cli, dynamics, energy, quadrature, scaling, specialfn, states


def _quad_extra(result) -> tuple[int, int]:
    return result.neval, int(result.method == "gauss_kronrod")


def _propagation_extra(result) -> tuple[int, int]:
    return len(result.times) - 1, result.grid.n_points


def _table_extra(table) -> tuple[int, int]:
    return len(table.rows), 0


def _energy_name(args, kwargs) -> str:
    method = kwargs.get("method", args[1] if len(args) > 1 else hr.CLOSED_FORM)
    return "energy.energy_report." + ("quadrature" if method == hr.QUADRATURE else "closed")


def _cli_name(args, kwargs) -> str:
    argv = kwargs.get("argv", args[0] if args else None)
    return "cli.main." + (argv[0] if argv else "-")


# (defining module, attribute, span name or naming function, extra)
FUNCTIONS = (
    (quadrature, "integrate_radial", "quadrature.integrate_radial", _quad_extra),
    (quadrature, "integrate", "quadrature.integrate", _quad_extra),
    (specialfn, "bessel_k_integral", "specialfn.bessel_k_integral", None),
    (specialfn, "bessel_k_ratio", "specialfn.bessel_k_ratio", None),
    (energy, "energy_report", _energy_name, None),
    (energy, "t_r_quadrature", "energy.t_r_quadrature", None),
    (energy, "t_v_quadrature", "energy.t_v_quadrature", None),
    (dynamics, "raman_nath_slope", "dynamics.raman_nath_slope", None),
    (dynamics, "propagate_free", "dynamics.propagate_free", _propagation_extra),
    (dynamics, "default_time_step", "dynamics.default_time_step", None),
    (scaling, "energy_scaling_table", "scaling.energy_scaling_table", _table_extra),
    (scaling, "slope_scaling_table", "scaling.slope_scaling_table", _table_extra),
    (scaling, "fermion_scaling_table", "scaling.fermion_scaling_table", _table_extra),
    (cli, "main", _cli_name, None),
)
# (class, attribute, span name)
METHODS = (
    (states.RadialState, "support", "states.support"),
    (states.RadialState, "log_u", "states.log_u"),
    (states.RadialState, "normalization_integral", "states.normalization_integral"),
    (dynamics.RadialGrid, "for_state", "dynamics.grid_for_state"),
    (dynamics.PropagationResult, "measured_slope", "dynamics.measured_slope"),
)
POOL_SITES = ((scaling, "scaling.process_pools"), (cli, "cli.process_pools"))


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.active = False
        self.op = 0
        self._stack = [0]
        self._next_id = 1

    # -- recording --------------------------------------------------------

    def _open(self) -> tuple[int, int, float]:
        span, parent = self._next_id, self._stack[-1]
        self._next_id += 1
        self._stack.append(span)
        return span, parent, perf_counter()

    def _close(self, name: str, span: int, parent: int, start: float, counts=None) -> None:
        end = perf_counter()
        self._stack.pop()
        self.spans.append((self.op, span, parent, name, start, end, counts))

    def call(self, name, fn: Callable, args, kwargs, extra: Optional[Callable]) -> Any:
        if not self.active:
            return fn(*args, **kwargs)
        if callable(name):
            name = name(args, kwargs)
        span, parent, start = self._open()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            counts = extra(result) if extra is not None and result is not None else None
            self._close(name, span, parent, start, counts)

    @contextlib.contextmanager
    def operation(self, index: int):
        """One benchmark operation: the root span of everything it calls."""
        self.op, self.active = index, True
        span, parent, start = self._open()
        try:
            yield
        finally:
            self._close("op", span, parent, start)
            self.active = False

    def wrap(self, name, fn: Callable, extra: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, extra)
        return traced

    def counter(self, name: str, cls: type) -> Callable:
        def counted(*args, **kwargs):
            if self.active:
                self._close(name, *self._open())
            return cls(*args, **kwargs)
        return counted

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced name for the duration of the block."""
        undo: list[tuple[object, str, object]] = []
        modules = [m for n, m in list(sys.modules.items())
                   if n == "hyperradial" or n.startswith("hyperradial.")]
        try:
            for owner, attr, name, extra in FUNCTIONS:
                original = getattr(owner, attr)
                traced = self.wrap(name, original, extra)
                for module in modules:
                    if vars(module).get(attr) is original:
                        undo.append((module, attr, original))
                        setattr(module, attr, traced)
            for cls, attr, name in METHODS:
                original = vars(cls)[attr]
                undo.append((cls, attr, original))
                if isinstance(original, classmethod):
                    setattr(cls, attr, classmethod(self.wrap(name, original.__func__)))
                else:
                    setattr(cls, attr, self.wrap(name, original))
            for module, name in POOL_SITES:
                undo.append((module, "ProcessPoolExecutor", module.ProcessPoolExecutor))
                module.ProcessPoolExecutor = self.counter(name, module.ProcessPoolExecutor)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    # -- output -----------------------------------------------------------

    def write_csv(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as out:
            out.write("op,span,parent,name,start_s,end_s,count_a,count_b\n")
            for op, span, parent, name, start, end, counts in self.spans:
                a, b = counts if counts else ("", "")
                out.write(f"{op},{span},{parent},{name},{start - t0:.9f},{end - t0:.9f},{a},{b}\n")


# ---------------------------------------------------------------- metrics


def layer_metrics(spans: list[tuple], n_ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the spans of ``n_ops`` traced operations.

    ``.calls``, ``.neval``, ``.steps``, ``.rows`` and pool counts are per
    operation; ``.ms``/``.us`` are means per call and ``.ms_p50`` medians
    per call; ``.self_ms`` is self time per operation.  Self time is a span's
    duration minus that of its direct children.  A quadrature.integrate call
    made by integrate_radial is part of integrate_radial: its children count
    as children of integrate_radial and it is left out of the
    quadrature.integrate figures, which cover the non-radial path only.  ``cli.main.*`` counts
    commands, not a recipe's inner call to main.  ``step_us`` divides the
    time of propagate_free by its step count, set-up included.  Layers the
    workload never calls read 0.
    """
    names = {s[1]: s[3] for s in spans}

    def folded(name: str, parent: int) -> bool:
        inner = names.get(parent, "")
        return ((name == "quadrature.integrate" and inner == "quadrature.integrate_radial")
                or (name.startswith("cli.main.") and inner.startswith("cli.main.")))

    parent_of = {s[1]: s[2] for s in spans}
    folded_ids = {s[1] for s in spans if folded(s[3], s[2])}

    def owner(parent: int) -> int:
        while parent in folded_ids:
            parent = parent_of[parent]
        return parent

    child_time: dict[int, float] = defaultdict(float)
    for _, span, parent, name, start, end, _ in spans:
        if span not in folded_ids:
            child_time[owner(parent)] += end - start
    calls: dict[str, list[tuple[float, Any]]] = defaultdict(list)  # (duration, counts)
    self_time: dict[str, float] = defaultdict(float)
    for _, span, parent, name, start, end, counts in spans:
        if span not in folded_ids:
            calls[name].append((end - start, counts))
            self_time[name] += end - start - child_time[span]

    per_op = 1.0 / max(n_ops, 1)

    def n_calls(name):
        return len(calls[name]) * per_op, "count/op"

    def mean(name, scale, unit):
        return (statistics.fmean(d for d, _ in calls[name]) * scale if calls[name] else 0.0), unit

    def p50(name):
        return (statistics.median(d for d, _ in calls[name]) * 1e3 if calls[name] else 0.0), "ms"

    def counted(name):
        return [(d, c) for d, c in calls[name] if c is not None]

    radial, plain = "quadrature.integrate_radial", "quadrature.integrate"
    radial_neval = sum(c[0] for _, c in counted(radial))
    quad = counted(radial) + counted(plain)
    tables = [f"scaling.{kind}_scaling_table" for kind in ("slope", "energy", "fermion")]
    out = {
        "states.support.calls": n_calls("states.support"),
        "states.support.ms": mean("states.support", 1e3, "ms"),
        "states.log_u.calls": n_calls("states.log_u"),
        "states.log_u.self_ms": (self_time["states.log_u"] * 1e3 * per_op, "ms/op"),
        "states.normalization_integral.ms_p50": p50("states.normalization_integral"),
        f"{radial}.calls": n_calls(radial),
        f"{radial}.neval": (radial_neval * per_op, "count/op"),
        f"{radial}.neval_per_call":
            (radial_neval / len(counted(radial)) if counted(radial) else 0.0, "count"),
        f"{radial}.self_ms": (self_time[radial] * 1e3 * per_op, "ms/op"),
        "quadrature.fallback_ratio": (sum(c[1] for _, c in quad) / len(quad) if quad else 0.0, "ratio"),
        f"{plain}.calls": n_calls(plain),
        f"{plain}.neval": (sum(c[0] for _, c in counted(plain)) * per_op, "count/op"),
        f"{plain}.ms": mean(plain, 1e3, "ms"),
        "specialfn.bessel_k_integral.ms_p50": p50("specialfn.bessel_k_integral"),
        "specialfn.bessel_k_ratio.us": mean("specialfn.bessel_k_ratio", 1e6, "us"),
        "energy.energy_report.quadrature.ms_p50": p50("energy.energy_report.quadrature"),
        "energy.t_r_quadrature.ms": mean("energy.t_r_quadrature", 1e3, "ms"),
        "energy.t_v_quadrature.ms": mean("energy.t_v_quadrature", 1e3, "ms"),
        "energy.energy_report.closed.us": mean("energy.energy_report.closed", 1e6, "us"),
        "dynamics.raman_nath_slope.ms_p50": p50("dynamics.raman_nath_slope"),
        "dynamics.propagate_free.steps":
            (sum(c[0] for _, c in counted("dynamics.propagate_free")) * per_op, "count/op"),
        "dynamics.default_time_step.us": mean("dynamics.default_time_step", 1e6, "us"),
        "dynamics.grid_for_state.us": mean("dynamics.grid_for_state", 1e6, "us"),
        "dynamics.measured_slope.us": mean("dynamics.measured_slope", 1e6, "us"),
        **{f"{table}.ms": mean(table, 1e3, "ms") for table in tables},
        "scaling.rows": (sum(c[0] for t in tables for _, c in counted(t)) * per_op, "count/op"),
        "scaling.process_pools": n_calls("scaling.process_pools"),
        "cli.process_pools": n_calls("cli.process_pools"),
    }
    for n_points in (4096, 8192):
        runs = [(d, c[0]) for d, c in counted("dynamics.propagate_free") if c[1] == n_points]
        steps = sum(s for _, s in runs)
        out[f"dynamics.propagate_free.step_us.n{n_points}"] = (
            sum(d for d, _ in runs) / steps * 1e6 if steps else 0.0, "us")
    for sub in ("recipe", "energies", "scaling", "verify"):
        out[f"cli.main.{sub}.ms_p50"] = p50(f"cli.main.{sub}")
    return out
