"""Command-line surface.

Subcommands map one-to-one onto the module API:

    energies   closed-form and quadrature kinetic energies, side by side
    scaling    N-sweeps of energies/slopes/fermion ladder with fitted exponent
    propagate  Crank-Nicolson free expansion, CSV time series + JSON sidecar
    verify     oracle-equivalence suite (normalization, energies, eigenstate, bessel)
    recipe     named preset runs reproducing the headline results

Exit codes: 0 success, also when the reader closes stdout early (the output
ends with no message), 1 verification failure, 2 invalid input, 3 numerical
failure.  All floating-point output uses 12 significant digits and fixed
quadrature node order, so identical configurations produce byte-identical
files.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Sequence, TextIO

from .core import (
    DomainError,
    HyperDimension,
    NumericalError,
    PhysicalParams,
    PreconditionError,
)
from .dynamics import RadialGrid, fit_window, propagate_free
from .energy import CLOSED_FORM, QUADRATURE, energy_report
from .scaling import (
    energy_scaling_table,
    fermion_scaling_table,
    slope_scaling_table,
)
from .specialfn import bessel_k, bessel_k_integral
from .states import RadialState, StateFamily, make_state, u2_eigenstate_residual

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_NUMERICAL = 3


def __getattr__(name: str):
    # bench/tracer.py counts pool starts through this name; looked up, never started
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _fmt(x: float) -> str:
    return format(x, ".12g")


def _parse_n_range(text: str) -> list[int]:
    """Parse 'start:stop[:step]' (inclusive stop) or a single integer."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return [int(parts[0])]
        if len(parts) == 2:
            start, stop = int(parts[0]), int(parts[1])
            return list(range(start, stop + 1))
        if len(parts) == 3:
            start, stop, step = int(parts[0]), int(parts[1]), int(parts[2])
            return list(range(start, stop + 1, step))
    except ValueError:
        pass
    raise DomainError(f"cannot parse N range {text!r}; expected start:stop[:step]")


def _resolve_dimension(args: argparse.Namespace) -> HyperDimension:
    if (args.D is None) == (args.N is None):
        raise DomainError("exactly one of --D or --N must be given")
    return HyperDimension(args.D if args.N is None else 3 * args.N)


_POSITIVE_OPTIONS = ("kappa", "beta_kappa")


def _params_from(args: argparse.Namespace) -> PhysicalParams:
    for dest in _POSITIVE_OPTIONS:
        if not getattr(args, dest) > 0:  # also rejects NaN
            raise DomainError(f"--{dest.replace('_', '-')} must be a positive number, "
                              f"got {getattr(args, dest)!r}")
    return PhysicalParams(kappa=args.kappa, beta=args.beta_kappa / args.kappa)


def _state_from(args: argparse.Namespace) -> RadialState:
    if not args.family:
        raise DomainError("--family is required (directly or via --config)")
    return RadialState(family=StateFamily(args.family), dim=_resolve_dimension(args), params=_params_from(args))


def _unwritable(path: str | Path, exc: OSError) -> DomainError:
    return DomainError(f"cannot write {str(path)!r}: {exc.strerror or exc}")


@contextlib.contextmanager
def _output_stream(path: Optional[str]) -> Iterator[TextIO]:
    """Yield stdout for no path or '-', else the opened file, closed on exit."""
    if path is None or path == "-":
        yield sys.stdout
        sys.stdout.flush()  # a closed pipe raises here, before any summary on stderr
        return
    try:
        stream = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise _unwritable(path, exc) from exc
    with stream:
        yield stream


# the JSON types that stand for a flag's argparse type, and how messages name them
_JSON_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"), None: ((str,), "a string")}


def _config_value(key: str, action: argparse.Action, value):
    """Check a --config value as argparse checks the flag's text; null only where the default is None."""
    if value is None and action.default is None:
        return None
    types, expected = _JSON_TYPES[action.type]
    valid = isinstance(value, types) and not isinstance(value, bool)
    if action.choices is not None:
        valid, expected = value in action.choices, "one of " + ", ".join(map(repr, action.choices))
    elif action.dest in _POSITIVE_OPTIONS:
        expected = "a positive number"
    if not valid:
        raise DomainError(f"config key {key!r} must be {expected}, got {value!r}")
    return float(value) if action.type is float else value


def _apply_config(args: argparse.Namespace, parser_actions: Sequence[argparse.Action], argv: Sequence[str]) -> None:
    """Check every value in --config and overlay those whose flags were not given explicitly."""
    try:
        config = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise DomainError(f"cannot read config {args.config!r}: {exc}") from exc
    if not isinstance(config, dict):
        raise DomainError("config file must hold a JSON object")
    by_option = {opt: action.dest for action in parser_actions for opt in action.option_strings}
    explicit = {by_option.get(token.split("=", 1)[0]) for token in argv}
    actions = {action.dest: action for action in parser_actions}
    for key, value in config.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise DomainError(f"unknown config key {key!r}")
        value = _config_value(key, action, value)
        if action.dest not in explicit:
            setattr(args, action.dest, value)


# ---------------------------------------------------------------- energies


def _cmd_energies(args: argparse.Namespace) -> int:
    state = _state_from(args)
    closed = energy_report(state, CLOSED_FORM)
    quad = energy_report(state, QUADRATURE)

    def rel_dev(a: float, b: float) -> float:
        scale = max(abs(a), abs(b), 1e-300)
        return abs(a - b) / scale

    rows = [
        ("t_r", closed.t_r, quad.t_r),
        ("t_v", closed.t_v, quad.t_v),
        ("total", closed.total, quad.total),
    ]
    with _output_stream(args.output) as stream:
        if args.format == "json":
            payload = {
                "config": state.to_config(),
                "epsilon": closed.epsilon,
                "units": "epsilon",
                "energies": {
                    name: {"closed_form": c, "quadrature": q, "rel_deviation": rel_dev(c, q)}
                    for name, c, q in rows
                },
            }
            json.dump(payload, stream, indent=2, sort_keys=True)
            stream.write("\n")
        else:
            stream.write("quantity,closed_form,quadrature,rel_deviation,units\n")
            for name, c, q in rows:
                stream.write(f"{name},{_fmt(c)},{_fmt(q)},{_fmt(rel_dev(c, q))},epsilon\n")
    print(
        f"family={state.family.value} D={state.dim.d} total={_fmt(closed.total)} epsilon "
        f"(epsilon={_fmt(closed.epsilon)}, closed vs quadrature max rel dev "
        f"{_fmt(max(rel_dev(c, q) for _, c, q in rows))})",
        file=sys.stderr,
    )
    return EXIT_OK


# ----------------------------------------------------------------- scaling


def _cmd_scaling(args: argparse.Namespace) -> int:
    n_values = _parse_n_range(args.N)
    params = _params_from(args)
    if args.quantity == "fermion":
        table = fermion_scaling_table(n_values, params)
    else:
        if not args.family:
            raise DomainError("--family is required for energy/slope scaling")
        family = StateFamily(args.family)
        if args.quantity == "energy":
            table = energy_scaling_table(family, n_values, params, component=args.component)
        else:
            table = slope_scaling_table(family, n_values, params)
    with _output_stream(args.output) as stream:
        if args.format == "json":
            table.to_json(stream)
        else:
            table.to_csv(stream)
    print(
        f"quantity={table.quantity} family={table.family.value if table.family else '-'} "
        f"fit_exponent={_fmt(table.fit_exponent)} fit_error={_fmt(table.fit_error)}",
        file=sys.stderr,
    )
    return EXIT_OK


# --------------------------------------------------------------- propagate


def _cmd_propagate(args: argparse.Namespace) -> int:
    state = _state_from(args)
    if args.r_max is not None:
        grid = RadialGrid.uniform(args.r_max, args.n_points)
    else:
        grid = RadialGrid.for_state(state, args.n_points)
    result = propagate_free(state, grid, args.dt, args.n_steps, record_every=args.record_every)

    # fit before writing, so a run that cannot be fitted exits 2 and leaves no files
    window = fit_window(state)
    try:
        measured = result.measured_slope(window)
    except PreconditionError:
        measured = result.measured_slope()  # short custom run: fit everything recorded
        print(f"note: fewer than 4 samples inside the fit window t <= {_fmt(window)}; "
              f"fitted all {len(result.times)} recorded samples instead", file=sys.stderr)

    sidecar = {
        "state": state.to_config(),
        "grid": {
            "r_min": result.grid.r_min,
            "r_max": result.grid.r_max,
            "n_points": result.grid.n_points,
            "spacing": result.grid.spacing,
        },
        "dt": result.dt,
        "dt_cap": result.dt_cap,
        "n_steps": round(result.times[-1] / result.dt),
        "record_every": args.record_every,
    }
    with _output_stream(args.output) as stream:
        if args.format == "json":
            payload = dict(sidecar)
            payload["series"] = {
                "t": list(result.times),
                "p_r_mean": list(result.p_r_mean),
                "norm": list(result.norm),
                "units": {"t": "natural", "p_r_mean": "hbar*kappa", "norm": "dimensionless"},
            }
            json.dump(payload, stream, indent=2, sort_keys=True)
            stream.write("\n")
        else:
            result.to_csv(stream)
    if args.output and args.output != "-":
        sidecar_path = Path(args.output).with_suffix(".config.json")
        try:
            sidecar_path.write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n",
                                    encoding="utf-8")
        except OSError as exc:
            raise _unwritable(sidecar_path, exc) from exc
    analytic = result.analytic_slope
    line = f"measured_slope={_fmt(measured)} analytic_slope={_fmt(analytic)}"
    if analytic and math.isfinite(analytic):
        line += f" ratio={_fmt(measured / analytic)}"
    print(line, file=sys.stderr)
    return EXIT_OK


# ------------------------------------------------------------------ verify


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _worst(deviations: Sequence[float]) -> float:
    """Largest deviation; NaN if any is NaN, so a NaN never passes a check."""
    return math.nan if any(map(math.isnan, deviations)) else max(deviations)


def _check_normalization(perturb: float) -> CheckResult:
    states = [make_state(family, d) for d in (4, 6, 9, 30, 60)
              for family in (StateFamily.U0, StateFamily.U1)]
    states += [make_state(StateFamily.U2, 6, PhysicalParams(beta=bk)) for bk in (0.25, 1.0, 4.0)]
    worst = _worst([abs(state.normalization_integral().value * (1.0 + perturb) ** 2 - 1.0)
                    for state in states])
    return CheckResult("normalization", worst <= 1e-9, f"max |norm - 1| = {worst:.3e}")


def _check_energies() -> CheckResult:
    dims = (4, 5, 6, 9, 12, 30, 60, 150)
    states = [make_state(family, d) for family in (StateFamily.U0, StateFamily.U1) for d in dims]
    states += [make_state(StateFamily.U2, d, PhysicalParams(beta=bk))
               for bk in (0.25, 1.0, 4.0) for d in dims]
    deviations = []
    for state in states:
        closed = energy_report(state, CLOSED_FORM)
        quad = energy_report(state, QUADRATURE)
        for c, q in ((closed.t_r, quad.t_r), (closed.t_v, quad.t_v)):
            deviations.append(abs(c - q) / max(abs(c), 1e-300))
    worst = _worst(deviations)
    return CheckResult("energies", worst <= 1e-8, f"max closed-vs-quadrature rel dev = {worst:.3e}")


def _check_eigenstate() -> CheckResult:
    import numpy as np

    radii = np.geomspace(0.1, 10.0, 400)
    residual = u2_eigenstate_residual(PhysicalParams(), radii)
    return CheckResult("eigenstate", residual <= 1e-8, f"max relative residual = {residual:.3e}")


def _check_bessel() -> CheckResult:
    recurrence = []
    for zeta in (0.5, 1.0, 2.0, 5.0, 10.0):
        k0, k1, k2 = (bessel_k(n, zeta) for n in (0, 1, 2))
        recurrence.append(abs(k2 - k0 - 2.0 / zeta * k1) / k2)
    worst_rec = _worst(recurrence)
    worst_int = _worst([abs(bessel_k(n, zeta) / bessel_k_integral(n, zeta) - 1.0)
                        for n in (0, 1, 2) for zeta in (0.1, 2.0, 30.0)])
    return CheckResult(
        "bessel",
        worst_rec <= 1e-9 and worst_int <= 1e-9,
        f"recurrence dev = {worst_rec:.3e}, integral-oracle dev = {worst_int:.3e}",
    )


_VERIFY_CHECKS = ("normalization", "energies", "eigenstate", "bessel")


def _cmd_verify(args: argparse.Namespace) -> int:
    checks = {
        "normalization": lambda: _check_normalization(args.perturb_norm),
        "energies": _check_energies,
        "eigenstate": _check_eigenstate,
        "bessel": _check_bessel,
    }
    names = _VERIFY_CHECKS if args.only is None else (args.only,)
    all_passed = True
    for name in names:
        result = checks[name]()
        status = "PASS" if result.passed else "FAIL"
        all_passed &= result.passed
        print(f"{status} {result.name}: {result.detail}")
    return EXIT_OK if all_passed else EXIT_VERIFY_FAILED


# ------------------------------------------------------------------ recipe


RECIPES: dict[str, tuple[str, list[str]]] = {
    "tv-quadratic": (
        "quadratic growth of the centrifugal energy of u2 (exponent ~ 2)",
        ["scaling", "--quantity", "energy", "--family", "u2", "--component", "t_v", "--N", "10:100"],
    ),
    "sqrt-slope": (
        "square-root growth of the u0 momentum slope (exponent ~ 0.5)",
        ["scaling", "--quantity", "slope", "--family", "u0", "--N", "20:200"],
    ),
    "n2-slope": (
        "quadratic growth of the u2 momentum slope (exponent ~ 2)",
        ["scaling", "--quantity", "slope", "--family", "u2", "--N", "20:200"],
    ),
    "fermion-ladder": (
        "N^2 reference energy of N trapped fermions",
        ["scaling", "--quantity", "fermion", "--N", "1:100"],
    ),
    "thermodynamic": (
        "total kinetic energy of u0 at N=10 (equals 3N/2 in units of epsilon)",
        ["energies", "--family", "u0", "--N", "10"],
    ),
    "ehrenfest-u0": (
        "free expansion of u0 at D=6; measured vs analytic initial slope",
        ["propagate", "--family", "u0", "--D", "6"],
    ),
}


def _cmd_recipe(args: argparse.Namespace) -> int:
    if args.list or args.name is None:
        for name, (description, argv) in sorted(RECIPES.items()):
            print(f"{name}: {description}")
            print(f"    hyperradial {' '.join(argv)}")
        return EXIT_OK
    if args.name not in RECIPES:
        raise DomainError(f"unknown recipe {args.name!r}; run `hyperradial recipe --list`")
    _, argv = RECIPES[args.name]
    argv = list(argv)
    if args.output is not None:
        argv += ["--output", args.output]
    return main(argv)


# -------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperradial",
        description="Hyperspherical s-state energies, scaling laws and free-expansion dynamics.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def flag(*names: str, **kwargs) -> argparse.ArgumentParser:
        """One flag, defined once and shared as a parent by every subcommand taking it."""
        holder = argparse.ArgumentParser(add_help=False)
        holder.add_argument(*names, **kwargs)
        return holder

    # presence of --family, --D and --N is validated after the --config overlay, not by argparse
    family = flag("--family", choices=[f.value for f in StateFamily], default=None,
                  help="radial wave-function family")
    dim = flag("--D", type=int, default=None, help="configuration-space dimension")
    n_particles = flag("--N", type=int, default=None, help="particle number (implies D = 3N)")
    kappa = flag("--kappa", type=float, default=1.0, help="inverse length scale (default 1)")
    beta_kappa = flag("--beta-kappa", dest="beta_kappa", type=float, default=1.0,
                      help="dimensionless u2 shape parameter (default 1)")
    output = flag("--output", default=None, help="output file ('-' for stdout)")
    fmt = flag("--format", choices=("csv", "json"), default="csv")
    config = flag("--config", default=None, help="JSON file mirroring the flags")
    jobs = flag("--jobs", type=int, default=1,
                help="accepted for compatibility; has no effect (everything runs serially)")
    state = [family, dim, n_particles, kappa, beta_kappa, output, fmt, config]

    p_en = sub.add_parser("energies", parents=state, allow_abbrev=False,
                          help="closed-form and quadrature kinetic energies")
    p_en.set_defaults(func=_cmd_energies, _parser=p_en)

    p_sc = sub.add_parser("scaling", parents=[family, kappa, beta_kappa, jobs, output, fmt, config],
                          allow_abbrev=False, help="N-sweeps with fitted power-law exponent")
    p_sc.add_argument("--quantity", choices=("energy", "slope", "fermion"), required=True)
    p_sc.add_argument("--component", choices=("total", "t_r", "t_v"), default="total",
                      help="energy component for --quantity energy")
    p_sc.add_argument("--N", required=True, help="range start:stop[:step], inclusive")
    p_sc.set_defaults(func=_cmd_scaling, _parser=p_sc)

    p_pr = sub.add_parser("propagate", parents=state, allow_abbrev=False,
                          help="Crank-Nicolson free expansion")
    p_pr.add_argument("--n-points", dest="n_points", type=int, default=4096)
    p_pr.add_argument("--r-max", dest="r_max", type=float, default=None,
                      help="outer wall radius (default: state-dependent)")
    p_pr.add_argument("--dt", type=float, default=None, help="time step (default: accuracy policy)")
    p_pr.add_argument("--n-steps", dest="n_steps", type=int, default=None)
    p_pr.add_argument("--record-every", dest="record_every", type=int, default=1)
    p_pr.set_defaults(func=_cmd_propagate, _parser=p_pr)

    p_ve = sub.add_parser("verify", parents=[jobs, config], allow_abbrev=False,
                          help="oracle-equivalence suite")
    p_ve.add_argument("--only", choices=_VERIFY_CHECKS, default=None)
    p_ve.add_argument("--perturb-norm", dest="perturb_norm", type=float, default=0.0,
                      help="test-only fault injection into the normalization check")
    p_ve.set_defaults(func=_cmd_verify, _parser=p_ve)

    p_re = sub.add_parser("recipe", parents=[output], allow_abbrev=False,
                          help="run a named preset")
    p_re.add_argument("name", nargs="?", default=None)
    p_re.add_argument("--list", action="store_true", help="list available recipes")
    p_re.set_defaults(func=_cmd_recipe, _parser=p_re)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            _apply_config(args, args._parser._actions, argv)
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader ended the output; devnull takes what is left, so the
        # interpreter's final flush cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except (DomainError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except (NumericalError, ArithmeticError) as exc:  # ArithmeticError: float overflow
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
