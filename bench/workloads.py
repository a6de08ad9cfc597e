"""The three benchmark workloads: fixed inputs in seeded order, timed operations, output checks.

Every workload is a closed loop with one caller.  It hands out *passes*:
lists of operations that are the same in every pass and for every seed, so
a run made of whole passes attempts the same work, and meets the same
failures, whatever the seed and however many passes fit in the time.  The
seed sets the order of the operations inside each pass.

The states of a pass are a fixed design: ``k`` log-uniform midpoint
quantiles of D per family, and for u2 the beta*kappa quantiles of a rank-1
lattice over the same ``k`` points (a Latin hypercube), so D and beta*kappa
cover their ranges evenly.  Random draws would make the count of failures
(and the cost of a pass) depend on the seed: the known failures sit in
narrow bands of beta*kappa and in regions of D that a draw hits or misses.

An operation is ``run`` (timed) followed by ``check`` (not timed).  ``run``
raising the package's own ``HyperradialError`` and ``check`` raising
``CheckFailed`` both count as a failed operation.  Any other exception, and
a CLI child that dies with a traceback or an undocumented exit code, is a
crash: it counts as failed and also makes the run report ``correct: false``.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import hyperradial as hr
from hyperradial import cli

FAMILIES = ("u0", "u1", "u2")
D_RANGE = (4, 6000)
BETA_KAPPA_RANGE = (0.25, 4.0)

# The slopes measured in criterion 5 must match the closed form to 1%.
SLOPE_TOLERANCE = 0.01
# CLI output carries 12 significant digits.
PRINTED_REL = 1e-10


class CheckFailed(Exception):
    """An output disagreed with its reference value or expected form."""


class Crash(Exception):
    """A CLI child died outside the documented exit codes."""


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


def design(k: int, stride: int = 5) -> list[tuple[float, float]]:
    """k quantile pairs (u, w) in (0, 1): u the midpoints, w the same midpoints
    permuted by i -> stride*i mod k (stride coprime with k)."""
    assert math.gcd(k, stride) == 1
    return [((i + 0.5) / k, ((stride * i) % k + 0.5) / k) for i in range(k)]


def log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def log_uniform_int(u: float, lo: int, hi: int) -> int:
    """Integer whose log is uniform over [lo, hi], each end given its half bin."""
    return int(round(log_uniform(u, lo - 0.5, hi + 0.5)))


def expect_close(what: str, value: float, reference: float, rel: float = 0.0,
                 abs_: float = 0.0) -> None:
    """Raise CheckFailed unless |value - reference| <= max(abs_, rel*|reference|)."""
    limit = max(abs_, rel * abs(reference))
    if not abs(value - reference) <= limit:  # also false for NaN
        raise CheckFailed(f"{what}: {value!r} vs reference {reference!r} (limit {limit:.1e})")


# ------------------------------------------------------------------ oracle


class Oracle:
    """Closed forms against quadrature over the advertised range (criterion 1, verify).

    Per state: normalization integral, energy report by quadrature and in
    closed form, Raman-Nath slope by quadrature and in closed form, and for
    u2 the Bessel defining-integral cross-check at zeta = 2 sqrt(beta kappa).

    Besides the design, every pass holds states where tanh-sinh reports
    convergence while its result is wrong: normalization off by 4e-8 to
    7e-7 (u2 at beta*kappa 0.348 and 3.743), the K2/K1 defining integral
    off by 7e-8 to 4e-7 (beta*kappa 1.276 and 2.249) and T_r off by 1.3e-7
    (u0 D=692).  They fail at the parent.
    """

    design_k = 16  # states per family per pass
    known_failures = (("u2", 13, 0.3481), ("u2", 5, 3.743), ("u2", 48, 1.276),
                      ("u2", 7, 2.249), ("u0", 692, 1.0))

    def __init__(self, seed: int, reference_error: float = 0.0):
        self.rng = random.Random(seed)
        self.scale = 1.0 + reference_error

    def make_pass(self, index: int) -> list[Op]:
        specs = list(self.known_failures)
        for family in FAMILIES:
            for u, w in design(self.design_k):
                bk = log_uniform(w, *BETA_KAPPA_RANGE) if family == "u2" else 1.0
                specs.append((family, log_uniform_int(u, *D_RANGE), bk))
        self.rng.shuffle(specs)
        return [self.op(*spec) for spec in specs]

    def warm_up_op(self) -> Op:
        return self.op("u2", 30, 1.0)

    def op(self, family: str, d: int, bk: float) -> Op:
        def run():
            state = hr.make_state(family, d, hr.PhysicalParams(beta=bk))
            out = {
                "norm": state.normalization_integral().value,
                "quad": hr.energy_report(state, hr.QUADRATURE),
                "closed": hr.energy_report(state, hr.CLOSED_FORM),
                "slope": hr.raman_nath_slope(state),
                "slope_closed": hr.raman_nath_slope_closed(state),
            }
            if family == "u2":
                zeta = 2.0 * math.sqrt(bk)
                out["k_integral"] = hr.bessel_k_integral(2, zeta) / hr.bessel_k_integral(1, zeta)
                out["k_ratio"] = hr.bessel_k_ratio(zeta)
            return out

        def check(out):
            s = self.scale
            expect_close("normalization", out["norm"], s, abs_=1e-9)
            expect_close("T_r", out["quad"].t_r, s * out["closed"].t_r, rel=1e-8)
            expect_close("T_V", out["quad"].t_v, s * out["closed"].t_v, rel=1e-8)
            expect_close("slope", out["slope"], s * out["slope_closed"], rel=1e-8)
            if "k_integral" in out:
                expect_close("K2/K1", out["k_integral"], s * out["k_ratio"], rel=1e-9)

        return Op(f"{family} D={d} bk={bk:.4g}", run, check)


# --------------------------------------------------------------- expansion


class Expansion:
    """Crank-Nicolson free expansion with the default dt/n_steps policy.

    Each pass holds the three criterion-5 states at 4096 points and, for
    every family and grid size, the k design states.  u0/u1 below D = 13 take
    0.4 s to 20 s per run under the default step policy, so a handful of
    them would make a pass too long to repeat in one run; they are covered by
    the fixed u0 D=6 and u1 D=9 states instead, and the u0/u1 design starts
    at 13.  The two grid sizes pair D with beta*kappa differently.

    Every pass also holds the failures known at the parent: u0/u1 at
    D >= 1200 raise PreconditionError (4096 points; u0 D=3000 also at 8192),
    and u2 at beta*kappa = 0.25 misses the 1% slope bound (D=4 at both grid
    sizes, D=300 at 4096).
    """

    design_k = 16
    n_points = (4096, 8192)
    anchors = (("u0", 6, 4096, 1.0), ("u1", 9, 4096, 1.0), ("u2", 30, 4096, 1.0))
    known_failures = (("u0", 1200, 4096, 1.0), ("u1", 1200, 4096, 1.0), ("u0", 3000, 8192, 1.0),
                      ("u2", 4, 4096, 0.25), ("u2", 4, 8192, 0.25), ("u2", 300, 4096, 0.25))
    trap_d_min = 13

    def __init__(self, seed: int, reference_error: float = 0.0):
        self.rng = random.Random(seed)
        self.scale = 1.0 + reference_error

    def make_pass(self, index: int) -> list[Op]:
        specs = list(self.anchors + self.known_failures)
        for family in FAMILIES:
            d_lo = D_RANGE[0] if family == "u2" else self.trap_d_min
            for stride, n in zip((5, 7), self.n_points):
                for u, w in design(self.design_k, stride):
                    bk = log_uniform(w, *BETA_KAPPA_RANGE) if family == "u2" else 1.0
                    specs.append((family, log_uniform_int(u, d_lo, D_RANGE[1]), n, bk))
        self.rng.shuffle(specs)
        return [self.op(*spec) for spec in specs]

    def warm_up_op(self) -> Op:
        return self.op(*self.anchors[-1])

    def op(self, family: str, d: int, n: int, bk: float) -> Op:
        state = hr.make_state(family, d, hr.PhysicalParams(beta=bk))

        def run():
            result = hr.propagate_free(state, hr.RadialGrid.for_state(state, n))
            return result.measured_slope(hr.fit_window(state))

        def check(slope):
            expect_close("slope", slope, self.scale * hr.raman_nath_slope_closed(state),
                         rel=SLOPE_TOLERANCE)

        return Op(f"{family} D={d} n={n} bk={bk:.4g}", run, check)


# --------------------------------------------------------------------- cli


@dataclass
class CliOutput:
    returncode: int
    stdout: str
    stderr: str
    maxrss_kb: int = 0


def child_env() -> dict:
    """This process's environment with the package taken from src/, as a user runs it."""
    return dict(os.environ, PYTHONPATH="src")


def run_child(argv: list[str], root: Path, log_dir: Path) -> CliOutput:
    """Run one command as a child of this process; return its output and peak RSS.

    Output goes through files so the child can be reaped with wait4, which
    reports the child's own resource usage.
    """
    log_dir.mkdir(parents=True, exist_ok=True)
    out_path, err_path = log_dir / "child.out", log_dir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, cwd=root, env=child_env(), stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return CliOutput(proc.returncode, out_path.read_text(), err_path.read_text(),
                     usage.ru_maxrss)


def run_in_process(argv: list[str]) -> CliOutput:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code if isinstance(exc.code, int) else 2
    return CliOutput(code, out.getvalue(), err.getvalue())


class Cli:
    """`python -m hyperradial.cli ...`, one child process at a time.

    A pass is thirteen commands: `recipe --list`, the five table/energy
    recipes, `energies` for one design state of each family, `scaling` of
    the energy (--jobs 1) and of the slope (--jobs 2) over N = 2..100,
    `verify --jobs 2` and `verify --only X --jobs 1`, where X rotates with
    the pass index.  The seed only orders the commands.
    With ``in_process`` the same commands call ``hyperradial.cli.main``
    directly; the traced run uses that, since spans cannot cross processes.
    """

    recipes = ("thermodynamic", "tv-quadratic", "sqrt-slope", "n2-slope", "fermion-ladder")
    verify_checks = ("normalization", "energies", "eigenstate", "bessel")
    scaling = (["--quantity", "energy", "--family", "u2", "--component", "total", "--jobs", "1"],
               ["--quantity", "slope", "--family", "u1", "--jobs", "2"])

    def __init__(self, seed: int, reference_error: float = 0.0, *, root: Path,
                 log_dir: Path, in_process: bool = False):
        self.rng = random.Random(seed)
        self.scale = 1.0 + reference_error
        self.root, self.log_dir, self.in_process = root, log_dir, in_process

    def make_pass(self, index: int) -> list[Op]:
        commands = [["recipe", "--list"]] + [["recipe", name] for name in self.recipes]
        for family, (u, w) in zip(FAMILIES, design(len(FAMILIES), stride=2)):
            commands.append(["energies", "--family", family, "--D", str(log_uniform_int(u, *D_RANGE)),
                             "--beta-kappa", f"{log_uniform(w, *BETA_KAPPA_RANGE):.4g}"])
        commands += [["scaling", "--N", "2:100", *argv] for argv in self.scaling]
        commands.append(["verify", "--jobs", "2"])
        commands.append(["verify", "--only", self.verify_checks[index % 4], "--jobs", "1"])
        self.rng.shuffle(commands)
        return [self.op(argv) for argv in commands]

    def warm_up_op(self) -> Op:
        return self.op(["recipe", "--list"])

    def op(self, argv: list[str]) -> Op:
        if self.in_process:
            def run():
                return run_in_process(argv)
        else:
            command = [sys.executable, "-m", "hyperradial.cli", *argv]

            def run():
                return run_child(command, self.root, self.log_dir)

        return Op(" ".join(argv), run, lambda out: self.check(argv, out))

    # -- checks against the library ---------------------------------------

    def check(self, argv: list[str], out: CliOutput) -> None:
        if "Traceback (most recent call last)" in out.stderr or out.returncode not in (0, 1, 2, 3):
            raise Crash(f"exit {out.returncode}: {out.stderr.strip()[-300:]}")
        if out.returncode != 0:
            raise CheckFailed(f"exit {out.returncode}: {out.stderr.strip()[-300:]}")
        try:
            self.check_output(argv, out)
        except (ValueError, IndexError) as exc:  # output not in the documented form
            raise CheckFailed(f"unparsable output: {exc}") from exc

    def check_output(self, argv: list[str], out: CliOutput) -> None:
        args = cli.build_parser().parse_args(argv)
        if args.command == "recipe":
            if args.list:
                listed = {line.split(":")[0] for line in out.stdout.splitlines()
                          if line and not line.startswith(" ")}
                if listed != set(cli.RECIPES):
                    raise CheckFailed(f"recipe list {sorted(listed)}")
                return
            args = cli.build_parser().parse_args(cli.RECIPES[args.name][1])
        if args.command == "energies":
            self.check_energies(args, out)
        elif args.command == "scaling":
            self.check_scaling(args, out)
        else:
            self.check_verify(args, out)

    def params(self, args) -> hr.PhysicalParams:
        return hr.PhysicalParams(kappa=args.kappa, beta=args.beta_kappa / args.kappa)

    def check_energies(self, args, out: CliOutput) -> None:
        d = args.D if args.D is not None else 3 * args.N
        state = hr.RadialState(hr.StateFamily(args.family), hr.HyperDimension(d), self.params(args))
        closed = hr.energy_report(state, hr.CLOSED_FORM)
        rows = [line.split(",") for line in out.stdout.splitlines()[1:]]
        if [row[0] for row in rows] != ["t_r", "t_v", "total"]:
            raise CheckFailed(f"energies rows {[row[0] for row in rows]}")
        for name, closed_text, _, dev_text, _ in rows:
            expect_close(name, float(closed_text), self.scale * getattr(closed, name), rel=PRINTED_REL)
            if not float(dev_text) <= 1e-8:
                raise CheckFailed(f"{name}: rel_deviation {dev_text} > 1e-8")

    def check_scaling(self, args, out: CliOutput) -> None:
        parts = [int(x) for x in args.N.split(":")]
        ns = range(parts[0], parts[1] + 1, parts[2] if len(parts) == 3 else 1)
        params = self.params(args)
        if args.quantity == "fermion":
            table = hr.fermion_scaling_table(ns, params)
        elif args.quantity == "energy":
            table = hr.energy_scaling_table(hr.StateFamily(args.family), ns, params,
                                            component=args.component)
        else:
            table = hr.slope_scaling_table(hr.StateFamily(args.family), ns, params)
        fields = dict(item.split("=", 1) for item in out.stderr.split() if "=" in item)
        expect_close("fit_exponent", float(fields.get("fit_exponent", "nan")),
                     self.scale * table.fit_exponent, rel=PRINTED_REL)
        rows = [line.split(",") for line in out.stdout.splitlines()[1:]]
        if len(rows) != len(table.rows):
            raise CheckFailed(f"{len(rows)} rows, expected {len(table.rows)}")
        for (n_text, _, value_text, _), row in zip(rows, table.rows):
            expect_close(f"N={n_text}", float(value_text), self.scale * row.value, rel=PRINTED_REL)

    def check_verify(self, args, out: CliOutput) -> None:
        lines = out.stdout.splitlines()
        expected = 1 if args.only else len(self.verify_checks)
        if len(lines) != expected or not all(line.startswith("PASS ") for line in lines):
            raise CheckFailed(f"verify output {lines}")


def build(name: str, seed: int, *, root: Path, log_dir: Path, in_process: bool = False,
          reference_error: float = 0.0):
    if name == "cli":
        return Cli(seed, reference_error, root=root, log_dir=log_dir, in_process=in_process)
    return {"oracle": Oracle, "expansion": Expansion}[name](seed, reference_error)
