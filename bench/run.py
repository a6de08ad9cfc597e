"""Benchmark of the hyperradial toolkit, end to end and layer by layer.

    python3 bench/run.py --workload oracle|expansion|cli|all --seed N --seconds S --trace 0|1

The package is imported from ``src/`` beside this directory; nothing needs
to be installed or built.  One single-threaded process drives the public
API in a closed loop (for ``cli``, one child process at a time), running
whole passes of the workload (see ``workloads.py``) for about ``--seconds``
(the nearest whole number of passes).  Every operation's output is checked;
failures are counted against attempts and listed.

``--trace 0`` measures with tracing off and reports, per workload:

    setup_s       median over 5 fresh processes of: start, import, input
                  generation and one warm-up operation
    peak_rss_mb   peak RSS of this process; for ``cli``, of the largest command
    ops_per_s     operations that passed their check, per second of operation
                  time (oracle: states/s, expansion: runs/s, cli: commands/s)
    op_ms_p50     median wall time of one operation, failed ones included

The report above the final line also gives the same figures under the
workload's own names (``oracle.state_ms_p90``, ``cli.cmd_s_p50``, ...), each
with its sample count, the p90 (valid only with at least 10 samples beyond
it, i.e. 100 samples) and ``failed_frac``.

``--trace 1`` gives the per-layer figures instead.  It first runs the
workload untraced for half of ``--seconds``, then repeats the same
operations with spans recorded around the package's public functions
(``tracer.py``); ``trace.overhead_pct`` is the extra time of the traced
repeat.  The ``cli`` workload calls ``hyperradial.cli.main`` in this
process for both halves, since spans do not cross processes.  The start-up
figures ``cli.interpreter_s``, ``cli.import_s`` and ``cli.import.*`` come
from fresh interpreters (``-X importtime``) in every workload.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``correct`` is false
when an operation crashed: an exception from outside the package's own error
types, or a CLI child exiting with a traceback or an undocumented code.
Outputs that miss their reference, and errors the package raises itself,
are failures, not crashes.  Spans and a full result record (environment,
every figure with its sample count, each failure) are written under
``.bench_out/``.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, here and in every child
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("oracle", "expansion", "cli")
SETUP_REPEATS = 5
STARTUP_REPEATS = 3
CHILD_TIMEOUT_S = 120
# workload -> (throughput name, its unit, time-per-op name, its unit, seconds -> unit)
OWN_NAMES = {
    "oracle": ("oracle.states_per_s", "states/s", "oracle.state_ms", "ms", 1e3),
    "expansion": ("expansion.runs_per_s", "runs/s", "expansion.run_s", "s", 1.0),
    "cli": ("cli.cmds_per_s", "cmds/s", "cli.cmd_s", "s", 1.0),
}


@dataclass
class Record:
    label: str
    seconds: float
    status: str  # "passed", "failed" or "crashed"
    detail: str = ""
    maxrss_kb: int = 0


def import_package():
    """Import hyperradial from this checkout's src/, or exit with an error if it is not there."""
    if not (SRC / "hyperradial" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'hyperradial'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import hyperradial

    if Path(hyperradial.__file__).resolve().parent != SRC / "hyperradial":
        sys.exit(f"error: imported hyperradial from {hyperradial.__file__}, not {SRC}")
    return hyperradial


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        **{var: os.environ[var] for var in THREAD_VARS},
    }


# ------------------------------------------------------------- measuring


def execute(op, index: int, hr, workloads, tracer=None) -> Record:
    status, detail, out = "passed", "", None
    start = time.perf_counter()
    try:
        with tracer.operation(index) if tracer else contextlib.nullcontext():
            out = op.run()
    except hr.HyperradialError as exc:
        status, detail = "failed", f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # a crash is recorded, and the run goes on
        status, detail = "crashed", f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if status == "passed":
        try:
            op.check(out)
        except workloads.CheckFailed as exc:
            status, detail = "failed", f"check {exc}"
        except Exception as exc:
            status, detail = "crashed", f"{type(exc).__name__}: {exc}"
    return Record(op.label, seconds, status, detail, getattr(out, "maxrss_kb", 0))


def run_passes(workload, seconds: float, hr, workloads) -> tuple[list[Record], list]:
    """Whole passes of the workload for about `seconds` of wall time.

    A further pass runs only while it would end less than half a pass past
    `seconds`, so that a run of multi-second passes does not overshoot by
    nearly a whole pass.
    """
    records, ops, start, index = [], [], time.perf_counter(), 0
    while not records or (time.perf_counter() - start) * (index + 0.5) / index < seconds:
        for op in workload.make_pass(index):
            records.append(execute(op, len(records), hr, workloads))
            ops.append(op)
        index += 1
    return records, ops


def timed_child(argv: list[str], env: dict) -> float:
    """Wall seconds of one child from spawn to exit.

    A blocking wait: with a timeout, Popen.wait polls in steps of up to 50 ms,
    which would round every figure to that step.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    if proc.wait() != 0:
        raise subprocess.CalledProcessError(proc.returncode, argv)
    return time.perf_counter() - start


def setup_times(args, env: dict) -> list[float]:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    return [timed_child(argv, env) for _ in range(SETUP_REPEATS)]


def import_profile(env: dict) -> dict[str, float]:
    """Cumulative import seconds per module from `python -X importtime`."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import hyperradial"],
                          cwd=ROOT, env=env, check=True,
                          timeout=CHILD_TIMEOUT_S, capture_output=True, text=True)
    cumulative: dict[str, float] = {}
    for line in proc.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            cumulative.setdefault(fields[2].strip(), int(fields[1]) * 1e-6)
    return cumulative


def startup_metrics(env: dict) -> dict[str, tuple[float, str, int]]:
    bare = [timed_child([sys.executable, "-c", "pass"], env) for _ in range(STARTUP_REPEATS)]
    profiles = [import_profile(env) for _ in range(STARTUP_REPEATS)]
    out = {"cli.interpreter_s": (statistics.median(bare), "s", len(bare))}
    for name, module in (("cli.import_s", "hyperradial"),
                         ("cli.import.scipy_special_s", "scipy.special"),
                         ("cli.import.scipy_integrate_s", "scipy.integrate"),
                         ("cli.import.scipy_linalg_s", "scipy.linalg")):
        out[name] = (statistics.median(p.get(module, 0.0) for p in profiles), "s", len(profiles))
    return out


# -------------------------------------------------------------- reporting


def p90_valid(n: int) -> bool:
    """A percentile is valid when at least 10 samples lie beyond it."""
    return n >= 100


def end_to_end(name: str, records: list[Record], setup: list[float]) -> dict:
    """End-to-end figures as name -> (value, unit, samples): those BENCHMARK.json
    declares, and the same under the workload's own names plus p90 and failed_frac."""
    seconds = [r.seconds for r in records]
    passed = sum(r.status == "passed" for r in records)
    own_rate, rate_unit, own_time, time_unit, scale = OWN_NAMES[name]
    if name == "cli":
        peak_kb = max(r.maxrss_kb for r in records)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    n = len(records)
    contract = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (peak_kb / 1024.0, "MB", 1),
        "ops_per_s": (passed / sum(seconds), "1/s", n),
        "op_ms_p50": (statistics.median(seconds) * 1e3, "ms", n),
    }
    p90 = statistics.quantiles(seconds, n=10)[-1] if n >= 2 else seconds[0]
    own = {
        own_rate: (contract["ops_per_s"][0], rate_unit, n),
        f"{own_time}_p50": (statistics.median(seconds) * scale, time_unit, n),
        f"{own_time}_p90": (p90 * scale, time_unit, n),
        "failed_frac": ((n - passed) / n, "1", n),
    }
    return contract, own


def no_crash(records: list[Record]) -> bool:
    return not any(r.status == "crashed" for r in records)


def failure_summary(records: list[Record]) -> list[str]:
    kinds = Counter(f"{r.status}: {r.detail.split(':')[0]}" for r in records if r.status != "passed")
    lines = [f"  {count} x {kind}" for kind, count in kinds.most_common()]
    examples = [r for r in records if r.status != "passed"][:8]
    return lines + [f"    e.g. [{r.label}] {r.detail[:160]}" for r in examples]


def emit(args, env: dict, figures: dict, report_only: dict, records: list[Record],
         extra_lines: list[str], correct: bool) -> None:
    failed = sum(r.status != "passed" for r in records)
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit, samples) in {**figures, **report_only}.items():
        note = ""
        if name.endswith("_p90"):
            note = " valid" if p90_valid(samples) else " INVALID (needs >= 100 samples)"
        print(f"# {name:44s} {value:14.6g} {unit:9s} n={samples}{note}")
    print(f"# failed {failed} of {len(records)}")
    for line in failure_summary(records) + extra_lines:
        print("#" + line)
    OUT.mkdir(exist_ok=True)
    record = {
        "args": vars(args), "env": env, "correct": correct, "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u, "samples": n}
                    for k, (v, u, n) in {**figures, **report_only}.items()},
        "failures": [vars(r) for r in records if r.status != "passed"],
    }
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in figures.items()},
    }))


# ------------------------------------------------------------------ main


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import, generate inputs, run one warm-up operation and exit "
                             "(what setup_s times)")
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    code = 0
    for name in WORKLOADS:
        sys.stdout.flush()
        code = max(code, subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode)
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    hr = import_package()
    if args.workload == "all":
        return run_all(args)
    import tracer as tracing
    import workloads

    workload = workloads.build(args.workload, args.seed, root=ROOT, log_dir=OUT,
                               in_process=bool(args.trace))
    warm_up = execute(workload.warm_up_op(), 0, hr, workloads)
    if args.setup_only:
        workload.make_pass(0)
        return 0 if warm_up.status == "passed" else 1
    env = environment(args.seed)

    if not args.trace:
        setup = setup_times(args, workloads.child_env())
        records, _ = run_passes(workload, args.seconds, hr, workloads)
        figures, own = end_to_end(args.workload, records, setup)
        emit(args, env, figures, own, records, [], correct=no_crash(records))
        return 0

    untraced, ops = run_passes(workload, args.seconds / 2, hr, workloads)
    tracer = tracing.Tracer()
    with tracer.installed():
        records = [execute(op, i, hr, workloads, tracer) for i, op in enumerate(ops)]
    overhead = sum(r.seconds for r in records) / sum(r.seconds for r in untraced) - 1.0
    figures = {name: (value, unit, len(records))
               for name, (value, unit) in tracing.layer_metrics(tracer.spans, len(records)).items()}
    figures.update(startup_metrics(workloads.child_env()))
    figures["trace.overhead_pct"] = (100.0 * overhead, "%", len(records))
    spans_path = OUT / f"spans-{args.workload}.csv"
    tracer.write_csv(spans_path)
    lines = [f" {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}",
             f" operation seconds untraced {sum(r.seconds for r in untraced):.3f}, "
             f"traced {sum(r.seconds for r in records):.3f} ({len(records)} operations each)"]
    emit(args, env, figures, {}, records, lines, correct=no_crash(untraced + records))
    return 0


if __name__ == "__main__":
    sys.exit(main())
