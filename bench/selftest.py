"""Self-test of the benchmark: short runs of every workload.

    python3 -m pytest bench/selftest.py -q

Checks that each workload emits every end-to-end and per-layer figure named
in BENCHMARK.json with its unit, that a deliberately wrong reference value
is counted as a failure, and that the benchmark refuses to run without the
package sources.  Passes are shrunk so the whole file takes about a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import pytest

import run

hr = run.import_package()
import workloads  # noqa: E402  (needs the package on sys.path)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def short_passes(monkeypatch):
    monkeypatch.setattr(workloads.Oracle, "design_k", 1)
    monkeypatch.setattr(workloads.Oracle, "known_failures", ())
    monkeypatch.setattr(workloads.Expansion, "design_k", 1)
    monkeypatch.setattr(workloads.Expansion, "anchors", (("u2", 30, 4096, 1.0),))
    monkeypatch.setattr(workloads.Cli, "recipes", ("tv-quadratic",))


def run_main(*argv: str) -> tuple[dict, str]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert run.main(list(argv)) == 0
    text = stdout.getvalue()
    return json.loads(text.splitlines()[-1]), text


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ("0", "1"))
def test_every_named_figure_is_emitted_with_its_unit(short_passes, workload, trace):
    result, report = run_main("--workload", workload, "--seed", "7", "--seconds", "0",
                              "--trace", trace)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: figure["unit"] for name, figure in result["metrics"].items()}
    for figure in result["metrics"].values():
        assert set(figure) == {"value", "unit"} and isinstance(figure["value"], float)
    if trace == "0":
        own_rate, _, own_time, _, _ = run.OWN_NAMES[workload]
        for name in (own_rate, f"{own_time}_p50", f"{own_time}_p90", "failed_frac"):
            assert f"# {name} " in report


def checked(ops) -> list[run.Record]:
    return [run.execute(op, i, hr, workloads) for i, op in enumerate(ops)]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_wrong_reference_is_counted_as_failure(short_passes, workload):
    def ops(reference_error):
        built = workloads.build(workload, 11, root=run.ROOT, log_dir=run.OUT,
                                in_process=True, reference_error=reference_error)
        chosen = built.make_pass(0)
        if workload == "cli":  # commands compared against a library value
            chosen = [op for op in chosen if op.label.split()[0] in ("energies", "scaling")]
        if workload == "expansion":  # runs whose slope is within 1% at the parent
            chosen = [built.op("u2", 30, 4096, 1.0), built.op("u1", 60, 4096, 1.0)]
        return chosen

    good = checked(ops(0.0))
    bad = checked(ops(0.5))
    assert good and all(r.status == "passed" for r in good), [r.detail for r in good]
    assert all(r.status == "failed" and r.detail.startswith("check ") for r in bad)


def test_refuses_to_run_without_the_package():
    bare = run.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "oracle",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.mark.parametrize("workload", ("oracle", "expansion"))
def test_known_failures_are_counted(workload):
    built = workloads.build(workload, 0, root=run.ROOT, log_dir=run.OUT)
    records = checked([built.op(*spec) for spec in built.known_failures])
    assert [r.status for r in records] == ["failed"] * len(records), [r.detail for r in records]
