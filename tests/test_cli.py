import argparse
import filecmp
import json
import os
import subprocess
import sys
import warnings

import pytest

from hyperradial import cli, scaling
from hyperradial.cli import build_parser, main
from hyperradial.core import PhysicalParams
from hyperradial.states import StateFamily


def read_csv_rows(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestEnergiesCommand:
    def test_u0_two_particles(self, capsys):
        assert main(["energies", "--family", "u0", "--N", "2"]) == 0
        rows = read_csv_rows(capsys.readouterr().out)
        by_name = {row["quantity"]: row for row in rows}
        assert float(by_name["total"]["closed_form"]) == pytest.approx(3.0, rel=1e-12)
        assert float(by_name["total"]["rel_deviation"]) < 1e-8

    def test_u2_centrifugal_energy(self, capsys):
        assert main(["energies", "--family", "u2", "--N", "10", "--beta-kappa", "1"]) == 0
        rows = read_csv_rows(capsys.readouterr().out)
        by_name = {row["quantity"]: row for row in rows}
        assert float(by_name["t_v"]["closed_form"]) == pytest.approx(195.75, rel=1e-12)

    def test_json_format(self, capsys):
        assert main(["energies", "--family", "u1", "--D", "9", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["energies"]["t_r"]["closed_form"] == pytest.approx(1.0 + 1.0 / 22.0)
        assert payload["config"]["family"] == "u1"

    def test_u0_d2_rejected(self, capsys):
        assert main(["energies", "--family", "u0", "--D", "2"]) == 2
        assert capsys.readouterr().err.startswith("error: <r^-2> does not exist for u0 at D=2")

    def test_u0_d1_answered(self, capsys):
        # the u0 closed forms hold at D=1 (m = -1): T_r = 1/2 and T_V = +0.0
        assert main(["energies", "--family", "u0", "--D", "1"]) == 0
        assert "t_r,0.5,0.5,2.22044604925e-16,epsilon\nt_v,0,0,0,epsilon\n" in capsys.readouterr().out
        assert main(["energies", "--family", "u0", "--D", "1", "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert '"t_v": {\n      "closed_form": 0.0,' in out, out

    def test_requires_exactly_one_of_d_n(self, capsys):
        assert main(["energies", "--family", "u0"]) == 2
        assert main(["energies", "--family", "u0", "--D", "6", "--N", "2"]) == 2

    @pytest.mark.parametrize("argv", [["energies", "--D", "6"], ["propagate", "--N", "2"]])
    def test_requires_family(self, argv, capsys):
        assert main(argv) == 2
        assert "--family" in capsys.readouterr().err

    def test_writes_file(self, tmp_path, capsys):
        out = tmp_path / "energies.csv"
        assert main(["energies", "--family", "u0", "--D", "6", "--output", str(out)]) == 0
        assert out.read_text().startswith("quantity,closed_form,quadrature")

    def test_unwritable_output(self, tmp_path, capsys):
        out = tmp_path / "no-such-dir" / "energies.csv"
        assert main(["energies", "--family", "u0", "--D", "6", "--output", str(out)]) == 2
        assert "error: cannot write" in capsys.readouterr().err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
    def test_full_disk_is_named(self, capsys):
        # the write fails where the open succeeded; it exits 2 like an unwritable path, not in a traceback
        assert main(["energies", "--family", "u0", "--D", "6", "--output", "/dev/full"]) == 2
        assert capsys.readouterr().err == "error: cannot write '/dev/full': No space left on device\n"

    @pytest.mark.parametrize("argv", [
        ["--family", "u2", "--D", "30", "--kappa", "1e-100"],
        ["--family", "u0", "--D", "6", "--kappa", "1e150"],
        ["--family", "u1", "--D", "9", "--kappa", "1e100"],
    ])
    def test_quadrature_holds_far_from_unit_kappa(self, argv, capsys):
        assert main(["energies", *argv]) == 0
        rows = read_csv_rows(capsys.readouterr().out)
        assert all(float(row["rel_deviation"]) <= 1e-8 for row in rows), rows


class TestInvalidScales:
    @pytest.mark.parametrize("value, flag", [
        *((value, flag) for value in ("0", "-1", "inf") for flag in ("--kappa", "--beta-kappa")),
        # --r-max outside (0, inf) on the command line and as a --config key
        *((value, flag) for flag in ("--r-max", "r_max") for value in ("0", "-1", "nan", "inf")),
    ])
    def test_non_positive_flag(self, value, flag, tmp_path, capsys):
        if flag == "r_max":
            config = tmp_path / "run.json"
            config.write_text(json.dumps({flag: float(value)}))
            argv = ["propagate", "--family", "u0", "--D", "6", "--config", str(config)]
        else:
            command = "propagate" if flag == "--r-max" else "energies"
            argv = [command, "--family", "u2", "--D", "6", flag, value]
        assert main(argv) == 2
        named = ("--r-max must be a positive finite number" if flag in ("--r-max", "r_max")
                 else f"{flag} must be a positive number")
        assert capsys.readouterr().err == f"error: {named}, got {float(value)!r}\n"

    @pytest.mark.parametrize("kappa, beta_kappa, beta", [(1e-320, 1.0, "inf"), (1e300, 1e-30, "0.0")])
    @pytest.mark.parametrize("route", ["flags", "config"])
    def test_overflowing_beta_names_both_flags(self, kappa, beta_kappa, beta, route, tmp_path, capsys):
        # each flag is positive and finite, but their ratio beta, which is no flag, leaves (0, inf)
        argv = ["energies", "--family", "u2", "--D", "6"]
        if route == "config":
            config = tmp_path / "run.json"
            config.write_text(json.dumps({"kappa": kappa, "beta_kappa": beta_kappa}))
            argv += ["--config", str(config)]
        else:
            argv += ["--kappa", repr(kappa), "--beta-kappa", repr(beta_kappa)]
        assert main(argv) == 2
        assert capsys.readouterr().err == ("error: beta = --beta-kappa / --kappa must be positive and "
                                           f"finite, got {beta_kappa!r} / {kappa!r} = {beta}\n")

    def test_zero_kappa_in_scaling(self, capsys):
        assert main(["scaling", "--quantity", "fermion", "--N", "1:20", "--kappa", "0"]) == 2
        assert "must be a positive number" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["scaling", "--quantity", "slope", "--family", "u0", "--N", "2:20", "--kappa", "1e160"],
        ["energies", "--family", "u2", "--D", "6", "--kappa", "1e200"],
        ["energies", "--family", "u2", "--D", "6", "--beta-kappa", "1e-320"],
        ["scaling", "--quantity", "slope", "--family", "u2", "--N", "2:20", "--beta-kappa", "1e300"],
        ["scaling", "--quantity", "slope", "--family", "u2", "--N", "2:20", "--beta-kappa", "1e-200"],
        ["energies", "--family", "u0", "--D", "6", "--kappa", "1e-200"],
        ["scaling", "--quantity", "slope", "--family", "u1", "--N", "2:30", "--kappa", "1e-170"],
        ["propagate", "--family", "u0", "--D", "6", "--kappa", "1e-160", "--n-points", "1024"],
    ])
    def test_overflow_is_numerical_failure(self, argv, capsys):
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("numerical failure: ")

    @pytest.mark.parametrize("argv, quantity, parameter", [
        (["scaling", "--quantity", "slope", "--family", "u0", "--N", "2:20", "--kappa", "1e160"],
         "epsilon = (hbar*kappa)^2/(2M)", "kappa=1e+160"),
        (["energies", "--family", "u2", "--D", "6", "--kappa", "1e200"],
         "epsilon = (hbar*kappa)^2/(2M)", "kappa=1e+200"),
        (["energies", "--family", "u2", "--D", "6", "--beta-kappa", "1e-320"],
         "cut-off of the Bessel K_1 sum", "beta*kappa too small"),
        (["scaling", "--quantity", "slope", "--family", "u2", "--N", "2:20", "--beta-kappa", "1e300"],
         "(beta*kappa)^(3/2) of the u2 slope", "beta*kappa=1e+300"),
        (["scaling", "--quantity", "slope", "--family", "u2", "--N", "2:20", "--beta-kappa", "1e-200"],
         "K2/K1 of the u2 slope overflows", "beta*kappa=1e-200"),
        (["energies", "--family", "u0", "--D", "6", "--kappa", "1e-200"],
         "epsilon = (hbar*kappa)^2/(2M) underflows", "kappa=1e-200"),
        (["scaling", "--quantity", "slope", "--family", "u1", "--N", "2:30", "--kappa", "1e-170"],
         "epsilon = (hbar*kappa)^2/(2M) underflows", "kappa=1e-170"),
        (["propagate", "--family", "u0", "--D", "6", "--kappa", "1e-160", "--n-points", "1024"],
         "epsilon = (hbar*kappa)^2/(2M) underflows", "kappa=1e-160"),
        (["scaling", "--quantity", "slope", "--family", "u2", "--N", "2:12", "--kappa", "1e153"],
         "the Raman-Nath slope overflows", "kappa=1e+153"),
        # an explicit dt and n_steps skip the step policy; the step's dtau = eps dt / hbar
        # names epsilon before any coefficient is formed
        (["propagate", "--family", "u0", "--D", "6", "--kappa", "1e-160", "--n-points", "1024",
          "--dt", "1", "--n-steps", "16"], "epsilon = (hbar*kappa)^2/(2M) underflows", "kappa=1e-160"),
        (["propagate", "--family", "u0", "--D", "6", "--kappa", "1e160", "--n-points", "1024",
          "--dt", "1", "--n-steps", "16"], "epsilon = (hbar*kappa)^2/(2M) overflows", "kappa=1e+160"),
        (["propagate", "--family", "u0", "--D", "6", "--kappa", "1e308", "--n-points", "1024"],
         "epsilon = (hbar*kappa)^2/(2M) overflows", "kappa=1e+308"),
        # the Cayley coefficients leave double range before zgttrf, with no numpy warning
        (["propagate", "--family", "u0", "--D", "6", "--n-points", "1024", "--n-steps", "16",
          "--dt", "1e308"],
         "the Crank-Nicolson coefficients dt H/(2 hbar) overflow", "dt=1e+308, kappa=1 (hbar=1"),
        (["propagate", "--family", "u0", "--D", "6", "--n-points", "1024", "--n-steps", "16",
          "--dt", "1e305", "--kappa", "1e5"],
         "the Crank-Nicolson coefficients dt H/(2 hbar) overflow", "dt=1e+305, kappa=100000 (hbar=1"),
    ])
    def test_overflow_names_quantity_and_parameter(self, argv, quantity, parameter, capsys):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert quantity in err and parameter in err, err

    def test_non_finite_integrand_is_named_without_warnings(self, capsys):
        # beta*kappa = 1e-300 puts the u2 support window down to r ~ 1e-302, where
        # u''/u evaluates to inf - inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["energies", "--family", "u2", "--D", "6", "--beta-kappa", "1e-300"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: integrand is not finite on ["), err
        assert "Gauss-Kronrod" not in err

    def test_non_finite_integrand_names_the_radial_window(self, capsys):
        code = main(["energies", "--family", "u2", "--D", "6", "--beta-kappa", "1e-300"])
        assert code == 3
        err = capsys.readouterr().err
        assert "on [-695.136, 4.36039]" in err, err
        assert "r in [1.28e-302, 78.3]" in err, err

    def test_non_finite_integrand_names_the_radial_window_away_from_unit_kappa(self, capsys):
        # the quadrature runs in x = kappa r on the nodes of kappa = 1; the window is named in r
        code = main(["energies", "--family", "u2", "--D", "6", "--beta-kappa", "1e-300", "--kappa", "10"])
        assert code == 3
        err = capsys.readouterr().err
        assert "on [-695.136, 4.36039]" in err, err
        assert "s = ln(kappa r) for r in [1.28e-303, 7.83], kappa=10" in err, err

    def test_non_finite_integrand_names_kappa_at_unit_kappa(self, capsys):
        # the window is named in one wording at every kappa, kappa = 1 included
        code = main(["energies", "--family", "u2", "--D", "6", "--beta-kappa", "1e-300"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.endswith("(the interval is s = ln(kappa r) for r in [1.28e-302, 78.3], kappa=1)\n"), err

    def test_empty_support_window_is_numerical_failure(self, capsys):
        code = main(["energies", "--family", "u2", "--D", "6", "--beta-kappa", "1e300"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: the support window r in [1e+150, 1e+150]"), err
        assert "beta*kappa=1e+300" in err, err

    def test_empty_support_window_names_the_window_in_r(self, capsys):
        code = main(["energies", "--family", "u2", "--D", "6", "--beta-kappa", "1e300", "--kappa", "1e10"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: the support window r in [1e+140, 1e+140]"), err

    def test_u2_slope_underflow_names_quantity_and_parameter(self, capsys):
        argv = ["scaling", "--quantity", "slope", "--family", "u2", "--N", "2:20",
                "--beta-kappa", "1e-300"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: (beta*kappa)^(3/2) of the u2 slope underflows"), err
        assert "beta*kappa=1e-300" in err, err

    @pytest.mark.parametrize("key", ["kappa", "beta_kappa"])
    def test_null_in_config(self, key, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"family": "u2", "D": 6, key: None}))
        assert main(["energies", "--config", str(config)]) == 2
        assert "must be a positive number" in capsys.readouterr().err


class TestScalingCommand:
    def test_u2_energy_exponent(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code = main(
            ["scaling", "--quantity", "energy", "--family", "u2",
             "--component", "t_v", "--N", "10:100", "--output", str(out)]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "fit_exponent=2.04" in err
        assert len(out.read_text().splitlines()) == 92

    def test_slope_exponent_u0(self, capsys):
        assert main(["scaling", "--quantity", "slope", "--family", "u0",
                     "--N", "20:200:5", "--output", "-"]) == 0
        captured = capsys.readouterr()
        assert "fit_exponent=0.50" in captured.err

    def test_fermion_needs_no_family(self, capsys):
        assert main(["scaling", "--quantity", "fermion", "--N", "1:100"]) == 0
        captured = capsys.readouterr()
        assert "fit_exponent=2 " in captured.err or "fit_exponent=2\n" in captured.err
        rows = read_csv_rows(captured.out)
        assert rows[3] == {"N": "4", "D": "12", "value": "8", "units": "hbar*omega"}

    def test_energy_requires_family(self, capsys):
        assert main(["scaling", "--quantity", "energy", "--N", "10:100"]) == 2

    def test_bad_range(self, capsys):
        assert main(["scaling", "--quantity", "fermion", "--N", "ten"]) == 2

    def test_descending_range_includes_its_stop(self, capsys):
        assert main(["scaling", "--quantity", "fermion", "--N", "12:1:-1"]) == 0
        descending = capsys.readouterr()
        assert [int(row["N"]) for row in read_csv_rows(descending.out)] == list(range(12, 0, -1))
        assert main(["scaling", "--quantity", "fermion", "--N", "1:12"]) == 0
        assert descending.err == capsys.readouterr().err  # the same fit
        assert main(["scaling", "--quantity", "fermion", "--N", "12:1:0"]) == 2

    def test_json_output(self, capsys):
        assert main(["scaling", "--quantity", "slope", "--family", "u2",
                     "--N", "10:40", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["quantity"] == "slope"
        assert len(payload["rows"]) == 31

    def test_jobs_flag(self, capsys):
        assert main(["scaling", "--quantity", "fermion", "--N", "1:30", "--jobs", "2"]) == 0

    @pytest.mark.parametrize("argv", [
        ["scaling", "--quantity", "fermion", "--N", "1:30", "--jobs", "0"],
        ["scaling", "--quantity", "slope", "--family", "u2", "--N", "2:20", "--jobs", "-3"],
        ["verify", "--only", "bessel", "--jobs", "0"],
    ])
    def test_jobs_below_one_is_invalid_input(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --jobs must be an integer >= 1, got {int(argv[-1])}\n"


class TestPropagateCommand:
    @pytest.mark.parametrize("extra, dt_cap", [([], "centrifugal"), (["--dt", "1e-5"], "given")])
    def test_sidecar_records_the_cap_that_set_dt(self, extra, dt_cap, tmp_path, capsys):
        out = tmp_path / "run.csv"
        assert main(["propagate", "--family", "u0", "--D", "6", "--n-points", "1024",
                     "--n-steps", "16", "--output", str(out), *extra]) == 0
        sidecar = json.loads((tmp_path / "run.config.json").read_text())
        assert (sidecar["dt_cap"], sidecar["n_steps"]) == (dt_cap, 16)

    def test_writes_series_and_sidecar(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code = main(
            ["propagate", "--family", "u0", "--D", "6", "--n-points", "1024",
             "--n-steps", "200", "--record-every", "10", "--output", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,p_r_mean,norm"
        assert lines[1] == "natural,hbar*kappa,dimensionless"
        assert len(lines) == 2 + 21  # t=0 plus 20 records
        sidecar = json.loads((tmp_path / "run.config.json").read_text())
        assert sidecar["state"]["family"] == "u0"
        assert sidecar["grid"]["n_points"] == 1024
        err = capsys.readouterr().err
        assert "measured_slope=" in err and "ratio=" in err

    def test_sidecar_grid_replays_the_run(self, tmp_path, capsys):
        # the sidecar's r_max is the outer wall that --r-max sets, one spacing past the last
        # node, so a run on the sidecar's grid writes the same bytes; the JSON payload shares it
        argv = ["propagate", "--family", "u1", "--D", "9", "--n-points", "1024"]
        assert main([*argv, "--output", str(tmp_path / "a.csv")]) == 0
        grid = json.loads((tmp_path / "a.config.json").read_text())["grid"]
        assert grid["r_max"] == (grid["n_points"] + 1) * grid["spacing"]
        assert main(["propagate", "--family", "u1", "--D", "9", "--r-max", repr(grid["r_max"]),
                     "--n-points", str(grid["n_points"]), "--output", str(tmp_path / "b.csv")]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        capsys.readouterr()
        assert main([*argv, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["grid"] == grid

    @pytest.mark.parametrize("r_max", ["1e-300", "1e200"])
    def test_grid_without_the_profile_is_named_before_dt(self, r_max, capsys):
        # |u|^2 underflows on every node of both grids; at 1e200 (kappa r)^2 overflows
        # on the way, and the kinetic cap's h^2 would overflow if it came first
        argv = ["propagate", "--family", "u0", "--D", "6", "--r-max", r_max, "--n-points", "1024"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the u0 profile at D=6, beta*kappa=1 underflows on the grid"), err

    def test_n_steps_counts_steps_not_samples(self, tmp_path, capsys):
        argv = ["propagate", "--family", "u0", "--D", "6", "--n-points", "1024",
                "--n-steps", "100", "--record-every", "10"]
        assert main([*argv, "--output", str(tmp_path / "run.csv")]) == 0
        assert main([*argv, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        sidecar = json.loads((tmp_path / "run.config.json").read_text())
        assert (sidecar["n_steps"], payload["n_steps"], len(payload["series"]["t"])) == (100, 100, 11)

    def test_deterministic_output(self, tmp_path, capsys):
        texts = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main(
                ["propagate", "--family", "u2", "--D", "30", "--n-points", "1024",
                 "--n-steps", "64", "--output", str(out)]
            ) == 0
            texts.append(out.read_text())
        capsys.readouterr()
        assert texts[0] == texts[1]

    def test_files_do_not_depend_on_blas_threads(self, tmp_path, child_env):
        # the step's banded solves run in the BLAS library, whose thread count
        # must not reach the files
        child_env.pop("OPENBLAS_NUM_THREADS", None)
        for name, extra in (("one", {"OPENBLAS_NUM_THREADS": "1"}), ("default", {})):
            argv = ["propagate", "--family", "u2", "--D", "30", "--n-points", "1024",
                    "--output", str(tmp_path / f"{name}.csv")]
            subprocess.run([sys.executable, "-m", "hyperradial.cli", *argv],
                           env={**child_env, **extra}, capture_output=True, check=True)
        for suffix in (".csv", ".config.json"):
            assert filecmp.cmp(tmp_path / f"one{suffix}", tmp_path / f"default{suffix}",
                               shallow=False)

    def test_unwritable_sidecar(self, tmp_path, capsys):
        (tmp_path / "run.config.json").mkdir()
        code = main(
            ["propagate", "--family", "u0", "--D", "6", "--n-points", "1024",
             "--n-steps", "32", "--output", str(tmp_path / "run.csv")]
        )
        assert code == 2
        assert "error: cannot write" in capsys.readouterr().err

    def test_json_format(self, capsys):
        code = main(
            ["propagate", "--family", "u0", "--D", "3", "--n-points", "1024",
             "--n-steps", "32", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["series"]["t"]) == 33
        assert payload["series"]["p_r_mean"][0] == 0.0

    @pytest.mark.parametrize("dt", ["nan", "inf"])
    def test_non_finite_dt_is_invalid_input(self, dt, capsys):
        code = main(["propagate", "--family", "u0", "--D", "6", "--n-points", "1024", "--dt", dt])
        assert code == 2
        assert "error: dt must be positive and finite" in capsys.readouterr().err

    def test_window_fallback_is_reported(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code = main(
            ["propagate", "--family", "u0", "--D", "6", "--n-points", "1024",
             "--dt", "0.002", "--n-steps", "10", "--output", str(out)]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "note: fewer than 4 samples inside the fit window" in err
        assert "fitted all 11 recorded samples instead" in err
        assert "measured_slope=" in err
        assert len(out.read_text().splitlines()) == 2 + 11

    @pytest.mark.parametrize("dt, n_steps", [("1e300", "16"), ("1", "4")])
    def test_dt_past_the_linearity_window_is_invalid_input(self, dt, n_steps, tmp_path, capsys):
        # every recorded sample lies past t = 0.1, where <p_r> has long left slope * t: at
        # 1e300 each step is about u -> -u and the series reads 0, at 1 the fit reads 0.43
        out = tmp_path / "r.csv"
        code = main(["propagate", "--family", "u0", "--D", "6", "--n-points", "1024",
                     "--n-steps", n_steps, "--dt", dt, "--output", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --dt {float(dt):.12g} x --record-every 1 puts the first "
                              f"sample at t={float(dt):.12g}, past the linearity window t <= 0.1"), err
        assert "measured_slope" not in err
        assert not out.exists()
        assert not (tmp_path / "r.config.json").exists()

    @pytest.mark.parametrize("family, d, kappa, r_max", [
        ("u0", "6", "1e150", "1e200"), ("u2", "30", "1e150", "1e200"), ("u0", "6", "1e300", "1e10"),
    ])
    def test_node_overflow_is_numerical_failure(self, family, d, kappa, r_max, capsys):
        # x = kappa r overflows at the outer nodes: exit 3 naming kappa and r_max, with no
        # numpy warning and no under- or overflowing profile blamed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["propagate", "--family", family, "--D", d, "--kappa", kappa,
                         "--r-max", r_max, "--n-points", "1024"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical failure: the outer node x = kappa*r_max "
                                       f"overflows at kappa={float(kappa):g}, r_max="), captured.err

    def test_unfittable_run_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = main(
            ["propagate", "--family", "u0", "--D", "6", "--n-points", "1024",
             "--n-steps", "3", "--output", str(out)]
        )
        assert code == 2
        assert "need at least 4 non-zero-time samples" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "r.config.json").exists()

    def test_default_step_fits_at_large_d(self, capsys):
        assert main(["propagate", "--family", "u0", "--D", "1200"]) == 0
        err = capsys.readouterr().err
        assert "note:" not in err
        ratio = float(err.split("ratio=")[1].split()[0])
        assert ratio == pytest.approx(1.0, rel=1e-2)

    def test_divergent_slope_is_invalid_input(self, tmp_path, monkeypatch, capsys):
        # <r^-3> diverges for u0 at D=2: no slope exists to measure, so no step runs
        monkeypatch.setattr(cli, "propagate_free", lambda *args, **kwargs: pytest.fail("stepped"))
        out = tmp_path / "r.csv"
        code = main(["propagate", "--family", "u0", "--D", "2", "--n-points", "1024",
                     "--output", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: <r^-3> does not exist for u0 at D=2"), captured.err
        assert not out.exists()
        assert not (tmp_path / "r.config.json").exists()

    def test_profile_not_vanishing_at_origin_rejected(self, capsys):
        assert main(["propagate", "--family", "u0", "--D", "1", "--n-points", "1024"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: u0 at D=1 does not vanish at the origin")

    def test_profile_underflowing_on_the_grid_rejected(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["propagate", "--family", "u2", "--D", "6", "--beta-kappa", "1e100",
                         "--n-points", "1024"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the u2 profile at D=6, beta*kappa=1e+100 underflows"), err

    def test_reflection_is_numerical_failure(self, capsys):
        code = main(
            ["propagate", "--family", "u0", "--D", "6", "--n-points", "512",
             "--r-max", "11", "--dt", "2e-3", "--n-steps", "4000",
             "--record-every", "50"]
        )
        assert code == 3
        assert "reflection" in capsys.readouterr().err


class TestVerifyCommand:
    def test_default_run_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4 and "FAIL" not in out

    def test_fault_injection_detected(self, capsys):
        assert main(["verify", "--only", "normalization", "--perturb-norm", "1e-3"]) == 1
        assert "FAIL normalization" in capsys.readouterr().out

    def test_only_eigenstate(self, capsys):
        assert main(["verify", "--only", "eigenstate"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS eigenstate") and out.count("\n") == 1

    def test_parallel_jobs(self, capsys):
        assert main(["verify", "--jobs", "2"]) == 0
        assert capsys.readouterr().out.count("PASS") == 4

    def test_nan_deviation_fails(self, capsys):
        assert main(["verify", "--only", "normalization", "--perturb-norm", "nan"]) == 1
        assert "FAIL normalization: max |norm - 1| = nan" in capsys.readouterr().out


class TestClosedPipe:
    @pytest.mark.parametrize("argv, unbuffered", [
        (["scaling", "--quantity", "slope", "--family", "u2", "--N", "2:20", "--beta-kappa", "1e-150"], ""),
        (["scaling", "--quantity", "slope", "--family", "u2", "--N", "2:20", "--beta-kappa", "1e-150"], "1"),
        (["verify", "--only", "eigenstate"], ""),
    ], ids=["table-buffered", "table-unbuffered", "print-buffered"])
    def test_reader_gone_before_output_ends_quietly(self, argv, unbuffered, child_env):
        # the read end is closed before the child starts, so its first write or flush breaks
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(child_env, PYTHONUNBUFFERED=unbuffered)
        try:
            child = subprocess.run([sys.executable, "-m", "hyperradial.cli", *argv], env=env,
                                   stdout=write_end, stderr=subprocess.PIPE, timeout=120)
        finally:
            os.close(write_end)
        assert (child.returncode, child.stderr) == (cli.EXIT_OK, b"")


class TestSerialPath:
    def test_no_process_pool_is_started(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("a process pool was started")

        for module in (scaling, cli):
            monkeypatch.setattr(module, "ProcessPoolExecutor", refuse, raising=False)
        params = PhysicalParams()
        assert len(scaling.fermion_scaling_table(range(1, 41), params, jobs=2).rows) == 40
        table = scaling.slope_scaling_table(StateFamily.U2, range(2, 41), params, jobs=2)
        assert len(table.rows) == 39
        assert main(["verify", "--jobs", "2"]) == 0
        assert capsys.readouterr().out.count("PASS") == 4


def _subcommand_options(parser):
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: {
            (action.option_strings[0] if action.option_strings else action.dest):
                (action.dest, action.type, action.default,
                 tuple(action.choices) if action.choices else None, action.required)
            for action in subparser._actions if action.dest != "help"
        }
        for name, subparser in sub.choices.items()
    }


class TestParserOptions:
    def test_each_subcommand_keeps_its_flags(self):
        family = ("family", None, None, ("u0", "u1", "u2"), False)
        kappa = ("kappa", float, 1.0, None, False)
        beta_kappa = ("beta_kappa", float, 1.0, None, False)
        output = ("output", None, None, None, False)
        fmt = ("format", None, "csv", ("csv", "json"), False)
        config = ("config", None, None, None, False)
        jobs = ("jobs", int, 1, None, False)
        state = {
            "--family": family,
            "--D": ("D", int, None, None, False),
            "--N": ("N", int, None, None, False),
            "--kappa": kappa,
            "--beta-kappa": beta_kappa,
            "--output": output,
            "--format": fmt,
            "--config": config,
        }
        assert _subcommand_options(build_parser()) == {
            "energies": state,
            "scaling": {
                "--quantity": ("quantity", None, None, ("energy", "slope", "fermion"), True),
                "--family": family,
                "--component": ("component", None, "total", ("total", "t_r", "t_v"), False),
                "--N": ("N", None, None, None, True),
                "--kappa": kappa,
                "--beta-kappa": beta_kappa,
                "--jobs": jobs,
                "--output": output,
                "--format": fmt,
                "--config": config,
            },
            "propagate": {
                **state,
                "--n-points": ("n_points", int, 4096, None, False),
                "--r-max": ("r_max", float, None, None, False),
                "--dt": ("dt", float, None, None, False),
                "--n-steps": ("n_steps", int, None, None, False),
                "--record-every": ("record_every", int, 1, None, False),
            },
            "verify": {
                "--only": ("only", None, None,
                           ("normalization", "energies", "eigenstate", "bessel"), False),
                "--perturb-norm": ("perturb_norm", float, 0.0, None, False),
                "--jobs": jobs,
                "--config": config,
            },
            "recipe": {
                "name": ("name", None, None, None, False),
                "--list": ("list", None, False, None, False),
                "--output": output,
            },
        }


class TestRecipeCommand:
    def test_list(self, capsys):
        assert main(["recipe", "--list"]) == 0
        out = capsys.readouterr().out
        assert "tv-quadratic" in out and "sqrt-slope" in out

    def test_list_writes_output_file(self, tmp_path, capsys):
        assert main(["recipe", "--list"]) == 0
        listed = capsys.readouterr().out
        out = tmp_path / "recipes.txt"
        assert main(["recipe", "--list", "--output", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == listed

    def test_unknown(self, capsys):
        assert main(["recipe", "does-not-exist"]) == 2

    def test_thermodynamic_recipe(self, capsys):
        assert main(["recipe", "thermodynamic"]) == 0
        rows = read_csv_rows(capsys.readouterr().out)
        by_name = {row["quantity"]: row for row in rows}
        assert float(by_name["total"]["closed_form"]) == pytest.approx(15.0, rel=1e-12)

    def test_tv_quadratic_recipe(self, tmp_path, capsys):
        out = tmp_path / "tv.csv"
        assert main(["recipe", "tv-quadratic", "--output", str(out)]) == 0
        assert out.exists()
        assert "fit_exponent=2.04" in capsys.readouterr().err


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"family": "u0", "N": 2}))
        assert main(["energies", "--config", str(config)]) == 0
        rows = read_csv_rows(capsys.readouterr().out)
        by_name = {row["quantity"]: row for row in rows}
        assert float(by_name["total"]["closed_form"]) == pytest.approx(3.0)

    def test_cli_flag_wins_over_config(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"family": "u0", "N": 2}))
        assert main(["energies", "--config", str(config), "--family", "u1"]) == 0
        payload = capsys.readouterr().out
        assert "1.0625" in payload  # u1 t_r at D=6

    def test_abbreviated_flag_is_rejected(self, tmp_path, capsys):
        # a prefix of --family would otherwise lose to the config's family
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"family": "u0", "D": 6}))
        with pytest.raises(SystemExit) as exc:
            main(["energies", "--config", str(config), "--fam", "u1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --fam" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"family": "u0", "N": 2, "tempo": 9}))
        assert main(["energies", "--config", str(config)]) == 2
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", [{"D": 6.7}, {"N": True}, {"D": "7"}, {"N": 2.5}])
    def test_non_integer_dimension_in_config(self, entry, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"family": "u0", **entry}))
        assert main(["energies", "--config", str(config)]) == 2
        assert "must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key, value", [
        ("energies", "family", "u9"),
        ("propagate", "dt", "abc"),
        ("propagate", "n_points", "x"),
        ("verify", "perturb_norm", "abc"),
        ("verify", "only", "nope"),
        ("propagate", "n_points", 1024.9),
        ("energies", "format", "xml"),
    ])
    def test_value_is_checked_like_its_flag(self, command, key, value, tmp_path, capsys):
        base = {
            "energies": {"family": "u0", "D": 6},
            "propagate": {"family": "u0", "D": 6, "n_points": 1024, "n_steps": 16},
            "verify": {"only": "eigenstate"},
        }[command]
        config = tmp_path / "run.json"
        config.write_text(json.dumps({**base, key: value}))
        assert main([command, "--config", str(config)]) == 2
        assert f"config key {key!r} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["scaling", "--quantity", "fermion", "--N", "1:30"],
        ["verify", "--only", "bessel"],
    ])
    def test_jobs_below_one_in_config(self, argv, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"jobs": 0}))
        assert main([*argv, "--config", str(config)]) == 2
        assert capsys.readouterr().err == "error: --jobs must be an integer >= 1, got 0\n"

    def test_config_must_hold_an_object(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps([{"family": "u0", "D": 6}]))
        assert main(["energies", "--config", str(config)]) == 2
        assert "must hold a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["N", "output"])
    def test_null_is_the_flag_default(self, key, tmp_path, capsys):
        outputs = []
        for extra in ({}, {key: None}):
            config = tmp_path / "run.json"
            config.write_text(json.dumps({"family": "u0", "D": 6, **extra}))
            assert main(["energies", "--config", str(config)]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]

    def test_unreadable_config(self, tmp_path):
        assert main(["energies", "--config", str(tmp_path / "nope.json")]) == 2
