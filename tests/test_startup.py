"""Start-up cost of the closed-form commands: no numpy, no process-pool machinery.

The tables of `scaling` and the table recipes are closed forms on `math`
alone; numpy is imported by the functions that build or evaluate arrays,
and `concurrent.futures` only when `ProcessPoolExecutor` is looked up.  A
propagation loads LAPACK from scipy's compiled `_flapack` module without
importing the `scipy` package or `scipy.linalg`.
"""

import concurrent.futures
import subprocess
import sys

import pytest

from hyperradial import cli, scaling

CLOSED_FORM_COMMANDS = [
    ["recipe", "--list"],
    ["recipe", "tv-quadratic"],
    ["recipe", "sqrt-slope"],
    ["recipe", "n2-slope"],
    ["recipe", "fermion-ladder"],
    ["scaling", "--quantity", "energy", "--family", "u2", "--component", "total", "--N", "2:100"],
    ["scaling", "--quantity", "slope", "--family", "u1", "--N", "2:100"],
]


def test_cli_import_loads_neither_numpy_nor_concurrent_futures(child_env):
    code = ("import sys, hyperradial.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('numpy', 'concurrent')))")
    out = subprocess.run([sys.executable, "-c", code], env=child_env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", CLOSED_FORM_COMMANDS, ids=" ".join)
def test_closed_form_command_imports_no_numpy(argv, child_env):
    # -X importtime logs every module imported during the whole run, deferred ones included
    out = subprocess.run([sys.executable, "-X", "importtime", "-m", "hyperradial.cli", *argv],
                         env=child_env, capture_output=True, text=True, check=True)
    imported = [line.rsplit("|", 1)[-1].strip() for line in out.stderr.splitlines()
                if line.startswith("import time:")]
    assert "hyperradial.scaling" in imported
    assert [m for m in imported if m.split(".")[0] == "numpy"] == []


@pytest.mark.parametrize("module", [cli, scaling], ids=lambda m: m.__name__)
def test_process_pool_name_is_looked_up_lazily(module):
    assert module.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor
    with pytest.raises(AttributeError, match="no attribute 'ThreadPoolExecutor'"):
        module.ThreadPoolExecutor


def test_propagation_leaves_scipy_linalg_unimported(child_env):
    code = ("import sys\n"
            "from hyperradial import cli, make_state, propagate_free, RadialGrid\n"
            "argv = ['propagate', '--family', 'u2', '--D', '30', '--n-points', '1024']\n"
            "assert cli.main(argv) == 0\n"
            "state = make_state('u0', 6)\n"
            "propagate_free(state, RadialGrid.for_state(state, 1024), n_steps=4)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=child_env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "['scipy.linalg._flapack']"


def test_lapack_loader_returns_the_get_lapack_funcs_pair():
    import numpy as np
    from scipy.linalg import get_lapack_funcs

    from hyperradial import dynamics

    gttrf, tbtrs = get_lapack_funcs(("gttrf", "tbtrs"), (np.zeros(3, dtype=np.complex128),))
    loaded = dynamics._tridiagonal_lapack()
    assert loaded[0] is gttrf and loaded[1] is tbtrs
    assert dynamics._tridiagonal_lapack() is loaded
