"""``import sapgp`` pins BLAS to one thread, and warns when it is too late."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def import_warnings(code, **env_vars):
    """Stderr of a fresh interpreter running ``code`` with every BLAS
    variable unset except ``env_vars``, under the default warning filters."""
    env = {key: value for key, value in os.environ.items()
           if key not in BLAS_VARS + ("PYTHONWARNINGS",)}
    env.update(env_vars, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return proc.stderr


def test_numpy_first_with_no_thread_variable_warns():
    stderr = import_warnings("import numpy, sapgp")
    assert stderr.count("RuntimeWarning") == 1
    assert "OPENBLAS_NUM_THREADS=1" in stderr


@pytest.mark.parametrize("code, env_vars", [
    ("import sapgp, numpy", {}),
    ("import numpy, sapgp", {"OMP_NUM_THREADS": "2"}),
], ids=["sapgp_first", "user_set_variable"])
def test_import_is_silent(code, env_vars):
    assert import_warnings(code, **env_vars) == ""


def test_cli_imports_no_scipy():
    # the package depends on numpy alone; scipy.linalg would add about 170 ms
    # of import time and 21 MB of peak memory to every command
    code = "import sys, sapgp.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {key: value for key, value in os.environ.items() if key != "PYTHONWARNINGS"}
    proc = subprocess.run([sys.executable, "-c", code], env={**env, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"
