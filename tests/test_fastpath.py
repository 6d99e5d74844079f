"""The execution-backend switch (:mod:`repro.fastpath`): the names it
accepts, and the import path it keeps free of numpy."""

import os
import subprocess
import sys

import pytest

import repro
from repro import fastpath

#: the directory holding the ``repro`` package under test
SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def run_python(code, **env):
    """Run ``code`` in a fresh interpreter that imports this ``repro``."""
    environ = dict(os.environ, PYTHONPATH=SRC, **env)
    return subprocess.run(
        [sys.executable, "-c", code],
        env=environ,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_backends_are_reference_and_fast():
    assert fastpath.BACKENDS == ("reference", "fast")


def test_set_backend_refuses_unknown_name():
    before = fastpath.backend()
    with pytest.raises(ValueError, match="compiled"):
        fastpath.set_backend("compiled")
    assert fastpath.backend() == before


def test_unknown_environment_backend_fails_import():
    proc = run_python("import repro", ROLP_BACKEND="compiled")
    assert proc.returncode != 0
    assert "ROLP_BACKEND='compiled' is not one of reference, fast" in proc.stderr


def test_cli_import_leaves_numpy_unloaded():
    """No module on the CLI's import path may import numpy at module
    level: it would add its import time and RSS to every process."""
    proc = run_python("import sys, repro.bench.cli; print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
