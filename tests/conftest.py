import os
import subprocess
import sys
from pathlib import Path

import pytest

import raschdesign as rd

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def fresh_python():
    """Run ``python <args>`` in a new interpreter that imports this checkout."""

    def run(*args, cwd=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=120)

    return run


def dense_vertices(pm):
    """All 2^k vertex matrices lambda(x) f(x) f(x)^T of polytope ``pm``, row x
    for setting x: the dense oracle that the lattice chart replaces."""
    rows = rd.regression_matrix(pm.model).astype(float)
    lam = rd.intensities(pm.theta, pm.model)
    return lam[:, None, None] * rows[:, :, None] * rows[:, None, :]
