import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import raschdesign as rd
from raschdesign import regions

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


def lattice_verdict(w, theta, m):
    """``kw_certificate`` on the 2^k lattice, whatever ``w`` and ``theta``: the
    oracle of its orbit path, and a check of the orbit optimizer's output
    that does not run that optimizer's kernel."""
    d = rd.sensitivities(w, theta, m)
    return regions._verdict(d, np.arange(d.size), float(m.p), regions.KW_TOL, m.k)


def dense_vertices(pm):
    """All 2^k vertex matrices lambda(x) f(x) f(x)^T of polytope ``pm``, row x
    for setting x: the dense oracle that the lattice chart replaces."""
    rows = rd.regression_matrix(pm.model).astype(float)
    lam = rd.intensities(pm.theta, pm.model)
    return lam[:, None, None] * rows[:, :, None] * rows[:, None, :]


def model_matrix(m):
    """0/1 inclusion matrix F with F[A, B] = 1 iff B is a subset of A.

    Rows and columns follow the canonical subset order, making F unit
    lower triangular with determinant one.
    """
    masks = np.asarray(m.masks, dtype=np.int64)
    return ((masks[:, None] & masks[None, :]) == masks[None, :]).astype(np.int64)


def inverse_model_matrix(m):
    """Exact integer inverse of the model matrix.

    Entry (A, B) is (-1)^(|A|-|B|) when B is a subset of A and 0 otherwise.
    """
    cards = np.asarray(m.cards, dtype=np.int64)
    signs = np.where((cards[:, None] - cards[None, :]) % 2 == 0, 1, -1)
    return model_matrix(m) * signs


def transform_vector(x, m):
    """The integer vector F^{-T} f(x) in closed form.

    For a setting with at most d active rules this is the standard basis
    vector of the active subset.  Otherwise the entry at subset A equals
    (-1)^(d-|A|) C(|A(x)|-|A|-1, d-|A|) when A is active in x, else 0.
    """
    xm = rd.setting_mask(x, m.k)
    a = xm.bit_count()
    out = np.zeros(m.p, dtype=np.int64)
    if a <= m.d:
        out[m.position(xm)] = 1
        return out
    for idx, (mask, c) in enumerate(zip(m.masks, m.cards)):
        if xm & mask == mask:
            sign = -1 if (m.d - c) % 2 else 1
            out[idx] = sign * rd.choose(a - c - 1, m.d - c)
    return out
