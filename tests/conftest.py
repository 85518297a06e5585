import os
import subprocess
import sys

import numpy as np
import pytest

import specflow


def haar_unitary(dim, rng):
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    X = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    Q, R = np.linalg.qr(X)
    # fix the phase ambiguity so the distribution is exactly Haar
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def run_fresh(code):
    """Standard output of `code` run in a fresh interpreter that imports
    this checkout's specflow."""
    src = os.path.dirname(os.path.dirname(specflow.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True).stdout


def random_hermitian(dim, rng, scale=1.0):
    H = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (H + H.conj().T) / 2.0


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
