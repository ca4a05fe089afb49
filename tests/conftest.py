import os
import sys
from pathlib import Path

# Run from a checkout that is not installed: import the package from src, and
# let the `python -m betaplane` child processes of the CLI tests do the same.
SRC = str(Path(__file__).resolve().parent.parent / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
if SRC not in os.environ.get("PYTHONPATH", "").split(os.pathsep):
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

import numpy as np
import pytest

from betaplane import atlas


@pytest.fixture(scope="session")
def beta_star():
    """Transition value at the default resolution; shared across the session."""
    return atlas.find_beta_star(tol=1e-5, resolution=256)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
