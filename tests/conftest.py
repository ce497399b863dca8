import importlib.util
from pathlib import Path

import numpy as np
import pytest

from twophase.problems import IDEAL_PAIR, STIFF_PAIR
from twophase.state import PrimitiveState


@pytest.fixture(scope="session")
def ideal_pair():
    return IDEAL_PAIR


@pytest.fixture(scope="session")
def stiff_pair():
    return STIFF_PAIR


def random_states(rng, n, alpha=(0.05, 0.95), rho=(0.1, 5.0), u=(-3.0, 3.0)):
    """Generator of valid random primitive states."""
    for _ in range(n):
        yield PrimitiveState(
            rng.uniform(*alpha),
            rng.uniform(*rho),
            rng.uniform(*rho),
            rng.uniform(*u),
            rng.uniform(*u),
        )


def random_state_array(rng, n, alpha=(0.05, 0.95), rho=(0.1, 5.0), u=(-3.0, 3.0)):
    return np.column_stack(
        [
            rng.uniform(*alpha, n),
            rng.uniform(*rho, n),
            rng.uniform(*rho, n),
            rng.uniform(*u, n),
            rng.uniform(*u, n),
        ]
    )


def snapshot_tool():
    """tools/fv_snapshot.py loaded as a module (the tools are no package)."""
    path = Path(__file__).resolve().parent.parent / "tools" / "fv_snapshot.py"
    spec = importlib.util.spec_from_file_location("fv_snapshot", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def coincident_state(pair, alpha1=0.45, rho1=1.1, rho2=0.8, u=0.2):
    """State with (u - u1)^2 = a1^2, i.e. lambda_{1+} = lambda_C."""
    a1 = pair.phase1.sound_speed(rho1)
    rho = alpha1 * rho1 + (1 - alpha1) * rho2
    c2 = (1 - alpha1) * rho2 / rho
    w = -a1 / c2  # u - u1 = -c2 w = a1
    c1 = 1 - c2
    return PrimitiveState(alpha1, rho1, rho2, u + c2 * w, u - c1 * w)
