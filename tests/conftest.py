import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from twophase.problems import IDEAL_PAIR, STIFF_PAIR
from twophase.state import PrimitiveState


@pytest.fixture(scope="session")
def ideal_pair():
    return IDEAL_PAIR


@pytest.fixture(scope="session")
def stiff_pair():
    return STIFF_PAIR


def primitive_rows():
    """Hypothesis rows (alpha1, rho1, rho2, u1, u2): alpha1 in (0.01, 0.99),
    densities over four decades (1e-2 to 1e2) and |u| <= 100.  Speeds
    below 1e-300 become 0, so that every partial momentum is a normal
    float: a subnormal one holds fewer than 53 bits, whatever the algebra."""
    density = st.floats(-2.0, 2.0).map(lambda e: 10.0**e)
    velocity = st.floats(-100.0, 100.0).map(lambda u: u if abs(u) >= 1e-300 else 0.0)
    alpha = st.floats(0.01, 0.99, exclude_min=True, exclude_max=True)
    return st.tuples(alpha, density, density, velocity, velocity).map(np.array)


def round_trip_error(v, back):
    """Per component |back - v| over the component's own scale: 1 for
    alpha1, the larger phase density for rho1, rho2, the larger phase
    speed for u1, u2 (zero speeds must come back exactly)."""
    rho, speed = max(v[1], v[2]), max(abs(v[3]), abs(v[4]))
    scale = np.array([1.0, rho, rho, speed, speed])
    err = np.abs(np.asarray(back) - v)
    return np.divide(err, scale, out=np.where(err > 0.0, np.inf, 0.0), where=scale > 0.0)


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
