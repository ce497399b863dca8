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
