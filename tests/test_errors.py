"""Every package error survives pickling, as it must to leave a worker process."""

import inspect
import pickle

import pytest

from twophase import errors

INSTANCES = [
    errors.TwoPhaseError("base"),
    errors.EosDomainError("density -1 outside the domain"),
    errors.StateDecodeError("alpha1 outside (0, 1)"),
    errors.InadmissibleWaveError("Lax condition fails"),
    errors.OutOfFanError("xi outside the fan"),
    errors.DegenerateShockError("zero mass flux"),
    errors.NumericsError("Newton stalled", residual=2.5e-3),
    errors.ConstructionError("1-", "no admissible root"),
    errors.PositivityError("cell 4 broke", cell=4, time=0.125),
    errors.RelaxationError("no bracket"),
    errors.ConfigError("bad key"),
]


def test_instances_cover_every_error_type():
    defined = {
        obj for obj in vars(errors).values()
        if inspect.isclass(obj) and issubclass(obj, errors.TwoPhaseError)
    }
    assert {type(e) for e in INSTANCES} == defined


@pytest.mark.parametrize("exc", INSTANCES, ids=lambda e: type(e).__name__)
def test_error_pickle_round_trip(exc):
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert back.args == exc.args
    assert vars(back) == vars(exc)
