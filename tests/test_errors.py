"""Pipeline errors survive the trip from a worker process to its parent."""

import pickle

from defacepipe.errors import DefacepipeError, NotNifti, StageError


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_error_round_trips_through_pickle():
    for kind in _subclasses(DefacepipeError):
        if kind is StageError:
            err = StageError(6, NotNifti("bad magic"))
        else:
            err = kind("something went wrong")
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is kind
        assert str(back) == str(err)
        if kind is StageError:
            assert back.stage == 6
            assert type(back.cause) is NotNifti
            assert str(back.cause) == "bad magic"
