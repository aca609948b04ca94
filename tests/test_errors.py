import inspect
import pickle

import numpy as np
import pytest

from ssaforecast import errors
from ssaforecast.curriculum import ComparisonResult, SeedComparison

PUBLIC_ERRORS = sorted(
    (cls for cls in vars(errors).values()
     if inspect.isclass(cls) and issubclass(cls, errors.SsaForecastError)),
    key=lambda cls: cls.__name__,
)

# constructor arguments of the classes that take more than a message
ARGS = {
    errors.ParseError: (7, "value", "cell is empty"),
    errors.NonMonotonicTime: (12,),
    errors.DivergenceDetected: ("training error became non-finite at epoch 3",
                                np.array([[0.5, 0.25], [0.75, 0.5]])),
    errors.NonFiniteOutput: ("closed-loop prediction became non-finite", np.array([0.1, -0.2])),
}


def same(got, want) -> bool:
    """Equal, arrays (also inside tuples) by dtype and np.array_equal."""
    if isinstance(want, np.ndarray):
        return (isinstance(got, np.ndarray) and got.dtype == want.dtype
                and np.array_equal(got, want))
    if isinstance(want, tuple):
        return isinstance(got, tuple) and len(got) == len(want) and all(map(same, got, want))
    return got == want


@pytest.mark.parametrize("cls", PUBLIC_ERRORS, ids=lambda cls: cls.__name__)
def test_error_survives_pickle(cls):
    exc = cls(*ARGS.get(cls, ("something went wrong",)))
    # what compare attaches before raising an error from one of its tasks
    exc.stage_traces = (np.array([[0.5, 0.25]]), np.empty((0, 2)))
    exc.completed = ComparisonResult((SeedComparison(4, 0.5, 0.25, 1.5, 2.0, 10, 10),), None)
    copy = pickle.loads(pickle.dumps(exc))
    assert type(copy) is cls
    assert str(copy) == str(exc)
    assert copy.args == exc.args
    assert vars(copy).keys() == vars(exc).keys()
    for name in vars(exc):
        assert same(getattr(copy, name), getattr(exc, name))


def test_every_family_is_covered():
    names = {cls.__name__ for cls in PUBLIC_ERRORS}
    assert {"ValidationError", "RuntimeFailure", "ParseError", "BadHorizon",
            "NonFiniteOutput", "NonMonotonicTime"} <= names
