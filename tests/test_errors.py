import inspect
import pickle

import pytest

from ssaforecast import errors
from ssaforecast.mlp import TraceEntry

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
                                [TraceEntry(1, 0.5, 0.25), TraceEntry(2, 0.75, 0.5)]),
    errors.NonFiniteOutput: ("closed-loop prediction became non-finite", [0.1, -0.2]),
    errors.ZeroVarianceTargets: (1.9812,),
}


@pytest.mark.parametrize("cls", PUBLIC_ERRORS, ids=lambda cls: cls.__name__)
def test_error_survives_pickle(cls):
    exc = cls(*ARGS.get(cls, ("something went wrong",)))
    # what compare attaches before raising an error from one of its tasks
    exc.stage_traces = ((TraceEntry(1, 0.5, 0.25),),)
    exc.completed_seeds = (4, 5)
    copy = pickle.loads(pickle.dumps(exc))
    assert type(copy) is cls
    assert str(copy) == str(exc)
    assert copy.args == exc.args
    assert vars(copy) == vars(exc)
    for name in ("trace", "partial", "stage_traces", "completed_seeds"):
        assert getattr(copy, name, None) == getattr(exc, name, None)


def test_every_family_is_covered():
    names = {cls.__name__ for cls in PUBLIC_ERRORS}
    assert {"ValidationError", "RuntimeFailure", "ParseError", "BadHorizon",
            "ZeroVarianceTargets", "NonMonotonicTime"} <= names
