import sys

import pytest

from lglab import (
    Distribution,
    Measurement,
    MeasurementUpdate,
    OnticModel,
    OnticStateSpace,
    ResponseFunction,
)
from builders import identity

PLUS = "+1"
MINUS = "-1"
OUTCOMES = (PLUS, MINUS)


@pytest.fixture
def spin_model():
    """Four pure states |0>, |1>, |+>, |-> with projective z and x readings.

    Small enough to verify every number by hand; rich enough to exhibit
    collapse-induced disturbance (measuring z destroys x statistics).
    """
    space = OnticStateSpace(("z0", "z1", "x0", "x1"))
    point = {s: Distribution.point_mass(space, s) for s in space.states}
    half = {PLUS: 0.5, MINUS: 0.5}

    mz = Measurement(
        "Mz",
        ResponseFunction(
            space,
            OUTCOMES,
            {
                "z0": {PLUS: 1.0, MINUS: 0.0},
                "z1": {PLUS: 0.0, MINUS: 1.0},
                "x0": dict(half),
                "x1": dict(half),
            },
        ),
        MeasurementUpdate(space, OUTCOMES, outcome_rows={PLUS: point["z0"], MINUS: point["z1"]}),
    )
    mx = Measurement(
        "Mx",
        ResponseFunction(
            space,
            OUTCOMES,
            {
                "x0": {PLUS: 1.0, MINUS: 0.0},
                "x1": {PLUS: 0.0, MINUS: 1.0},
                "z0": dict(half),
                "z1": dict(half),
            },
        ),
        MeasurementUpdate(space, OUTCOMES, outcome_rows={PLUS: point["x0"], MINUS: point["x1"]}),
    )
    # same response statistics as Mz but a forgetful update
    mz_alt = Measurement(
        "Mz-alt",
        ResponseFunction(space, OUTCOMES, dict(mz.response.table)),
        MeasurementUpdate(space, OUTCOMES, outcome_rows={PLUS: point["z0"], MINUS: point["z0"]}),
    )
    return OnticModel(
        space=space,
        preparations={"zero": point["z0"], "one": point["z1"], "plus": point["x0"]},
        transformations={"id": identity(space)},
        measurements={"Mz": mz, "Mx": mx, "Mz-alt": mz_alt},
    )


@pytest.fixture
def lines_run():
    """lines_run(function, *args): how many lines of the function's module run in the call.

    A count of loop passes that does not depend on the clock.
    """
    def count(function, *args):
        path, runs = function.__code__.co_filename, 0

        def local(frame, event, arg):
            nonlocal runs
            runs += event == "line"
            return local

        previous = sys.gettrace()
        sys.settrace(lambda frame, event, arg: local if frame.f_code.co_filename == path else None)
        try:
            function(*args)
        finally:
            sys.settrace(previous)
        return runs

    return count
