"""Seeded population of small random LG arrangements for the random-models workload.

Models are built from the public ``lglab.core`` constructors only, so a
change to the library's own test helpers cannot change the workload.
The population's shape is fixed by :data:`PLAN`, not by the seed: every
seed gives the same state counts and the same invasive share, and only
the probabilities differ.
"""

from __future__ import annotations

from collections import Counter

PLUS = "+1"
MINUS = "-1"
OUTCOMES = (PLUS, MINUS)

#: (state count, identity-update models, invasive models) per stratum.
PLAN = tuple((n, 8, 2) for n in range(2, 9))


def _distribution(core, rng, space):
    raw = rng.random(len(space.states)) + 1e-3
    raw /= raw.sum()
    return core.Distribution(space, {s: float(w) for s, w in zip(space.states, raw)})


def _measurement(core, rng, space, label, invasive):
    table = {}
    for s in space.states:
        p = float(rng.random())
        table[s] = {PLUS: p, MINUS: 1.0 - p}
    response = core.ResponseFunction(space, OUTCOMES, table)
    if invasive:
        update = core.MeasurementUpdate(
            space,
            OUTCOMES,
            rows={(s, q): _distribution(core, rng, space) for s in space.states for q in OUTCOMES},
        )
    else:
        update = core.MeasurementUpdate.noninvasive(space, OUTCOMES, space.states)
    return core.Measurement(label, response, update)


def random_arrangement(rng, n_states: int, invasive: bool):
    """Preparation E, kernels T1/T2, binary readings M1..M3 on ``n_states`` states.

    With ``invasive`` false, M1 and M2 get identity updates, so every
    chain stage must hold; M3 always has a random per-state update.
    """
    from lglab import core
    from lglab.lg import LgArrangement
    from lglab.operational import ObservableAssignment

    space = core.OnticStateSpace(tuple(f"s{i}" for i in range(n_states)))
    kernels = {
        t: core.TransformationKernel(
            space, {s: _distribution(core, rng, space) for s in space.states}
        )
        for t in ("T1", "T2")
    }
    model = core.OnticModel(
        space=space,
        preparations={"E": _distribution(core, rng, space)},
        transformations=kernels,
        measurements={
            "M1": _measurement(core, rng, space, "M1", invasive),
            "M2": _measurement(core, rng, space, "M2", invasive),
            "M3": _measurement(core, rng, space, "M3", True),
        },
    )
    return LgArrangement(
        model=model,
        preparation="E",
        transformations=("T1", "T2"),
        measurements=("M1", "M2", "M3"),
        assignment=ObservableAssignment({m: {PLUS: 1, MINUS: -1} for m in ("M1", "M2", "M3")}),
    )


def population(seed: int):
    """[(arrangement, invasive)] in a seed-dependent order, shape fixed by :data:`PLAN`."""
    import numpy as np

    rng = np.random.default_rng(seed)
    specs = [
        (n, invasive)
        for n, identity, invasive_count in PLAN
        for invasive in [False] * identity + [True] * invasive_count
    ]
    order = rng.permutation(len(specs))
    return [
        (random_arrangement(rng, specs[i][0], specs[i][1]), specs[i][1]) for i in order
    ]


def shape(models) -> dict:
    """State-count histogram and invasive share of a population."""
    counts = Counter(len(a.model.space.states) for a, _ in models)
    invasive = sum(1 for _, inv in models if inv)
    return {
        "models": len(models),
        "state_counts": {str(n): counts[n] for n in sorted(counts)},
        "invasive": invasive,
        "invasive_share": invasive / len(models),
    }


def plan_shape() -> dict:
    """The shape every seed's population must have."""
    total = sum(i + v for _, i, v in PLAN)
    invasive = sum(v for _, _, v in PLAN)
    return {
        "models": total,
        "state_counts": {str(n): i + v for n, i, v in PLAN},
        "invasive": invasive,
        "invasive_share": invasive / total,
    }
