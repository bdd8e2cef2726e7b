"""Built-in exemplar models, compiled down to finite ontic models.

Every entry's model is self-contained: ontic states, preparations,
transformation kernels and measurements are all explicit finite tables,
so every number downstream comes from exact enumeration. Each entry's
metadata declares its family, then its parameters and the modelling
choices that go beyond textbook definitions (update rules, transport
rules, grids), then its measurements as the quantity class ``Q``.
"""

from __future__ import annotations

import math
import operator
from typing import Optional

from .classify import QuantityClass, check_equilibrium_property, classify
from .core import (
    MINUS,
    OUTCOMES,
    PLUS,
    Distribution,
    Measurement,
    MeasurementUpdate,
    OnticModel,
    OnticStateSpace,
    ResponseFunction,
    TransformationKernel,
    _Record,
    check_size,
)
from .errors import EngineDefectError, ModelError
from .lg import LgArrangement, disturbance_report, post_select_noninvasive
from .operational import ObservableAssignment


def _reading(space: OnticStateSpace, reads_plus) -> ResponseFunction:
    """The deterministic reading of each state in ``reads_plus``: +1 where true, -1 where false."""
    plus = {PLUS: 1.0, MINUS: 0.0}
    minus = {PLUS: 0.0, MINUS: 1.0}
    return ResponseFunction(
        space, OUTCOMES, {s: plus if p else minus for s, p in reads_plus.items()}
    )


def _swaps(space: OnticStateSpace, pairs, p: float) -> TransformationKernel:
    """The kernel that swaps the states of each pair (a, b) with probability p."""
    rows = {}
    for a, b in pairs:
        rows[a] = Distribution(space, {a: 1.0 - p, b: p})
        rows[b] = Distribution(space, {b: 1.0 - p, a: p})
    return TransformationKernel(space, rows)


def _model(space, preparations, transformations, measurements, family, **metadata) -> OnticModel:
    """A zoo entry's model, its measurements given as a sequence and keyed by label.

    Its metadata is ``family``, then ``metadata`` in call order, then the
    measurements as the quantity class Q.
    """
    labels = [m.label for m in measurements]
    return OnticModel(space, preparations, transformations, dict(zip(labels, measurements)),
                      {"family": family, **metadata, "quantity_classes": {"Q": labels}})


def _repeated(model: OnticModel, preparation, transformations, measurement) -> LgArrangement:
    """The arrangement reading one measurement at all three times, valued +1/-1."""
    return LgArrangement(
        model=model,
        preparation=preparation,
        transformations=transformations,
        measurements=(measurement,) * 3,
        assignment=ObservableAssignment({measurement: {PLUS: 1, MINUS: -1}}),
    )


# ---------------------------------------------------------------------------
# shared two-level amplitude helpers (used by both the qubit and the
# two-path model so that their tables agree to float precision)


def _rotate(theta: float, amps: tuple) -> tuple:
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    a, b = amps
    return (c * a - s * b, s * a + c * b)


class _ModeSet(dict):
    """Registry of pure two-level states up to global sign.

    Exact amplitudes are kept for all arithmetic, as the values; states
    are merged (and labelled) by their keys: the amplitudes rounded to 12
    digits, signed so that the first nonzero one is positive. The sign is
    read from the key, so a rounding residue never splits a ray.
    """

    def add(self, amps: tuple) -> tuple:
        a, b = amps
        key = (round(a, 12) + 0.0, round(b, 12) + 0.0)
        if key < (0.0, 0.0):
            a, b, key = -a, -b, (-key[0] + 0.0, -key[1] + 0.0)
        self.setdefault(key, (a, b))
        return key

    def rotated(self, key: tuple, theta: float) -> tuple:
        return self.add(_rotate(theta, self[key]))

    @staticmethod
    def label(key: tuple) -> str:
        return f"({key[0]:.12g},{key[1]:.12g})"


def _closure(starts, rotate, theta1: float, theta2: float) -> tuple:
    """The states the three-slot arrangement reaches, and its two rotations' image maps.

    Evolutions start from collapse targets or declared preparations, and
    at most two rotations compose before a measurement lands the state
    back on a collapse target; the closure is therefore the starts plus
    their one- and two-rotation images, ``rotate(state, theta)`` giving
    each. Returns the states in first-reach order (the starts, their rot1
    and then rot2 images, then those of the one-rotation states not yet
    mapped) and the rot1 and rot2 image maps, keyed in that order.
    """
    reached = dict.fromkeys(starts)
    maps = ({}, {})

    def extend(domain):
        for images, theta in zip(maps, (theta1, theta2)):
            for state in domain:
                if state not in images:
                    images[state] = rotate(state, theta)
                    reached.setdefault(images[state])

    extend(starts)
    extend(dict.fromkeys([*maps[0].values(), *maps[1].values()]))
    return tuple(reached), maps


def _rotations(space: OnticStateSpace, maps, rows) -> dict:
    """rot1 and rot2 from ``_closure``'s maps; ``rows(state, image)`` gives a state's rows by label."""
    kernels = {}
    for name, images in zip(("rot1", "rot2"), maps):
        table = {}
        for state, image in images.items():
            table.update(rows(state, image))
        kernels[name] = TransformationKernel(space, table)
    return kernels


# ---------------------------------------------------------------------------
# bare quantum qubit


def build_qubit_arrangement(theta1: float, theta2: float) -> LgArrangement:
    """Projective-measurement qubit: prepare the +1 eigenstate, rotate, read.

    Ontic states are the protocol-reachable pure states (a finite set),
    the response is the squared overlap with the reading basis, and the
    update collapses onto the recorded eigenstate.
    """
    modes = _ModeSet()
    e0, e1 = map(modes.add, ((1.0, 0.0), (0.0, 1.0)))
    keys, maps = _closure((e0, e1), modes.rotated, theta1, theta2)
    labels = {key: f"q{_ModeSet.label(key)}" for key in keys}
    space = OnticStateSpace(tuple(labels.values()))

    response = ResponseFunction(
        space,
        OUTCOMES,
        {
            labels[key]: {
                PLUS: modes[key][0] ** 2,
                MINUS: modes[key][1] ** 2,
            }
            for key in keys
        },
    )
    update = MeasurementUpdate(
        space,
        OUTCOMES,
        outcome_rows={
            PLUS: Distribution.point_mass(space, labels[e0]),
            MINUS: Distribution.point_mass(space, labels[e1]),
        },
    )
    measurement = Measurement("Mz", response, update)

    kernels = _rotations(
        space, maps, lambda key, image: {labels[key]: Distribution.point_mass(space, labels[image])}
    )

    model = _model(
        space,
        {"up": Distribution.point_mass(space, labels[e0])},
        kernels,
        [measurement],
        "qubit",
        theta1=theta1,
        theta2=theta2,
        ontic_states="protocol-reachable pure states",
    )
    return _repeated(model, "up", ("rot1", "rot2"), "Mz")


# ---------------------------------------------------------------------------
# superselected quantum / classical two-state chain


def build_superselected_arrangement(p1: float, p2: float) -> LgArrangement:
    """Two-state model whose only preparations are basis states and mixtures.

    Rotations decohere into stochastic flip matrices with the given flip
    probabilities; readout is exact with an identity update. This is
    simultaneously the decohered-qubit and the classical Markov-chain
    exemplar.
    """
    for p in (p1, p2):
        if not 0.0 <= p <= 1.0:
            raise ModelError(f"flip probability {p!r} outside [0, 1]")
    space = OnticStateSpace(("up", "down"))
    response = _reading(space, {"up": True, "down": False})
    update = MeasurementUpdate.noninvasive(space, OUTCOMES, space.states)
    model = _model(
        space,
        {
            "prep-up": Distribution.point_mass(space, "up"),
            "prep-down": Distribution.point_mass(space, "down"),
            "prep-mixed": Distribution(space, {"up": 0.5, "down": 0.5}),
        },
        {
            "flip1": _swaps(space, [("up", "down")], p1),
            "flip2": _swaps(space, [("up", "down")], p2),
        },
        [Measurement("read", response, update)],
        "superselected",
        p1=p1,
        p2=p2,
    )
    return _repeated(model, "prep-up", ("flip1", "flip2"), "read")


# ---------------------------------------------------------------------------
# Kochen-Specker sphere model for a two-level system


def _fibonacci_sphere(n: int) -> list:
    """Deterministic low-discrepancy unit vectors; no point on the equator for even n."""
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    points = []
    for k in range(n):
        z = 1.0 - (2.0 * k + 1.0) / n
        phi = 2.0 * math.pi * k / golden
        r = math.sqrt(max(0.0, 1.0 - z * z))
        points.append((r * math.cos(phi), r * math.sin(phi), z))
    return points


def _dots(points, direction) -> list:
    dx, dy, dz = direction
    return [x * dx + y * dy + z * dz for x, y, z in points]


def _hemisphere_density(points, direction) -> list:
    w = [d if d > 0.0 else 0.0 for d in _dots(points, direction)]
    total = math.fsum(w)
    return [v / total for v in w]


def build_ks_arrangement(n_points: int, theta1: float, theta2: float) -> LgArrangement:
    """Non-contextual hidden-variable sphere model reproducing qubit statistics.

    Ontic states are grid points on the unit sphere (one copy per
    rotation stage reached by the arrangement); a preparation towards
    direction s weights the grid by the standard hemisphere density
    proportional to n.s; the reading is the deterministic sign of n.z;
    and the update re-samples the recorded eigenstate density on the
    base grid, a surrogate rule chosen to reproduce sequential
    statistics while keeping eigenstate preparations exact fixed points.
    """
    if n_points < 100:
        raise ModelError("sphere grid needs at least 100 points")
    # one grid copy per rotation stage; updates land on the base grid, stage 0
    angles, maps = _closure((0.0,), operator.add, theta1, theta2)
    for angle in angles:
        if not math.isfinite(angle):
            raise ModelError(f"rotation stage angle {angle!r} is not finite")
    check_size(f"--grid {n_points} over {len(angles)} rotation stages", "ontic states",
               len(angles) * n_points)
    base = _fibonacci_sphere(n_points)
    stage_of = {angle: i for i, angle in enumerate(angles)}
    # The response reads only the sign of each stage's z-coordinate, the
    # third row of the rotation about y applied to the base grid.
    reads_plus = []
    for a in angles:
        s, c = math.sin(a), math.cos(a)
        reads_plus += [-s * x + c * z >= 0.0 for x, _, z in base]
    space = OnticStateSpace(
        tuple(f"r{i}:{k}" for i in range(len(angles)) for k in range(n_points))
    )
    response = _reading(space, dict(zip(space.states, reads_plus)))

    def stage(angle) -> tuple:
        """The labels of one rotation stage's grid copy, in grid order."""
        first = stage_of[angle] * n_points
        return space.states[first:first + n_points]

    def base_density(direction) -> Distribution:
        w = _hemisphere_density(base, direction)
        return Distribution(space, {s: v for s, v in zip(stage(0.0), w) if v > 0.0})

    up = base_density((0.0, 0.0, 1.0))
    down = base_density((0.0, 0.0, -1.0))
    side = base_density((1.0, 0.0, 0.0))
    update = MeasurementUpdate(space, OUTCOMES, outcome_rows={PLUS: up, MINUS: down})
    measurement = Measurement("Mz", response, update)

    def shifted(angle, image) -> dict:
        return {s: Distribution.point_mass(space, t) for s, t in zip(stage(angle), stage(image))}

    model = _model(
        space,
        {"up": up, "down": down, "side": side},
        _rotations(space, maps, shifted),
        [measurement],
        "ks-sphere",
        n_points=n_points,
        theta1=theta1,
        theta2=theta2,
        grid="fibonacci lattice, one copy per reached rotation stage",
        stage_angles=list(angles),
        update_rule=(
            "posterior eigenstate re-sampling onto the base grid; surrogate "
            "chosen to reproduce sequential statistics"
        ),
        response_rule="sign of n.z, +1 on the boundary",
    )
    return _repeated(model, "up", ("rot1", "rot2"), "Mz")


# ---------------------------------------------------------------------------
# two-path model with value-definite path bit


def build_bohm_arrangement(theta1: float, theta2: float) -> LgArrangement:
    """Two-path model: ontic state = (mode amplitudes, which-path bit).

    The which-path reading returns the bit deterministically, so every
    ontic state is value-definite; the update collapses the mode onto
    the recorded branch and leaves the bit alone. Rotations move the
    mode deterministically and redistribute the bit by the
    minimal-transport (monotone coupling) rule that matches the new mode
    weights, a surrogate for a guidance law. Operational statistics
    coincide with the bare qubit's.
    """
    half = math.sqrt(0.5)
    modes = _ModeSet()
    e0, e1, superposed = map(modes.add, ((1.0, 0.0), (0.0, 1.0), (half, half)))
    keys, maps = _closure((e0, e1, superposed), modes.rotated, theta1, theta2)

    def path_weight(key, path):
        amp = modes[key][0] if path == 1 else modes[key][1]
        return amp * amp

    states = [
        (key, path)
        for key in keys
        for path in (1, 2)
        if path_weight(key, path) > 0.0
    ]
    labels = {s: f"p{s[1]}|{_ModeSet.label(s[0])}" for s in states}
    space = OnticStateSpace(tuple(labels[s] for s in states))

    response = _reading(space, {labels[s]: s[1] == 1 for s in states})
    update_rows = {}
    for s in states:
        _, path = s
        branch = (e0, 1) if path == 1 else (e1, 2)
        outcome = PLUS if path == 1 else MINUS
        update_rows[(labels[s], outcome)] = Distribution.point_mass(space, labels[branch])
    measurement = Measurement(
        "path", response, MeasurementUpdate(space, OUTCOMES, rows=update_rows)
    )

    def transport_row(key, path, new_key) -> Distribution:
        p_old = path_weight(key, 1)
        p_new = path_weight(new_key, 1)
        if path == 1:
            stay = min(p_old, p_new) / p_old
        else:
            stay = min(1.0 - p_old, 1.0 - p_new) / (1.0 - p_old)
        same, other = (1, 2) if path == 1 else (2, 1)
        weights = {}
        if stay > 0.0:
            weights[labels[(new_key, same)]] = stay
        if stay < 1.0:
            weights[labels[(new_key, other)]] = 1.0 - stay
        return Distribution(space, weights)

    kernels = _rotations(space, maps, lambda key, image: {
        labels[(key, path)]: transport_row(key, path, image)
        for path in (1, 2) if (key, path) in labels
    })

    model = _model(
        space,
        {
            "up": Distribution.point_mass(space, labels[(e0, 1)]),
            "down": Distribution.point_mass(space, labels[(e1, 2)]),
            "superposed": Distribution(
                space,
                {
                    labels[(superposed, 1)]: path_weight(superposed, 1),
                    labels[(superposed, 2)]: path_weight(superposed, 2),
                },
            ),
        },
        kernels,
        [measurement],
        "bohm-two-path",
        theta1=theta1,
        theta2=theta2,
        transport_rule=(
            "monotone coupling matching the new mode weights (minimal transport); "
            "surrogate for a guidance law"
        ),
    )
    return _repeated(model, "up", ("rot1", "rot2"), "path")


# ---------------------------------------------------------------------------
# engineered counterexample fixtures


def _fixture_lgi_holds_d_nonzero() -> tuple:
    """Two-state chain with a state-kicking update.

    The readout is exact but pushes the state around, so the marginal
    statistics of the later pair shift by a macroscopic amount while the
    pairwise inequality still holds: disturbance is necessary, not
    sufficient, for violation.
    """
    kick = 0.4
    drift = 0.05
    space = OnticStateSpace(("a", "b"))
    response = _reading(space, {"a": True, "b": False})
    update = MeasurementUpdate(
        space,
        OUTCOMES,
        rows={
            ("a", PLUS): Distribution(space, {"a": 1.0 - kick, "b": kick}),
            ("b", MINUS): Distribution(space, {"b": 1.0 - kick, "a": kick}),
        },
    )
    model = _model(
        space,
        {"start": Distribution.point_mass(space, "a")},
        {name: _swaps(space, [("a", "b")], drift) for name in ("drift1", "drift2")},
        [Measurement("kick-read", response, update)],
        "fixture",
        kick=kick,
        drift=drift,
    )
    arrangement = _repeated(model, "start", ("drift1", "drift2"), "kick-read")
    report = disturbance_report(arrangement)
    if not (report.max_disturbance() > 0.1 and report.lg_pairwise >= -1.0):
        raise EngineDefectError(
            "fixture lgi-holds-d-nonzero failed build-time verification: "
            f"max |D| = {report.max_disturbance():.4g}, "
            f"pairwise value = {report.lg_pairwise:.4g}"
        )
    return model, arrangement


def _fixture_null_result_pair() -> tuple:
    """Two equivalent readings, each noninvasive for one outcome only.

    Post-selecting the untouched outcome of a fair choice between them
    yields a composite that never moves any ontic state on kept runs.
    """
    space = OnticStateSpace(("l1", "l2", "l3", "l4"))
    reads_plus = {"l1": True, "l2": True, "l3": False, "l4": False}
    point = {s: Distribution.point_mass(space, s) for s in space.states}
    null_plus = Measurement(
        "null-plus",
        _reading(space, reads_plus),
        MeasurementUpdate(
            space,
            OUTCOMES,
            rows={
                ("l1", PLUS): point["l1"],
                ("l2", PLUS): point["l2"],
                ("l3", MINUS): point["l4"],
                ("l4", MINUS): point["l3"],
            },
        ),
    )
    null_minus = Measurement(
        "null-minus",
        _reading(space, reads_plus),
        MeasurementUpdate(
            space,
            OUTCOMES,
            rows={
                ("l3", MINUS): point["l3"],
                ("l4", MINUS): point["l4"],
                ("l1", PLUS): point["l2"],
                ("l2", PLUS): point["l1"],
            },
        ),
    )
    stir = _swaps(space, [("l1", "l2"), ("l3", "l4")], 0.2)
    model = _model(
        space,
        {
            "spread": Distribution(space, {"l1": 0.3, "l2": 0.2, "l3": 0.25, "l4": 0.25}),
            "tilted": Distribution(space, {"l1": 0.5, "l3": 0.5}),
        },
        {"stir": stir},
        [null_plus, null_minus],
        "fixture",
    )
    result = post_select_noninvasive(model, ("null-plus", PLUS), ("null-minus", MINUS))
    if not result.matches_input:
        raise EngineDefectError("fixture null-result-pair failed build-time verification")
    return model, None


def _fixture_support_mr_minimal() -> tuple:
    """Three-state model whose extra preparation sits inside eigenstate supports
    without being a mixture of the eigenstate preparations."""
    space = OnticStateSpace(("x", "y", "z"))
    plus_prep = Distribution(space, {"x": 0.5, "y": 0.5})
    minus_prep = Distribution.point_mass(space, "z")
    response = _reading(space, {"x": True, "y": True, "z": False})
    update = MeasurementUpdate(
        space, OUTCOMES, outcome_rows={PLUS: plus_prep, MINUS: minus_prep}
    )
    model = _model(
        space,
        {
            "plus-prep": plus_prep,
            "minus-prep": minus_prep,
            # straddles both values, so it is not an eigenstate preparation
            # itself, and its x/y split rules out any mixture of the two
            "lopsided": Distribution(space, {"x": 0.8, "y": 0.1, "z": 0.1}),
        },
        {},
        [Measurement("look", response, update)],
        "fixture",
    )
    verdict = classify(model, QuantityClass.verified(model, "Q", ["look"])).verdict
    if verdict != "MR2":
        raise EngineDefectError(
            f"fixture support-mr-minimal failed build-time verification: {verdict}"
        )
    return model, None


def _fixture_drifting_update() -> tuple:
    """Readout whose update swaps the eigenstates: no fixed-point property."""
    space = OnticStateSpace(("u", "v"))
    response = _reading(space, {"u": True, "v": False})
    update = MeasurementUpdate(
        space,
        OUTCOMES,
        rows={
            ("u", PLUS): Distribution.point_mass(space, "v"),
            ("v", MINUS): Distribution.point_mass(space, "u"),
        },
    )
    model = _model(
        space,
        {"u-prep": Distribution.point_mass(space, "u"),
         "v-prep": Distribution.point_mass(space, "v")},
        {},
        [Measurement("swapper", response, update)],
        "fixture",
    )
    equilibrium = check_equilibrium_property(
        model, QuantityClass.verified(model, "Q", ["swapper"]), "swapper"
    )
    if equilibrium.holds:
        raise EngineDefectError("fixture drifting-update failed build-time verification")
    return model, None


# ---------------------------------------------------------------------------
# registry


class ZooBuild(_Record):
    """A zoo model plus the analysis objects it ships with."""

    name: str
    model: OnticModel
    arrangement: Optional[LgArrangement]


#: Default rotation angles of the entries that take two.
_ANGLES = {"theta1": 2.0 * math.pi / 3.0, "theta2": 2.0 * math.pi / 3.0}

#: Zoo entry -> (description, builder, default parameters). A parametrized
#: builder returns an LgArrangement. A fixture has no parameters (None); its
#: builder verifies the model and returns (model, arrangement or None).
_ZOO = {
    "qubit": ("projective qubit on its reachable pure states; violates the pairwise inequality",
              build_qubit_arrangement, _ANGLES),
    "superselected": ("two basis states with stochastic flips and exact readout; mixture-macrorealist exemplar (also the classical chain)",
                      build_superselected_arrangement, {"p1": 0.25, "p2": 0.25}),
    "ks-sphere": ("non-contextual sphere model matching qubit statistics; support-macrorealist exemplar",
                  build_ks_arrangement, {"n_points": 10_000, **_ANGLES}),
    "bohm-two-path": ("value-definite path bit riding on qubit statistics; supra-support exemplar",
                      build_bohm_arrangement, _ANGLES),
    "lgi-holds-d-nonzero": ("disturbing readout whose pairwise inequality still holds",
                            _fixture_lgi_holds_d_nonzero, None),
    "null-result-pair": ("pair of one-outcome-noninvasive readings for the post-selection composite",
                         _fixture_null_result_pair, None),
    "support-mr-minimal": ("minimal three-state support-macrorealist model",
                           _fixture_support_mr_minimal, None),
    "drifting-update": ("update without the eigenstate fixed-point property",
                        _fixture_drifting_update, None),
}


def list_models():
    """Stable listing of zoo entries: (name, description)."""
    return [(name, entry[0]) for name, entry in _ZOO.items()]


def parameters(name: str) -> tuple:
    """The keyword parameters of a zoo entry's builder; a fixture takes none."""
    if name not in _ZOO:
        raise ModelError(f"unknown zoo model {name!r}; try one of {sorted(_ZOO)}")
    return tuple(_ZOO[name][2] or ())


def build(name: str, **params) -> ZooBuild:
    """Build one zoo model by name; parameters not given take the entry's defaults.

    Only the named entry is built, so a fixture pays for its own
    build-time verification alone.
    """
    unknown = sorted(set(params) - set(parameters(name)))
    if unknown:
        raise ModelError(f"zoo model {name!r} takes no parameter {unknown[0]!r}")
    _, builder, defaults = _ZOO[name]
    if defaults is None:
        return ZooBuild(name, *builder())
    arrangement = builder(**{**defaults, **params})
    return ZooBuild(name=name, model=arrangement.model, arrangement=arrangement)
