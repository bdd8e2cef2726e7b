"""Closed-form interference analysis at one screen bin, cross-compiled to a model.

Amplitudes are per-bin values: with both slits open the detection
probability at the bin is half the squared modulus of the summed
amplitudes, and blocking a slit leaves the other amplitude's squared
modulus. The closed forms below reproduce, and are checked against, the
general propagation engine via compile_to_arrangement.
"""

from __future__ import annotations

import cmath
import math

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
)
from .errors import ValidationError
from .lg import LgArrangement
from .operational import ObservableAssignment

TWO_PI = 2.0 * math.pi

#: Rounding allowed above 1 on a squared modulus or a bin probability:
#: amplitudes taken as square roots of probabilities square back to
#: within a few ulps of them.
MODULUS_SLACK = 1e-12


class SlitAmplitudes(_Record):
    """Complex per-bin amplitudes behind the two slits.

    Each squared modulus must be a probability, and the both-open bin
    probability half |a1 + a2|^2 may not exceed 1.
    """

    a1: complex
    a2: complex

    def __init__(self, a1, a2):
        m1, m2 = abs(a1), abs(a2)
        if m1 * m1 > 1.0 + MODULUS_SLACK or m2 * m2 > 1.0 + MODULUS_SLACK:
            raise ValidationError("each squared modulus must be at most 1")
        if m1 == 0.0 and m2 == 0.0:
            raise ValidationError("at least one amplitude must be nonzero")
        if 0.5 * abs(a1 + a2) ** 2 > 1.0 + MODULUS_SLACK:
            raise ValidationError("bin probability (|a1+a2|^2)/2 exceeds 1")
        vars(self).update(a1=a1, a2=a2)

    @classmethod
    def from_intensity_phase(cls, mod1_sq: float, phi: float) -> "SlitAmplitudes":
        """Amplitudes with |a1|^2 = mod1_sq, |a2|^2 = 1 - mod1_sq, phase difference phi."""
        if not 0.0 <= mod1_sq <= 1.0:
            raise ValidationError(f"mod1_sq {mod1_sq!r} outside [0, 1.0]")
        a1 = math.sqrt(mod1_sq)
        a2 = math.sqrt(1.0 - mod1_sq) * cmath.exp(1j * phi)
        return cls(a1, a2)

    @property
    def mod1(self) -> float:
        return abs(self.a1)

    @property
    def mod2(self) -> float:
        return abs(self.a2)

    @property
    def phase_difference(self) -> float:
        """Phase of a2 relative to a1, folded into [0, 2*pi)."""
        if self.mod1 == 0.0 or self.mod2 == 0.0:
            return 0.0
        return (cmath.phase(self.a2) - cmath.phase(self.a1)) % TWO_PI

    def cross_term(self) -> float:
        """|a1| |a2| cos(phase difference), computed without trig round-trips."""
        return (self.a1.conjugate() * self.a2).real


def detection_probabilities(s: SlitAmplitudes) -> tuple:
    """(both slits open, slit 1 blocked, slit 2 blocked) bin probabilities."""
    both = 0.5 * abs(s.a1 + s.a2) ** 2
    return (both, s.mod2 ** 2, s.mod1 ** 2)


def interference_term(s: SlitAmplitudes) -> float:
    """Both-open probability minus the incoherent half-sum of intensities."""
    both, blocked1, blocked2 = detection_probabilities(s)
    return both - 0.5 * (blocked1 + blocked2)


def disturbance_d2(s: SlitAmplitudes) -> float:
    """The (+1, +1) shift of the (first, third) statistics from the slit reading."""
    return s.cross_term()


def lg_plus_value(s: SlitAmplitudes) -> float:
    """The pairwise three-time value for the +1-eigenstate assignment at this bin."""
    return 2.0 * (s.mod1 ** 2 + s.cross_term()) - 1.0


def lg_plus_mirrored(s: SlitAmplitudes) -> float:
    """Same quantity under the slit-swapped value assignment."""
    return 2.0 * (s.mod2 ** 2 + s.cross_term()) - 1.0


def violation_condition(s: SlitAmplitudes) -> bool:
    """cos(phi) < -|a1|/|a2|; equivalent to violation whenever |a1| > 0."""
    if s.mod1 == 0.0 or s.mod2 == 0.0:
        return False
    return math.cos(s.phase_difference) < -s.mod1 / s.mod2


def compile_to_arrangement(s: SlitAmplitudes) -> LgArrangement:
    """Compile the bin analysis into a finite quantum-style model.

    States: the source, the coherent open state behind the slits, the
    two collapsed slit states, and detection sinks. The first reading
    confirms the source, the second reads the slit, the third fires iff
    the system lands in the bin. Engine output on this model reproduces
    the closed forms above.
    """
    total = abs(s.a1) ** 2 + abs(s.a2) ** 2
    space = OnticStateSpace(("src", "open", "slit1", "slit2", "hit", "miss"))
    point = {label: Distribution.point_mass(space, label) for label in space.states}

    m1 = Measurement(
        "confirm",
        ResponseFunction(space, OUTCOMES, {"src": {PLUS: 1.0, MINUS: 0.0}}),
        MeasurementUpdate(space, OUTCOMES, rows={("src", PLUS): point["src"]}),
    )
    m2 = Measurement(
        "which-slit",
        ResponseFunction(
            space,
            OUTCOMES,
            {
                "open": {PLUS: abs(s.a1) ** 2 / total, MINUS: abs(s.a2) ** 2 / total},
                "slit1": {PLUS: 1.0, MINUS: 0.0},
                "slit2": {PLUS: 0.0, MINUS: 1.0},
            },
        ),
        MeasurementUpdate(
            space,
            OUTCOMES,
            rows={
                ("open", PLUS): point["slit1"],
                ("open", MINUS): point["slit2"],
                ("slit1", PLUS): point["slit1"],
                ("slit2", MINUS): point["slit2"],
            },
        ),
    )
    at_bin = 0.5 * abs(s.a1 + s.a2) ** 2
    per_slit = 0.5 * total
    m3 = Measurement(
        "at-bin",
        ResponseFunction(
            space,
            OUTCOMES,
            {
                "open": {PLUS: at_bin, MINUS: 1.0 - at_bin},
                "slit1": {PLUS: per_slit, MINUS: 1.0 - per_slit},
                "slit2": {PLUS: per_slit, MINUS: 1.0 - per_slit},
            },
        ),
        MeasurementUpdate(
            space,
            OUTCOMES,
            rows={
                (label, q): point["hit"] if q == PLUS else point["miss"]
                for label in ("open", "slit1", "slit2")
                for q in OUTCOMES
            },
        ),
    )
    model = OnticModel(
        space=space,
        preparations={"source": point["src"]},
        transformations={
            "pass-slits": TransformationKernel(space, {"src": point["open"]}),
            "to-screen": TransformationKernel(
                space, {label: point[label] for label in ("open", "slit1", "slit2")}
            ),
        },
        measurements={"confirm": m1, "which-slit": m2, "at-bin": m3},
        metadata={
            "family": "two-slit",
            "mod1_sq": abs(s.a1) ** 2,
            "mod2_sq": abs(s.a2) ** 2,
            "phase_difference": s.phase_difference,
        },
    )
    return LgArrangement(
        model=model,
        preparation="source",
        transformations=("pass-slits", "to-screen"),
        measurements=("confirm", "which-slit", "at-bin"),
        assignment=ObservableAssignment(
            {name: {PLUS: 1, MINUS: -1} for name in ("confirm", "which-slit", "at-bin")}
        ),
    )


#: The fields of a violation-map row (angles in radians), in order: the columns of the
#: sweep's CSV and JSON tables.
CSV_COLUMNS = ("mod1_sq", "phi", "lg_plus", "lg_plus_mirrored", "violated")


def violation_map(mod1_sq_grid, phi_grid) -> list:
    """Sweep the closed forms over intensity and phase grids.

    Both value assignments are emitted, so the mirrored inequality
    (violable for |a1| > |a2|) is visible alongside the primary one. The
    violation boundary is the curve cos(phi) = -|a1|/|a2|. Each row is a
    tuple of the ``CSV_COLUMNS`` fields.
    """
    mod1_sq_grid = list(mod1_sq_grid)
    phi_grid = list(phi_grid)
    if not mod1_sq_grid or not phi_grid:
        raise ValidationError("sweep grids must be non-empty")
    rows = []
    for m1 in mod1_sq_grid:
        for phi in phi_grid:
            s = SlitAmplitudes.from_intensity_phase(m1, phi)
            value = lg_plus_value(s)
            rows.append((m1, phi % TWO_PI, value, lg_plus_mirrored(s), value < -1.0))
    return rows
