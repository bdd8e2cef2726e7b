"""lglab: exact sequential-measurement statistics on finite ontic models.

The package computes three-time correlation values and their trivial
bound, quantifies operational disturbance and checks the exact
decomposition tying the two together, verifies the noninvasiveness ->
non-disturbance -> inequality chain, classifies models into the
three-family macrorealism taxonomy, and analyses the two-slit bin
closed forms against the general engine. Everything is exact
enumeration; nothing is sampled.
"""

__version__ = "0.1.0"

from .core import (
    NORMALIZATION_TOL,
    SUPPORT_TOL,
    Distribution,
    Measurement,
    MeasurementUpdate,
    OnticModel,
    OnticStateSpace,
    ResponseFunction,
    TransformationKernel,
    compose_preparation,
    is_ontically_noninvasive,
    post_measurement_distribution,
)
from .errors import (
    ClassificationError,
    EngineDefectError,
    LglabError,
    ModelError,
    PreconditionError,
    SchemaError,
    ValidationError,
)
from .operational import (
    EQUIVALENCE_TOL,
    JointDistribution,
    ObservableAssignment,
    Protocol,
    ProtocolStep,
    expectation,
    marginalize,
    measurements_equivalent,
    run_protocol,
)
from .lg import (
    BOUND_TOL,
    RESIDUAL_TOL,
    ChainRecord,
    DisturbanceReport,
    LgArrangement,
    OpndCompleteResult,
    OpndResult,
    PostSelectionResult,
    check_implication_chain,
    check_opnd,
    check_opnd_complete,
    disturbance_report,
    lg_value_pairwise,
    post_select_noninvasive,
)
from .classify import (
    HULL_TOL,
    Classification,
    QuantityClass,
    check_equilibrium_property,
    check_macrodefinite,
    classify,
)
from .twoslit import (
    SlitAmplitudes,
    compile_to_arrangement,
    detection_probabilities,
    disturbance_d2,
    interference_term,
    lg_plus_mirrored,
    lg_plus_value,
    violation_map,
)
from .zoo import (
    build_bohm_arrangement,
    build_ks_arrangement,
    build_qubit_arrangement,
    build_superselected_arrangement,
)
