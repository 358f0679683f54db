"""Temporal-correlation polytopes of sequential measurements, quantum
instrument simulation, and qubit dimension witnesses."""

from . import correlations, errors, qmath, realize, serialize, witness
from .correlations import (
    Behavior,
    ConvexDecomposition,
    DeterministicVertex,
    RelabelingGroup,
    Scenario,
    check_membership,
    classify_vertices,
    compose_from_conditionals,
    count_vertices,
    decompose_behavior,
    enumerate_vertices,
    factorize,
    marginal,
    named_vertex,
    require_member,
    vertex_behavior,
)
from .qmath import (
    DensityMatrix,
    Effect,
    Instrument,
    SystemModel,
    apply_instrument,
    bloch_to_density,
    density_to_bloch,
    effect_from_params,
    validate_effect,
    validate_instrument,
)
from .realize import (
    canonical_protocols,
    full_behavior,
    mixture_realization,
    qutrit_vertex_realization,
    run_sequence,
)
from .witness import (
    CertificationReport,
    OptimizerConfig,
    QubitStrategy,
    WitnessFunctional,
    b1_projective_profile,
    b3_profile,
    b4_envelope,
    builtin_functionals,
    c1_bound,
    c3_bound,
    certify,
    epsilon_lower_bound,
    evaluate,
    optimize_qubit,
    strategy_value,
    system_epsilon,
)

__version__ = "0.1.0"
