"""Classical letter networks compiled into prepare-and-measure protocols."""

from .errors import (
    QncError,
    SchemaError,
    SizeError,
    ValidationError,
    VerificationError,
)
from .netgraph import (
    GroupKind,
    IDENTITY_MAP,
    LETTERS,
    ClassicalProtocol,
    D3Network,
    LetterMap,
    MapClass,
    Network,
    NodeOp,
    Term,
    constant_map,
    d3_from_json,
    d3_to_json,
    instance_from_json,
    instance_to_json,
    is_d3_json,
    make_network,
    node_op,
    normalize_to_d3,
    validate_d3,
    validate_network,
)
from .classical_eval import check_requirement, evaluate, truth_table
from .qmath import (
    ShrunkState,
    densify,
    fidelity,
    linear_independence_rank,
    tetra,
    tetra_matrix,
    tetra_povm,
    tetra_vector,
    tetra_weights,
    ttr_channel,
    ttr_outcome_weights,
    ttr_probabilities,
)
from .efc import (
    efc_apply,
    efc_joint_distribution,
    efc_pair_distribution,
    efc_params,
    efc2_apply,
    efco2_apply,
)
from .qcompiler import CompiledProtocol, QuantumOp, compile_protocol, two_to_one_emission
from .qsim import (
    enumerate_branches,
    estimate_fidelity,
    simulate_analytic,
    simulate_montecarlo,
    simulate_oracle,
)
from . import instances

__version__ = "0.1.0"
