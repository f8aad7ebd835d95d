"""Classical letter networks compiled into prepare-and-measure protocols.

The exact path (validation, normal form, compilation, exact sweep and
analytic report) is integer and `Fraction` code and imports no numpy, so
`import qnc4` and every `qnc4` subcommand except Monte Carlo start
without it.  The numpy-backed state checks and matrices live in the
`qnc4.qmath` submodule, which loads numpy when it is imported.
"""

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
    Network,
    NodeOp,
    Term,
    constant_map,
    instance_from_json,
    instance_to_json,
    normalize_to_d3,
    validate_d3,
    validate_network,
)
from .classical_eval import check_requirement, evaluate, truth_table
from .shrink import ShrunkState, tetra_weights
from .qcompiler import CompiledProtocol, QuantumOp, compile_protocol
from .qsim import (
    estimate_fidelity,
    simulate_analytic,
    simulate_montecarlo,
    simulate_oracle,
)
from . import instances

__version__ = "0.1.0"
