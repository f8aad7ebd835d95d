"""Classical letter networks compiled into prepare-and-measure protocols.

The exact path (validation, normal form, compilation, exact sweep and
analytic report) is integer and `Fraction` code and imports no numpy.
The names backed by numpy, the `qmath` matrix and state helpers, the
`efc` cloners and the `qmath` and `efc` submodules themselves, are
loaded on first use (PEP 562), so `import qnc4` and every `qnc4`
subcommand except Monte Carlo start without numpy.
"""

from importlib import import_module as _import_module

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
    instance_from_json,
    instance_to_json,
    make_network,
    node_op,
    normalize_to_d3,
    validate_d3,
    validate_network,
)
from .classical_eval import check_requirement, evaluate, truth_table
from .shrink import ShrunkState, tetra_weights, ttr_outcome_weights
from .qcompiler import CompiledProtocol, QuantumOp, compile_protocol
from .qsim import (
    estimate_fidelity,
    simulate_analytic,
    simulate_montecarlo,
    simulate_oracle,
)
from . import instances

__version__ = "0.1.0"

# name -> the numpy-backed submodule that defines it
_LAZY = {
    **dict.fromkeys(
        (
            "densify",
            "fidelity",
            "linear_independence_rank",
            "tetra",
            "tetra_matrix",
            "tetra_povm",
            "tetra_vector",
            "ttr_channel",
            "ttr_probabilities",
        ),
        "qmath",
    ),
    **dict.fromkeys(
        (
            "efc_apply",
            "efc_joint_distribution",
            "efc_pair_distribution",
            "efc_params",
            "efc2_apply",
            "efco2_apply",
        ),
        "efc",
    ),
}


def __getattr__(name: str):
    if name in ("qmath", "efc"):
        return _import_module(f".{name}", __name__)
    if name in _LAZY:
        return getattr(_import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), "qmath", "efc", *_LAZY})
