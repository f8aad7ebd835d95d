"""Qubit-state math for the tetra-state protocols.

The four tetra states sit at the corners of a regular tetrahedron on the
Bloch sphere, one per letter.  Halving them gives a four-outcome POVM (the
tetra measurement); measuring and re-preparing the reported state shrinks
any input toward the maximally mixed state by a factor of 3.

Shrink bookkeeping is exact and lives in `qnc4.shrink`, which imports no
numpy; this module re-exports its names (`ShrunkState`, `as_shrink`,
`tetra_weights`, `shrunk_from_weights`, `ttr_outcome_weights`,
`shrunk_probabilities`), and `ttr_probabilities` hands a ShrunkState to
it.  Matrices are complex floats and appear only where sqrt(3) does; they
are why importing this module imports numpy.  `as_state_vector` is the
one check of a state vector, wherever one enters.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .netgraph import LETTERS, Letter, as_letter
from .shrink import (
    ShrunkState,
    as_shrink,
    shrunk_from_weights,
    shrunk_probabilities,
    tetra_weights,
    ttr_outcome_weights,
)

MATRIX_TOL = 1e-12
STATE_TOL = 1e-9  # allowed error in the norm or trace of an input state
RANK_TOL = 1e-9

pauli_x = np.array([[0, 1], [1, 0]], dtype=complex)
pauli_y = np.array([[0, -1j], [1j, 0]], dtype=complex)
pauli_z = np.array([[1, 0], [0, -1]], dtype=complex)
identity2 = np.eye(2, dtype=complex)

# cos^2 of the cone half-angle that puts the states at (+-1, +-1, +-1)/sqrt(3)
_COS2 = 0.5 + math.sqrt(3.0) / 6.0
_COS = math.sqrt(_COS2)
_SIN = math.sqrt(1.0 - _COS2)


def _phase(k: int) -> complex:
    return cmath.exp(1j * math.pi * k / 4)


_VECTORS = (
    np.array([_COS, _phase(1) * _SIN]),
    np.array([_COS, _phase(-3) * _SIN]),
    np.array([_SIN, _phase(-1) * _COS]),
    np.array([_SIN, _phase(3) * _COS]),
)


def _proj(v: np.ndarray) -> np.ndarray:
    return np.outer(v, v.conj())


_MATRICES = tuple(_proj(v) for v in _VECTORS)
for _m in _MATRICES:
    _m.flags.writeable = False


@dataclass(frozen=True, eq=False)
class TetraState:
    label: Letter
    vector: np.ndarray
    matrix: np.ndarray


_STATES = tuple(TetraState(z, _VECTORS[z], _MATRICES[z]) for z in LETTERS)


def tetra(label: Letter) -> TetraState:
    return _STATES[as_letter(label)]


def tetra_matrix(label: Letter) -> np.ndarray:
    return _MATRICES[as_letter(label)]


def tetra_vector(label: Letter) -> np.ndarray:
    return _VECTORS[as_letter(label)]


def bloch_vector(rho: np.ndarray) -> np.ndarray:
    return np.array(
        [
            np.trace(rho @ pauli_x).real,
            np.trace(rho @ pauli_y).real,
            np.trace(rho @ pauli_z).real,
        ]
    )


def state_from_bloch(theta: float, phi: float) -> np.ndarray:
    """Pure state at polar angle theta, azimuth phi."""
    return np.array([math.cos(theta / 2), cmath.exp(1j * phi) * math.sin(theta / 2)])


def random_pure_state(rng) -> np.ndarray:
    z = rng.uniform(-1.0, 1.0)
    phi = rng.uniform(0.0, 2 * math.pi)
    return state_from_bloch(math.acos(z), phi)


def is_density_matrix(rho: np.ndarray) -> bool:
    if rho.shape != (2, 2):
        return False
    if not np.allclose(rho, rho.conj().T, rtol=0, atol=STATE_TOL):
        return False
    if abs(np.trace(rho) - 1) > STATE_TOL:
        return False
    return bool(np.linalg.eigvalsh(rho).min() > -STATE_TOL)


def as_state_vector(psi) -> np.ndarray:
    """psi as a complex array of shape (2,) and norm 1 within STATE_TOL: the
    one check of every entry point that takes a state vector.  Raises
    ValueError otherwise, NaN included."""
    vec = np.asarray(psi, dtype=complex)
    if vec.shape != (2,):
        raise ValueError(f"state vector must have 2 entries, got shape {vec.shape}")
    norm = float(np.linalg.norm(vec))
    if not abs(norm - 1) <= STATE_TOL:  # NaN fails it, so it is refused
        raise ValueError(f"state vector is not normalized (norm {norm})")
    return vec


def fidelity(psi, rho: np.ndarray) -> float:
    """Overlap of a unit vector with a density matrix: <psi| rho |psi>."""
    psi = as_state_vector(psi)
    return float(np.vdot(psi, rho @ psi).real)


def densify(state: ShrunkState) -> np.ndarray:
    a = float(state.alpha)
    return a * tetra_matrix(state.label) + (1 - a) * identity2 / 2


def mixture_matrix(weights) -> np.ndarray:
    rho = np.zeros((2, 2), dtype=complex)
    for z, w in weights.items():
        rho += float(w) * tetra_matrix(z)
    return rho


def ttr_probabilities(rho):
    """Outcome probabilities of the tetra measurement, indexed by letter.

    Accepts a density matrix (float probabilities Tr(rho chi/2)) or a
    ShrunkState (exact rationals).
    """
    if isinstance(rho, ShrunkState):
        return shrunk_probabilities(rho)
    return tuple(float(np.trace(rho @ tetra_matrix(z)).real / 2) for z in LETTERS)


def ttr_channel(rho: np.ndarray) -> np.ndarray:
    """Measure-and-prepare through the tetra measurement.  Acts as
    rho -> rho/3 + (2/3) I/2 on every input."""
    probs = ttr_probabilities(rho)
    out = np.zeros((2, 2), dtype=complex)
    for z in LETTERS:
        out += probs[z] * tetra_matrix(z)
    return out


def tetra_povm() -> list[np.ndarray]:
    return [tetra_matrix(z) / 2 for z in LETTERS]


def check_povm(elements) -> bool:
    total = sum(elements)
    if not np.allclose(total, identity2, rtol=0, atol=MATRIX_TOL):
        return False
    return all(np.linalg.eigvalsh(e).min() > -MATRIX_TOL for e in elements)


def linear_independence_rank(states) -> int:
    """Rank of a family of 2x2 matrices viewed as vectors in matrix space.

    Singular values below 1e-9 count as zero.  A set of states admits an
    entanglement-free cloner (with per-output shrink factors that need not
    match) only if the states are linearly independent here, which caps
    usable families at 4 states.
    """
    states = list(states)
    if not 1 <= len(states) <= 4:
        raise ValueError(f"expected between 1 and 4 states, got {len(states)}")
    stacked = np.array([np.asarray(s, dtype=complex).flatten() for s in states])
    singular = np.linalg.svd(stacked, compute_uv=False)
    return int((singular > RANK_TOL).sum())
