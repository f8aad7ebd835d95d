"""Qubit helpers that only the tests read: the tetra states as records, Bloch
vectors and random pure states, shrunk states and tetra mixtures as
matrices, the measure-and-prepare channel, the tetra POVM and the rank of a
family of states.

They are stated on `qnc4.qmath`'s tetra vectors and matrices, which the
program reads; numpy is imported here, as there.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from qnc4.netgraph import LETTERS, Letter, as_letter
from qnc4.qmath import _VECTORS, tetra_matrix, ttr_probabilities
from qnc4.shrink import ShrunkState

MATRIX_TOL = 1e-12
RANK_TOL = 1e-9

pauli_x = np.array([[0, 1], [1, 0]], dtype=complex)
pauli_y = np.array([[0, -1j], [1j, 0]], dtype=complex)
pauli_z = np.array([[1, 0], [0, -1]], dtype=complex)
identity2 = np.eye(2, dtype=complex)


@dataclass(frozen=True, eq=False)
class TetraState:
    label: Letter
    vector: np.ndarray
    matrix: np.ndarray


_STATES = tuple(TetraState(z, _VECTORS[z], tetra_matrix(z)) for z in LETTERS)


def tetra(label: Letter) -> TetraState:
    return _STATES[as_letter(label)]


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


def densify(state: ShrunkState) -> np.ndarray:
    a = float(state.alpha)
    return a * tetra_matrix(state.label) + (1 - a) * identity2 / 2


def mixture_matrix(weights) -> np.ndarray:
    rho = np.zeros((2, 2), dtype=complex)
    for z, w in weights.items():
        rho += float(w) * tetra_matrix(z)
    return rho


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
