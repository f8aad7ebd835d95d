"""Qubit-state math for the tetra-state protocols.

The four tetra states sit at the corners of a regular tetrahedron on the
Bloch sphere, one per letter.  Halving them gives a four-outcome POVM (the
tetra measurement); measuring and re-preparing the reported state shrinks
any input toward the maximally mixed state by a factor of 3.

Shrink bookkeeping is exact and lives in `qnc4.shrink`, which imports no
numpy; `shrink.shrunk_probabilities` is the exact twin of this module's
`ttr_probabilities`, which reads a density matrix.  Matrices are
complex floats and appear only where sqrt(3) does; they are why importing
this module imports numpy.  `as_state_vector` is the one check of a state
vector, wherever one enters.  `qsim` reads this module for array inputs
and fidelities.
"""

import cmath
import math

import numpy as np

from .netgraph import LETTERS, Letter, as_letter

STATE_TOL = 1e-9  # allowed error in the norm or trace of an input state

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


def tetra_matrix(label: Letter) -> np.ndarray:
    return _MATRICES[as_letter(label)]


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


def ttr_probabilities(rho: np.ndarray) -> tuple[float, ...]:
    """Outcome probabilities of the tetra measurement on a density matrix,
    indexed by letter: Tr(rho chi/2).  A ShrunkState's exact ones are
    `shrink.shrunk_probabilities`."""
    return tuple(float(np.trace(rho @ tetra_matrix(z)).real / 2) for z in LETTERS)

