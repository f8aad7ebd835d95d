import math
from fractions import Fraction

import numpy as np
import pytest

from qnc4 import qmath
from qnc4.qmath import fidelity, tetra_matrix, ttr_probabilities
from qnc4.shrink import ShrunkState, tetra_weights, ttr_outcome_weights

import _qubits
from _qubits import (
    bloch_vector,
    densify,
    identity2,
    linear_independence_rank,
    mixture_matrix,
    tetra_povm,
    tetra_vector,
    ttr_channel,
)


def _random_density(rng):
    # random mixture of two pure states
    w = rng.random()
    v1, v2 = _qubits.random_pure_state(rng), _qubits.random_pure_state(rng)
    return w * np.outer(v1, v1.conj()) + (1 - w) * np.outer(v2, v2.conj())


def test_tetra_states_are_normalized_pure_states():
    for z in range(4):
        v = tetra_vector(z)
        assert abs(np.vdot(v, v) - 1) < 1e-12
        m = tetra_matrix(z)
        assert np.abs(m - np.outer(v, v.conj())).max() < 1e-12
        assert np.abs(m @ m - m).max() < 1e-12  # projector


def test_tetra_bloch_vectors_form_a_tetrahedron():
    want = {
        0: (1, 1, 1),
        1: (-1, -1, 1),
        2: (1, -1, -1),
        3: (-1, 1, -1),
    }
    for z, signs in want.items():
        r = bloch_vector(tetra_matrix(z))
        assert np.abs(r - np.array(signs) / math.sqrt(3)).max() < 1e-12
    # pairwise overlaps all equal 1/3
    for a in range(4):
        for b in range(4):
            overlap = float(np.trace(tetra_matrix(a) @ tetra_matrix(b)).real)
            assert abs(overlap - (1.0 if a == b else 1 / 3)) < 1e-12


def test_tetra_states_sum_to_twice_identity():
    total = sum(tetra_matrix(z) for z in range(4))
    assert np.abs(total - 2 * identity2).max() < 1e-12
    assert _qubits.check_povm(tetra_povm())


def test_matrix_checks_hold_their_absolute_tolerance():
    # np.allclose's default relative tolerance of 1e-5 would let both pass
    assert not _qubits.check_povm([identity2 * (1 + 4e-6)])
    skew = np.array([[0.6, 0.2], [0.2 + 2e-6, 0.4]])
    assert not qmath.is_density_matrix(skew)
    assert qmath.is_density_matrix((skew + skew.T) / 2)


def test_measurement_statistics_on_own_states():
    for z in range(4):
        probs = ttr_probabilities(tetra_matrix(z))
        for x in range(4):
            want = 0.5 if x == z else 1 / 6
            assert abs(probs[x] - want) < 1e-12
        assert ttr_outcome_weights(z)[z] == Fraction(1, 2)


def test_measurement_statistics_on_shrunk_states_exact():
    state = ShrunkState(2, Fraction(3, 7))
    probs = ttr_probabilities(state)
    assert probs[2] == Fraction(1, 4) + Fraction(3, 7) / 4
    for x in (0, 1, 3):
        assert probs[x] == Fraction(1, 4) - Fraction(3, 7) / 12
    assert sum(probs) == 1


def test_measure_prepare_channel_on_random_densities():
    rng = np.random.default_rng(321)
    for _ in range(100):
        rho = _random_density(rng)
        out = ttr_channel(rho)
        want = rho / 3 + (2 / 3) * identity2 / 2
        assert np.abs(out - want).max() < 1e-12


def test_shrunk_state_domain():
    with pytest.raises(ValueError):
        ShrunkState(0, Fraction(0))
    with pytest.raises(ValueError):
        ShrunkState(0, Fraction(3, 2))
    with pytest.raises(ValueError):
        ShrunkState(7, Fraction(1, 2))
    with pytest.raises(ValueError, match="must be a Fraction"):
        ShrunkState(0, 0.5)


def test_densify_weights_round_trip():
    state = ShrunkState(1, Fraction(2, 5))
    w = tetra_weights(state)
    assert sum(w.values()) == 1
    assert w[1] == Fraction(2, 5) + Fraction(3, 20)
    assert np.abs(mixture_matrix(w) - densify(state)).max() < 1e-12


def test_fidelity_basics():
    rng = np.random.default_rng(11)
    for _ in range(20):
        v = _qubits.random_pure_state(rng)
        assert abs(fidelity(v, np.outer(v, v.conj())) - 1) < 1e-12
        assert abs(fidelity(v, identity2 / 2) - 0.5) < 1e-12
    with pytest.raises(ValueError):
        fidelity(np.array([1.0, 1.0]), identity2 / 2)


def test_state_family_ranks():
    tetra = [tetra_matrix(z) for z in range(4)]
    assert linear_independence_rank(tetra) == 4
    plus = np.array([1, 1]) / math.sqrt(2)
    minus = np.array([1, -1]) / math.sqrt(2)
    bb84 = [
        np.diag([1.0, 0.0]),
        np.diag([0.0, 1.0]),
        np.outer(plus, plus),
        np.outer(minus, minus),
    ]
    assert linear_independence_rank(bb84) == 3
    assert linear_independence_rank(tetra[:2]) == 2
    with pytest.raises(ValueError):
        linear_independence_rank([])
    assert linear_independence_rank(tetra_matrix(z) for z in range(4)) == 4
    with pytest.raises(ValueError, match="between 1 and 4 states, got 5"):
        linear_independence_rank(tetra + tetra[:1])


def test_tetra_matrices_are_read_only():
    for z in range(4):
        with pytest.raises(ValueError, match="read-only"):
            tetra_matrix(z)[0, 0] = 1
