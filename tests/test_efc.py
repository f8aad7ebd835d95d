import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from qnc4.errors import VerificationError
from qnc4.qmath import tetra_matrix
from qnc4.shrink import ShrunkState, tetra_weights

import _efc
from _efc import (
    Efc2Result,
    as_shrink,
    efc_apply,
    efc_joint_distribution,
    efc_pair_distribution,
    efc_params,
    efc2_apply,
    efco2_apply,
)
from _generators import HIGH_BIT
from _qubits import densify, identity2
from _reference import two_to_one_emission

ALPHAS = [Fraction(1), Fraction(1, 3), Fraction(1, 9), Fraction(1, 5), Fraction(1, 81)]


def _joint_density(joint):
    """4x4 two-qubit density matrix of a letter-pair mixture."""
    rho = np.zeros((4, 4), dtype=complex)
    for (z1, z2), w in joint.items():
        rho += float(w) * np.kron(tetra_matrix(z1), tetra_matrix(z2))
    return rho


@pytest.mark.parametrize("alpha", ALPHAS)
def test_params_match_frozen_formulas(alpha):
    par = efc_params(alpha)
    a = alpha
    assert par.p1 == (81 + 6 * a + a * a) / 432
    assert par.p2 == (9 - a) * (15 + a) / 1296
    assert par.p3 == (9 - a) * (3 + a) / 1296
    assert par.p4 == (9 - 2 * a + a * a) / 432
    assert par.p1 + 6 * par.p2 + 6 * par.p3 + 3 * par.p4 == 1


def test_params_at_unit_shrink():
    par = efc_params(1)
    assert (par.p1, par.p2) == (Fraction(88, 432), Fraction(128, 1296))
    assert (par.p3, par.p4) == (Fraction(32, 1296), Fraction(8, 432))
    assert (par.q1, par.q2) == (Fraction(1, 9), Fraction(2, 27))
    assert par.q3 == par.q4 == Fraction(4, 81)


def test_params_positive_on_fine_grid():
    for k in range(1, 101):
        par = efc_params(Fraction(k, 100))
        assert min(par.p1, par.p2, par.p3, par.p4) > 0
        assert min(par.q1, par.q2, par.q3, par.q4) > 0


def test_params_domain():
    with pytest.raises(ValueError):
        efc_params(0)
    with pytest.raises(ValueError):
        efc_params(Fraction(7, 5))


_SHRINK_ENTRY_POINTS = {
    "as_shrink": as_shrink,
    "efc_params": efc_params,
    "efco2_apply": lambda p: efco2_apply(0, p),
    "efc2_apply": lambda p: efc2_apply(0.3, 0, p),
    "two_to_one_emission": lambda p: two_to_one_emission(0, HIGH_BIT, p),
}


@pytest.mark.parametrize("bad", [0, Fraction(3, 2), -1, float("nan"), 0.0, 1.5])
@pytest.mark.parametrize("entry", sorted(_SHRINK_ENTRY_POINTS))
def test_every_entry_point_refuses_shrinks_outside_the_unit_interval(entry, bad):
    # one check, as_shrink, so one message; NaN fails every comparison
    with pytest.raises(ValueError) as err:
        _SHRINK_ENTRY_POINTS[entry](bad)
    assert str(err.value) == f"shrink factor must lie in (0, 1], got {bad}"


def test_shrink_check_keeps_floats_and_makes_the_rest_exact():
    assert type(as_shrink(0.25)) is float
    for exact in (1, Fraction(1, 3), "2/7"):
        assert type(as_shrink(exact)) is Fraction and as_shrink(exact) == Fraction(exact)
    third = Fraction(1, 3)
    assert as_shrink(third) is third  # a Fraction is checked, not rebuilt
    # the exact laws stay exact when handed a float
    assert efc_params(0.5) == efc_params(Fraction(1, 2))
    assert two_to_one_emission(0, HIGH_BIT, 0.5) == two_to_one_emission(
        0, HIGH_BIT, Fraction(1, 2))


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("measured", range(4))
def test_pair_distribution_pattern(alpha, measured):
    par = efc_params(alpha)
    dist = efc_pair_distribution(alpha, measured)
    assert sum(dist.values()) == 1
    # classify every pair independently of the module's logic
    for (z1, z2), w in dist.items():
        if z1 == measured and z2 == measured:
            want = par.p1
        elif z1 == measured or z2 == measured:
            want = par.p2
        elif z1 == z2:
            want = par.p4
        else:
            want = par.p3
        assert w == want
    assert sum(1 for p in dist.values() if p == par.p1) >= 1


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("label", range(4))
def test_cloner_output_is_product_of_shrunk_copies(alpha, label):
    state = ShrunkState(label, alpha)
    out1, out2 = efc_apply(state)
    assert out1 == out2 == ShrunkState(label, alpha / 9)
    joint = efc_joint_distribution(state)
    marg = tetra_weights(out1)
    for z1, z2 in product(range(4), repeat=2):
        assert joint[(z1, z2)] == marg[z1] * marg[z2]


def test_cloner_refuses_an_output_that_is_not_the_claimed_product(monkeypatch):
    # the claimed marginal is the tetra mixture at alpha / 9; claim the one
    # at alpha / 3 instead and the exact joint law no longer factors
    monkeypatch.setattr(
        _efc, "tetra_weights", lambda s: tetra_weights(ShrunkState(s.label, s.alpha * 3))
    )
    with pytest.raises(VerificationError, match="is not the claimed product"):
        efc_apply(ShrunkState(1, Fraction(1, 3)))


@pytest.mark.parametrize("alpha", ALPHAS)
def test_cloner_against_density_matrix_oracle(alpha):
    # independent check: realize the full two-qubit output state numerically
    # and compare with the tensor square of the claimed single-clone state
    for label in range(4):
        state = ShrunkState(label, alpha)
        rho_out = _joint_density(efc_joint_distribution(state))
        clone = densify(ShrunkState(label, alpha / 9))
        assert np.abs(rho_out - np.kron(clone, clone)).max() < 1e-12


# ---------------------------------------------------------------------------
# opposite basis states


@pytest.mark.parametrize("p", [Fraction(1), Fraction(1, 2), Fraction(1, 4)])
@pytest.mark.parametrize("x", (0, 1))
def test_basis_cloner_exact(p, x):
    res = efco2_apply(x, p)
    p1, p2, p3 = res.pair_probs
    assert p1 == Fraction(1, 2) + p * p / 16
    assert p2 == Fraction(1, 4) - p * p / 16
    assert p3 == p * p / 16
    assert p1 + 2 * p2 + p3 == 1
    assert res.output_shrink == p / 2
    own, other = res.clone_weights
    assert own == Fraction(1, 2) + p / 4 and own + other == 1
    # the pair distribution really is the product of the marginals
    assert res.pair_dist[(x, x)] == own * own
    assert res.pair_dist[(x, 1 - x)] == own * other
    assert res.pair_dist[(1 - x, 1 - x)] == other * other


def test_basis_cloner_matches_brute_force():
    # re-derive the marginal pair distribution by direct conditioning
    for p in (Fraction(1), Fraction(2, 3), Fraction(1, 7)):
        res = efco2_apply(0, p)
        meas = {0: Fraction(1, 2) + p / 2, 1: Fraction(1, 2) - p / 2}
        for b1, b2 in product((0, 1), repeat=2):
            total = Fraction(0)
            for mx in (0, 1):
                matches = (b1 == mx) + (b2 == mx)
                if matches == 2:
                    w = res.pair_probs[0]
                elif matches == 1:
                    w = res.pair_probs[1]
                else:
                    w = res.pair_probs[2]
                total += meas[mx] * w
            assert total == res.pair_dist[(b1, b2)]


@pytest.mark.parametrize("bit", [True, False, 2, -1, 0.5, None])
def test_cloners_refuse_non_bits(bit):
    with pytest.raises(ValueError, match="input must be the bit 0 or 1"):
        efco2_apply(bit, Fraction(1, 2))
    with pytest.raises(ValueError, match="input must be the bit 0 or 1"):
        efc2_apply(0.3, bit, 0.5)


def test_mirror_cloner_checks_its_bit_before_its_angle():
    with pytest.raises(ValueError, match="input must be the bit 0 or 1"):
        efc2_apply(math.pi / 4, 2, 0.5)


def test_basis_cloner_accepts_floats():
    res = efco2_apply(1, 0.37)
    assert isinstance(res.output_shrink, float)
    assert abs(sum(res.pair_dist.values()) - 1) < 1e-12


# ---------------------------------------------------------------------------
# mirror-symmetric pure states


THETAS = [0.0, math.pi / 12, math.pi / 6, math.pi / 5]


@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("p", [0.25, 0.5, 1.0])
@pytest.mark.parametrize("x", (0, 1))
def test_mirror_cloner_closed_form(theta, p, x):
    res = efc2_apply(theta, x, p)
    assert isinstance(res, Efc2Result)
    assert res.r > 0
    assert abs(res.r - p / (2 + p * math.sin(2 * theta))) < 1e-15
    assert abs(res.q - res.r * math.sin(2 * theta)) < 1e-15
    # the defining equations, re-checked here at full precision
    c, s = math.cos(theta), math.sin(theta)
    lhs = res.r * c * c + (1 - res.r) / 2
    rhs = (0.5 + res.step1_shrink / 4) * (1 - res.q) + res.q / 2
    assert abs(lhs - rhs) < 1e-12
    assert abs(res.r * s * c - res.q / 2) < 1e-12
    # output matrix against the target shrink of the input state
    psi = np.array([c, s]) if x == 0 else np.array([s, c])
    target = res.r * np.outer(psi, psi) + (1 - res.r) * identity2 / 2
    assert np.abs(res.clone - target).max() < 1e-12
    assert np.abs(res.joint - np.kron(res.clone, res.clone)).max() < 1e-12


def test_mirror_cloner_rejects_degenerate_angle():
    with pytest.raises(ValueError):
        efc2_apply(math.pi / 4, 0, 0.5)
    with pytest.raises(ValueError):
        efc2_apply(-0.1, 0, 0.5)
    with pytest.raises(ValueError):
        efc2_apply(0.3, 2, 0.5)
