"""Entanglement-free cloners, in the closed forms of the paper: the tests'
reference for them.  `qnc4` itself runs the fork's cloner as the compiled
fork kernel, which `build_kernel` derives from the shrink table; the fork
branch law of `_reference` is built from `efc_pair_distribution` here.

`efc_apply` is the cloner used at fork nodes: measure the incoming qubit
with the tetra measurement, then draw a pair of letters from a distribution
tuned to the incoming shrink factor alpha, and prepare the two tetra states.
For an input alpha * chi + (1 - alpha) * I/2 the two outputs are exactly
independent copies shrunk by alpha/9.  All cloner tables are exact
rationals and the product form is checked exactly on every call.

`efco2_apply` is the analogous cloner for a pair of opposite computational
basis states, and `efc2_apply` extends it to mirror-symmetric pure states
by solving for the two free mixing probabilities and verifying the claimed
closed form by substitution.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from qnc4.errors import VerificationError
from qnc4.netgraph import LETTERS, Letter, as_letter
from qnc4.shrink import ShrunkState, shrunk_probabilities, tetra_weights

from _qubits import identity2

PairDist = dict[tuple[Letter, Letter], Fraction]


def as_shrink(a):
    """a as a shrink factor: the one check of every cloner and reference
    law that takes one.  A float stays a float; anything else becomes an
    exact Fraction.  Raises ValueError unless it lies in (0, 1], NaN
    included."""
    if not isinstance(a, (float, Fraction)):
        a = Fraction(a)
    # NaN fails every comparison, so it is refused; a denominator is positive
    if not (0 < a <= 1 if isinstance(a, float) else 0 < a.numerator <= a.denominator):
        raise ValueError(f"shrink factor must lie in (0, 1], got {a}")
    return a


@dataclass(frozen=True)
class EfcParams:
    """Pair-choice weights conditioned on the measured letter X, and the
    resulting marginal pattern around the input letter."""

    alpha: Fraction
    p1: Fraction  # pair (X, X), 1 way
    p2: Fraction  # pairs (X, Y) and (Y, X) with Y != X, 6 ways
    p3: Fraction  # pairs (Y, Y') with distinct Y, Y' != X, 6 ways
    p4: Fraction  # pairs (Y, Y) with Y != X, 3 ways
    q1: Fraction
    q2: Fraction
    q3: Fraction
    q4: Fraction


def efc_params(alpha) -> EfcParams:
    """Cloner weights for incoming shrink alpha, verified exactly.

    The q values are the marginal pair pattern around the input letter once
    the tetra-measurement outcome is averaged out; the identities relating
    them to the p values are rational and are re-checked on every call.
    """
    a = Fraction(as_shrink(alpha))
    p1 = (81 + 6 * a + a * a) / 432
    p2 = (9 - a) * (15 + a) / 1296
    p3 = (9 - a) * (3 + a) / 1296
    p4 = (9 - 2 * a + a * a) / 432
    own = Fraction(1, 4) + a / 4
    other = Fraction(1, 4) - a / 12
    q1 = (Fraction(1, 4) + a / 12) ** 2
    q2 = (Fraction(1, 4) - a / 36) * (Fraction(1, 4) + a / 12)
    q3 = (Fraction(1, 4) - a / 36) ** 2
    q4 = q3
    checks = (
        p1 + 6 * p2 + 6 * p3 + 3 * p4 == 1,
        min(p1, p2, p3, p4) > 0,
        q1 == own * p1 + 3 * other * p4,
        q2 == (own + other) * p2 + 2 * other * p3,
        q3 == 2 * other * p2 + (own + other) * p3,
        q4 == other * p1 + (own + 2 * other) * p4,
        q1 + 6 * q2 + 6 * q3 + 3 * q4 == 1,
    )
    if not all(checks):
        raise VerificationError(f"cloner weight identities fail at alpha={a}")
    return EfcParams(a, p1, p2, p3, p4, q1, q2, q3, q4)


def efc_pair_distribution(alpha, measured: Letter) -> PairDist:
    """Distribution over prepared letter pairs given measured letter."""
    measured = as_letter(measured)
    par = efc_params(alpha)
    dist = {}
    for z1, z2 in product(LETTERS, repeat=2):
        if z1 == measured and z2 == measured:
            dist[(z1, z2)] = par.p1
        elif z1 == measured or z2 == measured:
            dist[(z1, z2)] = par.p2
        elif z1 == z2:
            dist[(z1, z2)] = par.p4
        else:
            dist[(z1, z2)] = par.p3
    return dist


def efc_joint_distribution(state: ShrunkState) -> PairDist:
    """Exact output pair distribution of the cloner on a shrunk state."""
    joint = {pair: Fraction(0) for pair in product(LETTERS, repeat=2)}
    probs = shrunk_probabilities(state)
    for x in LETTERS:
        for pair, w in efc_pair_distribution(state.alpha, x).items():
            joint[pair] += probs[x] * w
    return joint


def efc_apply(state: ShrunkState) -> tuple[ShrunkState, ShrunkState]:
    """Clone a shrunk state; each output is shrunk by a further 1/9.

    The exact joint output distribution is compared against the product of
    the two claimed marginals before returning.
    """
    out = ShrunkState(state.label, state.alpha / 9)
    marginal = tetra_weights(out)
    joint = efc_joint_distribution(state)
    for (z1, z2), w in joint.items():
        if w != marginal[z1] * marginal[z2]:
            raise VerificationError(
                f"cloner output at alpha={state.alpha} is not the claimed product"
            )
    return out, out


# ---------------------------------------------------------------------------
# cloner for opposite basis states


@dataclass(frozen=True)
class Efco2Result:
    p: Fraction
    pair_probs: tuple  # (p1, p2, p3): (X,X), (X,~X) or (~X,X), (~X,~X)
    pair_dist: dict  # (b1, b2) -> probability, marginal over the measurement
    clone_weights: tuple  # weight on |x> and |~x> per clone
    output_shrink: Fraction


def efco2_apply(x: int, p) -> Efco2Result:
    """Clone one of the two states p|x><x| + (1-p) I/2 for bit x.

    Measures in the computational basis and draws the prepared pair from
    weights tuned to p; each output is shrunk by p/2 and the exact pair
    distribution factors as a product, which is checked before returning.
    Accepts a rational p for exact arithmetic (floats degrade gracefully).
    """
    if isinstance(x, bool) or x not in (0, 1):  # like a letter, never a bool
        raise ValueError(f"input must be the bit 0 or 1, got {x!r}")
    p = as_shrink(p)
    # exact constants: with a float p every sum and product below is a float
    half, quart, sixteenth = Fraction(1, 2), Fraction(1, 4), Fraction(1, 16)
    p1 = half + p * p * sixteenth
    p2 = quart - p * p * sixteenth
    p3 = p * p * sixteenth
    m_own = half + p / 4  # weight of |x> per clone
    m_other = half - p / 4
    meas_own = half + p / 2
    meas_other = half - p / 2
    dist = {
        (x, x): meas_own * p1 + meas_other * p3,
        (x, 1 - x): p2,
        (1 - x, x): p2,
        (1 - x, 1 - x): meas_own * p3 + meas_other * p1,
    }
    expected = {
        (x, x): m_own * m_own,
        (x, 1 - x): m_own * m_other,
        (1 - x, x): m_own * m_other,
        (1 - x, 1 - x): m_other * m_other,
    }
    tol = 0 if isinstance(p, Fraction) else 1e-12
    for pair in dist:
        if abs(dist[pair] - expected[pair]) > tol:
            raise VerificationError(f"pair distribution at p={p} is not a product")
    return Efco2Result(p, (p1, p2, p3), dist, (m_own, m_other), p / 2)


# ---------------------------------------------------------------------------
# cloner for mirror-symmetric pure states


_PLUS = np.full((2, 2), 0.5, dtype=complex)


def _mirror_state(theta: float, x: int) -> np.ndarray:
    if x == 0:
        return np.array([math.cos(theta), math.sin(theta)])
    return np.array([math.sin(theta), math.cos(theta)])


@dataclass(frozen=True)
class Efc2Result:
    theta: float
    x: int
    p: float
    step1_shrink: float  # p * cos(2 theta)
    q: float  # probability of emitting |+> in the final mixing step
    r: float  # shrink of each output toward the input pure state
    clone: np.ndarray
    joint: np.ndarray


def efc2_apply(theta: float, x: int, p) -> Efc2Result:
    """Clone one of the mirror pair cos t|0>+sin t|1>, sin t|0>+cos t|1>.

    Chains three moves: collapse to the computational basis (shrink becomes
    p cos 2t), clone with `efco2_apply`, then mix each output with |+> with
    probability q to tilt the axis back.  The closed form
    r = p / (2 + p sin 2t), q = r sin 2t is verified by substitution into
    the two defining equations and against the output matrix, both at 1e-12.
    """
    if isinstance(x, bool) or x not in (0, 1):  # like a letter, never a bool
        raise ValueError(f"input must be the bit 0 or 1, got {x!r}")
    if not 0 <= theta < math.pi / 4:
        raise ValueError(
            f"theta must lie in [0, pi/4) so the two states stay distinct, got {theta}"
        )
    p = float(as_shrink(p))
    c2, s2 = math.cos(2 * theta), math.sin(2 * theta)
    p_mid = p * c2
    r = p / (2 + p * s2)
    q = r * s2

    eq1 = (r * math.cos(theta) ** 2 + (1 - r) / 2) - (
        (0.5 + p_mid / 4) * (1 - q) + q / 2
    )
    eq2 = r * math.sin(theta) * math.cos(theta) - q / 2
    if max(abs(eq1), abs(eq2)) > 1e-12:
        raise VerificationError(
            f"closed form fails its defining equations at theta={theta}, p={p}"
        )

    mid = efco2_apply(x, p_mid)
    basis = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
    own, other = float(mid.clone_weights[0]), float(mid.clone_weights[1])
    clone_mid = own * basis[x] + other * basis[1 - x]
    clone = (1 - q) * clone_mid + q * _PLUS

    psi = _mirror_state(theta, x)
    target = r * np.outer(psi, psi.conj()) + (1 - r) * identity2 / 2
    if np.abs(clone - target).max() > 1e-12:
        raise VerificationError(
            f"output is not a shrink of the input state at theta={theta}, p={p}"
        )
    joint = np.zeros((4, 4), dtype=complex)
    for (b1, b2), w in mid.pair_dist.items():
        m1 = (1 - q) * basis[b1] + q * _PLUS
        m2 = (1 - q) * basis[b2] + q * _PLUS
        joint += float(w) * np.kron(m1, m2)
    if np.abs(joint - np.kron(clone, clone)).max() > 1e-12:
        raise VerificationError("joint output is not a product")
    return Efc2Result(theta, x, p, p_mid, q, r, clone, joint)
