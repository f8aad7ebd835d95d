"""Exact shrink bookkeeping, in `Fraction` arithmetic only.

A `ShrunkState` pairs a letter with a rational shrink factor alpha: the
state alpha * chi(label) + (1 - alpha) * I/2, where chi is the letter's
tetra state.  `tetra_weights` writes it as the one rational mixture of
the four tetra states equal to it, which mixes its letter by
W(alpha) = alpha I + (1 - alpha)/4 J.  The tetra measurement mixes a
letter by W(1/3), and W(a) W(b) = W(ab), so the outcome laws are
`tetra_weights` too: at 1/3 on a pure state (`ttr_outcome_weights`) and
at alpha / 3 on a shrunk one (`shrunk_probabilities`).  Nothing here
needs the states' complex matrices, so this module imports no numpy.

`as_shrink` is the one range check of a shrink factor: `ShrunkState`
calls it.
"""

from dataclasses import dataclass
from fractions import Fraction

from .netgraph import LETTERS, Letter, as_letter


def as_shrink(a):
    """a as a shrink factor: the one check of every entry point that takes
    one.  A float stays a float; anything else becomes an exact Fraction.
    Raises ValueError unless it lies in (0, 1], NaN included."""
    if not isinstance(a, (float, Fraction)):
        a = Fraction(a)
    # NaN fails every comparison, so it is refused; a denominator is positive
    if not (0 < a <= 1 if isinstance(a, float) else 0 < a.numerator <= a.denominator):
        raise ValueError(f"shrink factor must lie in (0, 1], got {a}")
    return a


@dataclass(frozen=True)
class ShrunkState:
    """A tetra state shrunk toward the maximally mixed state:
    alpha * chi(label) + (1 - alpha) * I/2, with rational alpha in (0, 1]."""

    label: Letter
    alpha: Fraction

    def __post_init__(self):
        as_letter(self.label)
        if not isinstance(self.alpha, Fraction):
            raise ValueError(f"shrink factor must be a Fraction, got {self.alpha!r}")
        as_shrink(self.alpha)


def shrunk_weights(a: Fraction) -> tuple[int, int, int]:
    """tetra_weights at shrink a as integers: with a = p/q, the weight
    q + 3p of the label, q - p of each other letter, and their common
    denominator 4q."""
    p, q = a.numerator, a.denominator
    return q + 3 * p, q - p, 4 * q


def tetra_weights(state: ShrunkState) -> dict[Letter, Fraction]:
    """The unique rational mixture over the four tetra states equal to the
    shrunk state (I/2 is the average of the four)."""
    own, off, den = shrunk_weights(state.alpha)
    own, off = Fraction(own, den), Fraction(off, den)
    return {z: own if z == state.label else off for z in LETTERS}


def ttr_outcome_weights(z: Letter) -> dict[Letter, Fraction]:
    """Tetra-measurement outcome law on a pure tetra state: the measurement
    mixes the state's letter by W(1/3)."""
    return tetra_weights(ShrunkState(z, Fraction(1, 3)))


def shrunk_probabilities(state: ShrunkState) -> tuple[Fraction, ...]:
    """Tetra-measurement outcome probabilities of a shrunk state, indexed
    by letter: the law of its letter at shrink alpha / 3."""
    return tuple(tetra_weights(ShrunkState(state.label, state.alpha / 3)).values())
