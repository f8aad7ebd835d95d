"""Exact shrink bookkeeping, in `Fraction` arithmetic only.

A `ShrunkState` pairs a letter with a rational shrink factor alpha: the
state alpha * chi(label) + (1 - alpha) * I/2, where chi is the letter's
tetra state.  `tetra_weights` writes it as the one rational mixture of
the four tetra states equal to it, which mixes its letter by
W(alpha) = alpha I + (1 - alpha)/4 J.  The tetra measurement mixes a
letter by W(1/3), and W(a) W(b) = W(ab), so the outcome law is
`tetra_weights` too, at alpha / 3 (`shrunk_probabilities`).  Nothing here
needs the states' complex matrices, so this module imports no numpy.

`ShrunkState` is the one range check of a shrink factor: it takes a
`Fraction` in (0, 1] and nothing else.
"""

from collections import namedtuple
from fractions import Fraction

from .netgraph import LETTERS, Letter, as_letter


class ShrunkState(namedtuple("ShrunkState", ("label", "alpha"))):
    """A tetra state shrunk toward the maximally mixed state:
    alpha * chi(label) + (1 - alpha) * I/2, with rational alpha in (0, 1].
    Every way to make one, `_replace` included, checks both."""

    __slots__ = ()

    def __new__(cls, label: Letter, alpha: Fraction):
        as_letter(label)
        if not isinstance(alpha, Fraction):
            raise ValueError(f"shrink factor must be a Fraction, got {alpha!r}")
        if not 0 < alpha.numerator <= alpha.denominator:  # a denominator is positive
            raise ValueError(f"shrink factor must lie in (0, 1], got {alpha}")
        return tuple.__new__(cls, (label, alpha))

    @classmethod
    def _make(cls, iterable):  # what `_replace` calls
        return cls(*iterable)


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


def shrunk_probabilities(state: ShrunkState) -> tuple[Fraction, ...]:
    """Tetra-measurement outcome probabilities of a shrunk state, indexed
    by letter: the law of its letter at shrink alpha / 3."""
    return tuple(tetra_weights(ShrunkState(state.label, state.alpha / 3)).values())
