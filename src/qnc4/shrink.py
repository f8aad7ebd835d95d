"""Exact shrink bookkeeping, in `Fraction` arithmetic only.

A `ShrunkState` pairs a letter with a rational shrink factor alpha: the
state alpha * chi(label) + (1 - alpha) * I/2, where chi is the letter's
tetra state.  It converts losslessly to and from a rational mixture over
the four tetra states, `tetra_weights`, which mixes its letter by
W(alpha) = alpha I + (1 - alpha)/4 J.  The tetra measurement mixes a
letter by W(1/3), and W(a) W(b) = W(ab), so the outcome laws are
`tetra_weights` too: at 1/3 on a pure state (`ttr_outcome_weights`) and
at alpha / 3 on a shrunk one (`shrunk_probabilities`).  Nothing here
needs the states' complex matrices, so this module imports no numpy;
`qmath` re-exports every name in it.

`as_shrink` is the one range check of a shrink factor: `ShrunkState`, the
cloners in `efc` and `qcompiler.two_to_one_emission` all call it.
"""

from dataclasses import dataclass
from fractions import Fraction

from .netgraph import LETTERS, Letter, as_letter


def as_shrink(a):
    """a as a shrink factor: the one check of every entry point that takes
    one.  A float stays a float; anything else becomes an exact Fraction.
    Raises ValueError unless it lies in (0, 1], NaN included."""
    if not isinstance(a, float):
        a = Fraction(a)
    if not 0 < a <= 1:  # NaN fails every comparison, so it is refused
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


def tetra_weights(state: ShrunkState) -> dict[Letter, Fraction]:
    """The unique rational mixture over the four tetra states equal to the
    shrunk state (I/2 is the average of the four)."""
    off = (1 - state.alpha) / 4
    return {z: state.alpha + off if z == state.label else off for z in LETTERS}


def shrunk_from_weights(weights) -> ShrunkState | None:
    """Recover a ShrunkState from exact tetra-mixture weights, or None when
    the weights are not of that one-peak, three-equal form."""
    w = {z: Fraction(weights.get(z, 0)) for z in LETTERS}
    if sum(w.values()) != 1:
        return None
    top = max(w, key=lambda z: w[z])
    rest = [w[z] for z in LETTERS if z != top]
    if rest[0] != rest[1] or rest[0] != rest[2]:
        return None
    alpha = w[top] - rest[0]
    if not 0 < alpha <= 1:
        return None
    return ShrunkState(top, alpha)


def ttr_outcome_weights(z: Letter) -> dict[Letter, Fraction]:
    """Tetra-measurement outcome law on a pure tetra state: the measurement
    mixes the state's letter by W(1/3)."""
    return tetra_weights(ShrunkState(z, Fraction(1, 3)))


def shrunk_probabilities(state: ShrunkState) -> tuple[Fraction, ...]:
    """Tetra-measurement outcome probabilities of a shrunk state, indexed
    by letter: the law of its letter at shrink alpha / 3."""
    return tuple(tetra_weights(ShrunkState(state.label, state.alpha / 3)).values())
