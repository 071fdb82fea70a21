"""Exact taxicab ball counts on the two lattices, plus leading asymptotics.

The even ball of radius p is every integer point within true distance p
of the origin.  The odd ball is every point of the half-shifted lattice
within true distance p + 1/2 of the midpoint between the two closest
lattice points; in doubled coordinates that midpoint is the origin.
Counts are exact integers, computed from binomial sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import NamedTuple

from .lattice_core import LatticeParity, _need_int, _need_parity

#: Refuse to materialise balls with more points than this by default.
DEFAULT_ENUMERATION_CAP = 10_000_000


@dataclass(frozen=True)
class BallSpec:
    """One ball: lattice parity, dimension k >= 1, radius parameter p >= 0."""

    parity: LatticeParity
    k: int
    p: int

    def __post_init__(self):
        _need_parity(self.parity)
        _need_int(self.k, 1, "dimension k")
        _need_int(self.p, 0, "radius parameter p")


class AsymptoticTerms(NamedTuple):
    """Coefficients of p^k and p^(k-1) in the ball count, exact rationals."""

    lead: Fraction
    second: Fraction


def count_points(parity: LatticeParity, k: int, p: int) -> int:
    """Ball count as a plain function of (parity, k, p).

    Accepts k = 0 as the degenerate case used by bound comparisons: the
    even ball collapses to the single center point, the odd ball to the
    two points astride the midpoint.

    Raises:
        ValueError: ``parity`` is not a ``LatticeParity`` (a string such
            as ``"even"`` included), or ``k`` or ``p`` is not an int
            >= 0 (floats and bools included).
    """
    _need_parity(parity)
    _need_int(k, 0, "dimension k")
    _need_int(p, 0, "radius parameter p")
    if k == 0:
        return 1 if parity is LatticeParity.EVEN else 2
    # Terms with i > p vanish, since comb(p, i) = 0 there.
    terms = range(min(k, p) + 1)
    if parity is LatticeParity.EVEN:
        return sum((1 << i) * comb(k, i) * comb(p, i) for i in terms)
    return sum((1 << i) * (comb(k, i) + comb(k - 1, i)) * comb(p, i) for i in terms)


def ball_count(spec: BallSpec) -> int:
    """Exact number of lattice points in the ball."""
    return count_points(spec.parity, spec.k, spec.p)


def ball_enumerate(spec: BallSpec, cap: int = DEFAULT_ENUMERATION_CAP) -> set:
    """Materialise the ball as a set of doubled-coordinate points.

    Raises:
        ValueError: the ball holds more than ``cap`` points; the message
            names the cap so callers can raise it deliberately.
    """
    total = ball_count(spec)
    if total > cap:
        raise ValueError(
            f"ball holds {total} points, beyond the enumeration cap of {cap}"
        )
    k, p = spec.k, spec.p
    odd = spec.parity is LatticeParity.ODD
    pts = []
    cur = [0] * k

    def steps(axis: int, budget: int) -> list:
        # (axis, doubled entry, budget left) per entry on this axis: 2t at
        # cost |t|, except the odd lattice's first axis, +-(2b+1) at cost b.
        if odd and axis == 0:
            return [(0, s * (2 * b + 1), budget - b) for b in range(budget + 1) for s in (-1, 1)]
        return [(axis, 2 * t, budget - abs(t)) for t in range(-budget, budget + 1)]

    # Depth first by an explicit stack, so k is not bound by the recursion
    # limit: an entry's subtree runs before its next sibling is popped.
    stack = steps(0, p)
    while stack:
        axis, c, rest = stack.pop()
        cur[axis] = c
        if axis == k - 1 or rest == 0:  # a spent budget leaves only zeros
            pts.append(tuple(cur[:axis + 1]) + (0,) * (k - 1 - axis))
        elif axis < k - 2:
            stack += steps(axis + 1, rest)
        else:  # the last axis in place, no stack entry per point
            for t in range(-rest, rest + 1):
                cur[-1] = 2 * t
                pts.append(tuple(cur))
    return set(pts)


def leading_terms(parity: LatticeParity, k: int) -> AsymptoticTerms:
    """Coefficients of the two highest powers of p in the ball count.

    Even lattice: 2^k / k! and 2^(k-1) / (k-1)!.
    Odd lattice:  2^k / k! and 2^k / (k-1)!.

    Raises:
        ValueError: ``parity`` is not a ``LatticeParity`` or ``k`` is not
            an int >= 1 (bools included).
    """
    _need_parity(parity)
    _need_int(k, 1, "dimension k")
    lead = Fraction(1 << k, factorial(k))
    if parity is LatticeParity.EVEN:
        second = Fraction(1 << (k - 1), factorial(k - 1))
    else:
        second = Fraction(1 << k, factorial(k - 1))
    return AsymptoticTerms(lead, second)


def two_term_value(parity: LatticeParity, k: int, p: int) -> Fraction:
    """The two-term approximation lead*p^k + second*p^(k-1), exact.

    Raises:
        ValueError: as ``leading_terms``, or ``p`` is not an int >= 0.
    """
    terms = leading_terms(parity, k)
    _need_int(p, 0, "radius parameter p")
    return terms.lead * p**k + terms.second * p ** (k - 1)
