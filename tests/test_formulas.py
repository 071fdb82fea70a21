"""Lattice ball counting formulas against direct enumeration."""

from fractions import Fraction

import pytest

from meshddbs import (
    LatticeParity,
    ball_count,
    ball_enumerate,
    count_points,
    leading_terms,
    two_term_value,
)
from meshddbs.formulas import BallSpec

EVEN = LatticeParity.EVEN
ODD = LatticeParity.ODD


def test_one_dimensional_columns():
    for p in range(0, 12):
        assert count_points(EVEN, 1, p) == 2 * p + 1
        assert count_points(ODD, 1, p) == 2 * p + 2


def test_radius_zero():
    for k in range(1, 6):
        assert count_points(EVEN, k, 0) == 1
        assert count_points(ODD, k, 0) == 2


def test_small_even_values():
    # diamond counts: 1 + 2k p + ...
    assert count_points(EVEN, 2, 1) == 5
    assert count_points(EVEN, 2, 2) == 13
    assert count_points(EVEN, 2, 3) == 25
    assert count_points(EVEN, 3, 1) == 7
    assert count_points(EVEN, 3, 2) == 25


def test_small_odd_values():
    assert count_points(ODD, 2, 1) == 8
    assert count_points(ODD, 2, 2) == 18
    assert count_points(ODD, 3, 2) == 38


def test_count_matches_enumeration_spot():
    for parity, k, p in [(EVEN, 2, 5), (ODD, 2, 5), (EVEN, 4, 3), (ODD, 3, 4)]:
        spec = BallSpec(parity, k, p)
        assert count_points(parity, k, p) == len(ball_enumerate(spec))


@pytest.mark.parametrize("parity", [EVEN, ODD], ids=["even", "odd"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_enumerated_points_lie_in_ball(parity, k):
    odd = parity is ODD
    for p in range(0, 6):
        pts = ball_enumerate(BallSpec(parity, k, p))
        limit = 2 * p + odd  # doubled radius, odd case center offset included
        for pt in pts:
            assert len(pt) == k
            assert pt[0] % 2 == odd
            assert all(c % 2 == 0 for c in pt[1:])
            assert sum(abs(c) for c in pt) <= limit
        assert len(pts) == count_points(parity, k, p)


def test_enumeration_cap():
    with pytest.raises(ValueError):
        ball_enumerate(BallSpec(EVEN, 5, 40), cap=1000)


def test_enumeration_reaches_past_the_recursion_limit():
    # a walk that recursed once per axis hit the recursion limit here
    for parity, size in ((EVEN, 2001), (ODD, 4000)):
        pts = ball_enumerate(BallSpec(parity, 1000, 1))
        assert len(pts) == count_points(parity, 1000, 1) == size
        limit = 2 + (parity is ODD)
        assert all(len(pt) == 1000 and sum(map(abs, pt)) <= limit for pt in pts)


def test_ball_count_takes_spec():
    assert ball_count(BallSpec(EVEN, 3, 4)) == count_points(EVEN, 3, 4)


def test_symmetry_in_dimension_and_radius():
    # even count is symmetric in (k, p)
    for k in range(1, 9):
        for p in range(1, 9):
            assert count_points(EVEN, k, p) == count_points(EVEN, p, k)


def test_three_term_recurrence():
    for k in range(2, 10):
        for p in range(1, 10):
            assert count_points(EVEN, k, p) == (
                count_points(EVEN, k - 1, p)
                + count_points(EVEN, k, p - 1)
                + count_points(EVEN, k - 1, p - 1)
            )


def test_leading_terms_exact():
    assert leading_terms(EVEN, 2) == (Fraction(2), Fraction(2))
    assert leading_terms(EVEN, 3) == (Fraction(4, 3), Fraction(2))
    assert leading_terms(ODD, 2) == (Fraction(2), Fraction(4))
    assert leading_terms(ODD, 3) == (Fraction(4, 3), Fraction(4))


def test_two_term_value_matches_leading_terms():
    lead, second = leading_terms(ODD, 3)
    p = 7
    assert two_term_value(ODD, 3, p) == lead * p**3 + second * p**2


def test_two_term_tracks_count_to_second_order():
    # residual / p^(k-2) stays bounded as p grows
    k = 3
    for p in (20, 40, 80):
        resid = count_points(EVEN, k, p) - two_term_value(EVEN, k, p)
        assert abs(Fraction(resid, p ** (k - 2))) < 10


def test_degenerate_dimension_counts():
    # the recursions bottom out at k = 0: one even point, two odd ones
    assert count_points(EVEN, 0, 3) == 1
    assert count_points(ODD, 0, 5) == 2


def test_validation_errors():
    with pytest.raises(ValueError):
        count_points(EVEN, 2, -1)
    with pytest.raises(ValueError):
        BallSpec(EVEN, 0, 1)
