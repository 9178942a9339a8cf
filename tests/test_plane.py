from fractions import Fraction

import pytest

from troppencil.plane import LineGeom, PointGeom, RayGeom, SegmentGeom, canonical_pieces, solve

# (equalities, inequalities, the expected geometry), all forms integer
SYSTEMS = [
    # det > 0: x - 1 = 0 and y - 2 = 0 meet in (1, 2)
    (((1, 0, -1), (0, 1, -2)), ((1, 1, 0), (-1, 0, 1)), PointGeom(Fraction(1), Fraction(2))),
    # the same point with det < 0, and a point off the integer lattice
    (((0, 1, -2), (1, 0, -1)), ((1, 1, 0),), PointGeom(Fraction(1), Fraction(2))),
    (((3, 1, -1), (1, -2, 4)), ((1, 0, 1),), PointGeom(Fraction(-2, 7), Fraction(13, 7))),
    (((1, -2, 4), (3, 1, -1)), ((-1, 0, 0),), PointGeom(Fraction(-2, 7), Fraction(13, 7))),
    # the point violates an inequality, for either sign of det
    (((1, 0, -1), (0, 1, -2)), ((1, 1, -4),), None),
    (((0, 1, -2), (1, 0, -1)), ((1, 1, -4),), None),
    # parallel and disjoint
    (((1, 1, 0), (2, 2, -3)), (), None),
    # coincident: y = x, cut to a point, a segment, a ray, the whole line
    (((1, -1, 0), (-2, 2, 0)), ((1, 0, -1), (-1, 0, 1)), PointGeom(Fraction(1), Fraction(1))),
    (
        ((1, -1, 0), (-2, 2, 0)),
        ((1, 0, 1), (0, -1, 3)),
        SegmentGeom((Fraction(-1), Fraction(-1)), (Fraction(3), Fraction(3))),
    ),
    (((1, -1, 0), (-2, 2, 0)), ((0, 2, -1),), RayGeom((Fraction(1, 2), Fraction(1, 2)), (1, 1))),
    (((1, -1, 0), (-2, 2, 0)), ((0, 0, 5),), LineGeom((Fraction(0), Fraction(0)), (1, 1))),
    # coincident lines cut to nothing
    (((1, -1, 0), (-2, 2, 0)), ((1, 0, -2), (-1, 0, 1)), None),
    # parallel with one gradient entry 0 on both sides: disjoint, then y = 1 twice
    (((0, 1, 0), (0, 2, -3)), (), None),
    (((1, 0, 0), (-2, 0, -3)), (), None),
    (((0, 1, -1), (0, -3, 3)), (), LineGeom((Fraction(0), Fraction(1)), (1, 0))),
]


def _scaled(forms, k):
    return tuple(tuple(k * c for c in f) for f in forms)


@pytest.mark.parametrize("eqs, ineqs, want", SYSTEMS)
def test_solve_is_invariant_under_positive_scaling(eqs, ineqs, want):
    assert solve(eqs, ineqs) == want
    for k in (2, 3, 35, 10**12 + 39):
        assert solve(_scaled(eqs, k), _scaled(ineqs, k)) == want
        # each form on its own scale, too
        mixed = tuple(_scaled((f,), k + m)[0] for m, f in enumerate(ineqs))
        assert solve((eqs[0], _scaled(eqs[1:], k)[0]), mixed) == want


def test_solve_takes_rational_forms():
    third = Fraction(1, 3)
    eqs = ((third, 0, -third), (0, 1, -2))
    assert solve(eqs, ((1, 1, 0),)) == PointGeom(Fraction(1), Fraction(2))
    assert solve(eqs, ((third, third, -third * 4),)) is None


F = Fraction
# (geometries, their canonical pieces), worked by hand.  A line with
# canonical direction d (first nonzero entry positive) and offset
# (-d1, d0).X is reported through the point with d.X = 0; a piece ends
# where d.X takes its bounds.
PIECES = [
    # the full line y = x + 1 swallows (3, 4) but not (0, 5); its point with
    # x + y = 0 is (-1/2, 1/2), and the direction (-2, -2) turns into (1, 1)
    (
        [PointGeom(3, 4), LineGeom((1, 2), (-2, -2)), PointGeom(0, 5)],
        [PointGeom(0, 5), LineGeom((F(-1, 2), F(1, 2)), (1, 1))],
    ),
    # opposite rays on y = 3, overlapping or touching in one point: the full line
    ([RayGeom((2, 3), (-1, 0)), RayGeom((1, 3), (1, 0))], [LineGeom((0, 3), (1, 0))]),
    ([RayGeom((1, 3), (-1, 0)), RayGeom((1, 3), (1, 0))], [LineGeom((0, 3), (1, 0))]),
    # the ray y <= 1 on x = 0 swallows a segment that touches its origin
    ([RayGeom((0, 1), (0, -1)), SegmentGeom((0, 1), (0, -2))], [RayGeom((0, 1), (0, -1))]),
    # a segment touching the ray y >= 1 from outside extends it
    ([RayGeom((0, 1), (0, 1)), SegmentGeom((0, -2), (0, 1))], [RayGeom((0, -2), (0, 1))]),
    # on -x + 2y = -1, segments with d.X in [2, 7] and [7, 12] touch in
    # (3, 1) and merge; (3, 1) is swallowed, (7, 3) with d.X = 17 is not
    (
        [SegmentGeom((1, 0), (3, 1)), SegmentGeom((5, 2), (3, 1)), PointGeom(3, 1), PointGeom(7, 3)],
        [PointGeom(7, 3), SegmentGeom((1, 0), (5, 2))],
    ),
    # direction (1, -3), offset 3x + y = 1: the point with x - 3y = 0 is (3/10, 1/10)
    ([LineGeom((2, -5), (-1, 3))], [LineGeom((F(3, 10), F(1, 10)), (1, -3))]),
    # the ray from (0, 1) along (-1, 3) keeps its origin and direction
    ([RayGeom((0, 1), (-1, 3))], [RayGeom((0, 1), (-1, 3))]),
    # pieces come by supporting line: x = 0 (d = (0, 1)) before y = 1 (d = (1, 0))
    (
        [SegmentGeom((0, 1), (1, 1)), SegmentGeom((0, 1), (0, 0))],
        [SegmentGeom((0, 0), (0, 1)), SegmentGeom((0, 1), (1, 1))],
    ),
]


@pytest.mark.parametrize("geoms, want", PIECES)
def test_canonical_pieces_cases(geoms, want):
    assert canonical_pieces(geoms) == want
