from fractions import Fraction

import pytest

from troppencil.plane import LineGeom, PointGeom, RayGeom, SegmentGeom, solve

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
