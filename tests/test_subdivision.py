import random
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import PRIMES, coprime_rational, prime_rational, rand_support
from troppencil.core import (
    ProjPoint,
    SupportSet,
    TropError,
    min_profile,
    orient2d,
    support_values,
)
from troppencil.oracle import brute_regular_subdivision, squared_distance_heights
from troppencil.subdivision import (
    cell_dual_point,
    curve_contains,
    dual_curve,
    is_maximal,
    regular_subdivision,
    secondary_cone_contains,
)


def test_square_subdivisions(SQ):
    assert regular_subdivision(SQ, ProjPoint((3, 1, 2, 1))).cells == ((1, 2, 3), (2, 3, 4))
    assert regular_subdivision(SQ, ProjPoint((0, 0, 0, 0))).cells == ((1, 2, 3, 4),)
    assert regular_subdivision(SQ, ProjPoint((1, 0, 0, 0))).cells == ((1, 2, 3), (2, 3, 4))


def test_dual_curve_square(SQ):
    cv = dual_curve(SQ, ProjPoint((1, 0, 0, 0)))
    by_cell = {v.cell: v.point for v in cv.vertices}
    assert by_cell[(1, 2, 3)] == ProjPoint((1, 1, 0))
    assert by_cell[(2, 3, 4)] == ProjPoint((0, 0, 0))
    assert len(cv.edges) == 1 and cv.edges[0].dual == (2, 3)
    assert len(cv.rays) == 4


def test_dual_curve_triangle_star(TRI):
    cv = dual_curve(TRI, ProjPoint((0, 0, 0)))
    assert len(cv.vertices) == 1
    assert cv.vertices[0].point == ProjPoint((0, 0, 0))
    assert not cv.edges
    assert sorted(r.direction for r in cv.rays) == [(-1, -1), (0, 1), (1, 0)]


def test_dual_curve_flat_square(SQ):
    cv = dual_curve(SQ, ProjPoint((0, 0, 0, 0)))
    assert len(cv.vertices) == 1 and len(cv.rays) == 4 and not cv.edges
    assert cv.vertices[0].point == ProjPoint((0, 0, 0))


def test_curve_contains_examples(SQ, TRI):
    c = ProjPoint((3, 1, 2, 1))
    assert curve_contains(SQ, c, ProjPoint((0, 0, 0)))
    assert curve_contains(SQ, c, ProjPoint((2, 1, 0)))
    assert not curve_contains(TRI, ProjPoint((0, 0, 0)), ProjPoint((1, 2, 0)))


def test_cell_dual_point_examples(SQ, TRI):
    assert cell_dual_point(SQ, ProjPoint((3, 1, 2, 1)), (1, 2, 3)) == ProjPoint((2, 1, 0))
    assert cell_dual_point(SQ, ProjPoint((1, 0, 0, 0)), (2, 3, 4)) == ProjPoint((0, 0, 0))
    assert cell_dual_point(TRI, ProjPoint((0, 0, 0)), (1, 2, 3)) == ProjPoint((0, 0, 0))


def test_cell_dual_point_errors(SQ):
    with pytest.raises(TropError, match="not a face"):
        cell_dual_point(SQ, ProjPoint((3, 1, 2, 1)), (1, 2, 4))
    with pytest.raises(TropError, match="not a face"):
        cell_dual_point(SQ, ProjPoint((0, 0, 0, 0)), (1, 2, 3))
    degenerate = SupportSet.from_rs(2, [(0, 0), (1, 0), (2, 0), (0, 1)])
    with pytest.raises(TropError, match="degenerate cell"):
        cell_dual_point(degenerate, ProjPoint((0, 0, 0, 0)), (1, 2, 3))


def test_cell_dual_point_refuses_indices_outside_the_support(SQ):
    # index 0 used to read a_4's lift (TropError "not a face"), index 5 an IndexError
    c = ProjPoint((3, 1, 2, 1))
    for cell in ((0, 1, 2), (2, 3, 5)):
        with pytest.raises(ValueError, match=r"has an index outside 1\.\.4"):
            cell_dual_point(SQ, c, cell)


def test_is_maximal_modes(SQ, TRI5):
    S = regular_subdivision(SQ, ProjPoint((1, 0, 0, 0)))
    assert is_maximal(S, "strict") and is_maximal(S, "lenient")
    flat = regular_subdivision(SQ, ProjPoint((0, 0, 0, 0)))
    assert not is_maximal(flat, "strict") and not is_maximal(flat, "lenient")
    # lift the two mid-edge points above the hull: a one-triangle
    # subdivision, lenient-maximal but omitting points 2 and 4
    S2 = regular_subdivision(TRI5, ProjPoint((0, 5, 0, 1, 0)))
    assert S2.cells == ((1, 3, 5),)
    assert S2.used == frozenset({1, 3, 5})
    assert is_maximal(S2, "lenient") and not is_maximal(S2, "strict")


def test_squared_distance_heights_on_cocircular_points(HEX6):
    # the four points (0,0),(1,0),(0,1),(1,1) are cocircular, so the
    # squared-distance lift leaves a square cell: not maximal
    S = regular_subdivision(HEX6, squared_distance_heights(HEX6))
    assert (1, 2, 4, 5) in S.cells
    assert not is_maximal(S, "lenient")
    # dipping the middle point triangulates with every point used
    S2 = regular_subdivision(HEX6, ProjPoint((0, 1, 4, 1, 1, 4)))
    assert is_maximal(S2, "strict")


def test_secondary_cone_membership(SQ):
    S = regular_subdivision(SQ, ProjPoint((1, 0, 0, 0)))
    assert secondary_cone_contains(SQ, S, ProjPoint((2, 0, 0, 0)))
    assert not secondary_cone_contains(SQ, S, ProjPoint((0, 0, 0, 0)))
    # raising a4 keeps the diagonal 2-3; lowering it flips the diagonal
    assert secondary_cone_contains(SQ, S, ProjPoint((0, 0, 0, 1)))
    assert not secondary_cone_contains(SQ, S, ProjPoint((0, 0, 0, -1)))
    assert regular_subdivision(SQ, ProjPoint((0, 0, 0, -1))).cells == ((1, 2, 4), (1, 3, 4))


def _wide_support(rng):
    """4..10 points of the cubic or the quartic triangle."""
    d = rng.choice((3, 4))
    pool = [(r, s) for r in range(d + 1) for s in range(d + 1 - r)]
    while True:
        try:
            return SupportSet.from_rs(d, rng.sample(pool, rng.randint(4, 10)))
        except ValueError:
            continue


def _planted_heights(rng, A, near):
    """Four points on one affine lift whose three coefficients have distinct
    prime denominators, so they tie only once all of them are cleared; the
    other points lie strictly above it half the time.  With `near`, one of
    the four is moved off the plane by 1/(pq)."""
    p, q, t = rng.sample(PRIMES, 3)
    a, b, g = (Fraction(rng.randint(-999, 999), den) for den in (p, q, t))
    planted = rng.sample(list(A.indices()), 4)
    above = rng.random() < 0.5
    heights = []
    for i in A.indices():
        r, s = A.rs(i)
        h = a * r + b * s + g
        if i not in planted:
            h += Fraction(rng.randint(1 if above else -999, 999), rng.choice(PRIMES))
        heights.append(h)
    if near:
        heights[planted[0] - 1] += Fraction(rng.choice((-1, 1)), p * q)
    return heights


def _jittered_lift(rng, A):
    """The redraw heights of `find_strict_maximal_subdivision`: squared
    distances plus a multiple of 2^-20 of a halved scale."""
    scale = Fraction(1, 4 * 2 ** rng.randint(0, 12))
    return [
        r * r + s * s + Fraction(rng.randint(0, 2**20), 2**20) * scale
        for r, s in (A.rs(i) for i in A.indices())
    ]


def test_lower_hull_against_brute_force():
    rng = random.Random(11)
    draws = []
    for _ in range(40):
        A = rand_support(rng, rng.randint(4, 7))
        draws.append((A, [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in A.indices()]))
    for kind in ("wide", "planted", "near", "jitter"):
        for _ in range(60):
            A = _wide_support(rng)
            if kind == "wide":
                heights = [prime_rational(rng) for _ in A.indices()]
            elif kind == "jitter":
                heights = _jittered_lift(rng, A)
            else:
                heights = _planted_heights(rng, A, near=kind == "near")
            draws.append((A, heights))
    mismatches, tied = [], 0
    for A, heights in draws:
        c = ProjPoint(heights)
        S = regular_subdivision(A, c)
        if S != brute_regular_subdivision(A, c) or not secondary_cone_contains(A, S, c):
            mismatches.append((A, c))
        tied += not is_maximal(S, "lenient")
    assert mismatches == []
    # the planted ties really reach the hull: some cells have four points
    assert tied >= 30


def _tie_point(A, c, tri):
    """The P where the three terms of tri tie, solved in Fractions by
    Cramer's rule: (r_j - r_i) x + (s_j - s_i) y = c_i - c_j for j, k."""
    i, j, k = tri
    (ri, si), (rj, sj), (rk, sk) = (A.rs(m) for m in tri)
    a, b, e = rj - ri, sj - si, c[i - 1] - c[j - 1]
    f, g, h = rk - ri, sk - si, c[i - 1] - c[k - 1]
    det = a * g - b * f
    return ProjPoint(((e * g - b * h) / det, (a * h - e * f) / det, 0))


def test_dual_points_at_rational_heights():
    # heights over the COPRIME denominators, so that a dual point missing
    # the height scale D or the orientation O of its integer plane shows
    rng = random.Random(14)
    faces = refused = 0
    for trial in range(60):
        A = _wide_support(rng)
        if trial % 2:
            heights = [coprime_rational(rng) for _ in A.indices()]
        else:  # one affine lift, raised at some points: cells of 4 or more
            a, b, g = (coprime_rational(rng) for _ in range(3))
            heights = [
                a * r + b * s + g + rng.choice((0, 0, coprime_rational(rng, positive=True)))
                for r, s in (A.rs(i) for i in A.indices())
            ]
        c = ProjPoint(heights)
        cells = set(brute_regular_subdivision(A, c).cells)
        for tri in combinations(A.indices(), 3):
            try:
                P = cell_dual_point(A, c, tri)
            except TropError:
                assert tri not in cells
                refused += any(set(tri) < set(cell) for cell in cells)
                continue
            assert tri in cells and P == _tie_point(A, c, tri)
            faces += 1
        for v in dual_curve(A, c).vertices:
            tri = next(t for t in combinations(v.cell, 3) if orient2d(*(A.rs(i) for i in t)))
            assert v.point == _tie_point(A, c, tri)
    assert faces >= 120 and refused >= 200


def test_duality_on_random_instances():
    rng = random.Random(12)
    for _ in range(25):
        A = rand_support(rng, rng.randint(4, 6))
        c = ProjPoint([Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in A.indices()])
        cv = dual_curve(A, c)
        pts = [v.point for v in cv.vertices]
        for v in cv.vertices:
            prof = min_profile(support_values(A, c, v.point))
            assert prof.argmin == frozenset(v.cell)
        for e in cv.edges:
            p, q = pts[e.a], pts[e.b]
            for lam in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
                mid = ProjPoint([a + lam * (b - a) for a, b in zip(p.coords, q.coords)])
                prof = min_profile(support_values(A, c, mid))
                assert prof.argmin == frozenset(e.dual)
        for r in cv.rays:
            base = pts[r.vertex]
            for t in (1, 2):
                far = ProjPoint(
                    (base[0] + t * r.direction[0], base[1] + t * r.direction[1], 0)
                )
                prof = min_profile(support_values(A, c, far))
                assert prof.argmin == frozenset(r.dual)


def test_edge_criterion_by_breakpoints():
    # a_i and a_j span a 1-face alone iff some curve point has argmin {i,j}
    rng = random.Random(13)
    for _ in range(15):
        A = rand_support(rng, rng.randint(4, 6))
        c = ProjPoint([Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in A.indices()])
        cv = dual_curve(A, c)
        pts = [v.point for v in cv.vertices]
        witnessed = set()
        for e in cv.edges:
            p, q = pts[e.a], pts[e.b]
            mid = ProjPoint([(a + b) / 2 for a, b in zip(p.coords, q.coords)])
            witnessed.add(min_profile(support_values(A, c, mid)).argmin)
        for r in cv.rays:
            base = pts[r.vertex]
            far = ProjPoint((base[0] + r.direction[0], base[1] + r.direction[1], 0))
            witnessed.add(min_profile(support_values(A, c, far)).argmin)
        joined = {frozenset(f.dual) for f in list(cv.edges) + list(cv.rays)}
        pair_witnesses = {w for w in witnessed if len(w) == 2}
        assert pair_witnesses == {j for j in joined if len(j) == 2}
