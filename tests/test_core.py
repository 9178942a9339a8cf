import random
import re
from fractions import Fraction

import pytest

from troppencil.core import (
    MinProfile,
    ProjPoint,
    SupportSet,
    dot,
    min_profile,
    orient2d,
    rat,
    rational_from_json,
    rational_terms,
    rational_to_json,
)
from troppencil.trees import TreeTopology, embed


def test_min_profile_examples():
    assert min_profile([3, 1, 2, 1]) == MinProfile(Fraction(1), frozenset({2, 4}))
    assert min_profile([0, 0, 0]) == MinProfile(Fraction(0), frozenset({1, 2, 3}))
    assert min_profile([5]) == MinProfile(Fraction(5), frozenset({1}))


def test_min_profile_empty():
    with pytest.raises(ValueError, match="empty term list"):
        min_profile([])


def test_orient2d_examples():
    assert orient2d((0, 0), (1, 0), (0, 1)) == 1
    assert orient2d((0, 0), (1, 1), (2, 2)) == 0
    assert orient2d((0, 0), (0, 1), (1, 0)) == -1


def test_orient2d_matches_brute_force():
    rng = random.Random(1)
    for _ in range(1000):
        p, q, r = [(rng.randint(-50, 50), rng.randint(-50, 50)) for _ in range(3)]
        det = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
        assert orient2d(p, q, r) == (det > 0) - (det < 0)


def test_dot_examples():
    assert dot((1, 1, 0), ProjPoint((2, 1, 0))) == 3
    assert dot((0, 0, 2), ProjPoint((7, -3, 0))) == 0
    assert dot((1, 0, 1), ProjPoint((2, 1, 0))) == 2


def test_projective_normalization_and_equality():
    rng = random.Random(2)
    for _ in range(200):
        raw = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)]
        lam = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        assert ProjPoint(raw) == ProjPoint([c + lam for c in raw])
    assert ProjPoint((3, 1, 2, 1)).coords == (
        Fraction(2),
        Fraction(0),
        Fraction(1),
        Fraction(0),
    )


def test_term_comparison_is_representative_free():
    # sign of (dot(a_i, P) + c_i) - (dot(a_j, P) + c_j) cannot depend on the
    # representative because all support points share one degree
    rng = random.Random(3)
    A = SupportSet(2, ((0, 0, 2), (1, 0, 1), (0, 1, 1), (1, 1, 0)))
    for _ in range(100):
        raw = [Fraction(rng.randint(-9, 9)) for _ in range(3)]
        lam = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        shifted = [c + lam for c in raw]
        for i in A.indices():
            for j in A.indices():
                d1 = dot(A.point(i), ProjPoint(raw)) - dot(A.point(j), ProjPoint(raw))
                d2 = dot(A.point(i), ProjPoint(shifted)) - dot(A.point(j), ProjPoint(shifted))
                assert d1 == d2


def test_rational_field_identities():
    rng = random.Random(4)
    for _ in range(200):
        a = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        b = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        if a and b:
            assert (a / b) * (b / a) == 1
        assert a + b - b == a


def test_support_set_validation():
    with pytest.raises(ValueError):
        SupportSet(2, ((0, 0, 2), (1, 0, 1)))  # too few
    with pytest.raises(ValueError):
        SupportSet(2, ((0, 0, 2), (1, 0, 1), (1, 0, 1)))  # duplicate
    with pytest.raises(ValueError):
        SupportSet(2, ((0, 0, 2), (1, 0, 1), (2, 0, 1)))  # degree mismatch
    with pytest.raises(ValueError, match="two-dimensional"):
        SupportSet(2, ((0, 0, 2), (1, 0, 1), (2, 0, 0)))  # collinear


def test_support_indices_outside_the_range_raise():
    # 0 and -1 used to wrap around to a_n and a_(n-1), n + 1 was an IndexError
    A = SupportSet(2, ((0, 0, 2), (1, 0, 1), (0, 1, 1), (1, 1, 0)))
    for i in (0, -1, 5):
        for lookup in (A.point, A.rs):
            with pytest.raises(ValueError, match=rf"support index {i} is not in 1\.\.4"):
                lookup(i)
    assert A.point(4) == (1, 1, 0) and A.rs(1) == (0, 0)


def test_support_set_refuses_non_integer_coordinates():
    # int() used to truncate these: (-0.5, 1.5, 1) was read as (0, 1, 1)
    for bad in ((-0.5, 1.5, 1), (0, True, 1), (Fraction(1), 1, 0)):
        with pytest.raises(ValueError, match=re.escape(f"bad support point {bad}")):
            SupportSet(2, (bad, (1, 0, 1), (0, 0, 2)))


def test_support_set_refuses_non_int_degree():
    # 2.0 and True used to be kept as the degree
    for bad, pts in ((2.0, ((0, 0, 2), (1, 0, 1), (0, 1, 1))),
                     (True, ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
                     (Fraction(2), ((0, 0, 2), (1, 0, 1), (0, 1, 1))),
                     (0, ((0, 0, 0), (0, 0, 0), (0, 0, 0)))):
        with pytest.raises(ValueError, match=re.escape(f"degree must be a positive int, not {bad!r}")):
            SupportSet(bad, pts)


def test_rat_refuses_bool():
    # bool is an int subclass: ProjPoint((True, 0, 0)) used to be ProjPoint(1, 0, 0)
    for bad in (True, False):
        with pytest.raises(TypeError, match="not an exact rational"):
            rat(bad)
    with pytest.raises(TypeError):
        ProjPoint((True, 0, 0))
    topo = TreeTopology.star(3)
    with pytest.raises(TypeError):
        embed(topo, {}, topo.internal_nodes[0], (0, False, 0))
    assert rat(3) == 3 and rat("3/4") == Fraction(3, 4)


def test_rational_json_round_trip():
    for x in (Fraction(3), Fraction(-7, 2), Fraction(0)):
        assert rational_from_json(rational_to_json(x)) == x
    assert rational_to_json(Fraction(4, 2)) == 2
    assert rational_to_json(Fraction(-7, 2)) == "-7/2"
    assert rational_from_json("+3") == 3 and rational_from_json("-6/4") == Fraction(-3, 2)
    for text, terms in (("-6/4", (-3, 2)), ("0/5", (0, 1)), ("+12", (12, 1)), (-7, (-7, 1))):
        assert rational_terms(text) == terms
    # only integers and "[+-]p" or "[+-]p/q": a decimal or an exponent would
    # let a short input stand for a huge number
    for bad in (0.5, True, "x/y", "1/0", None, "0.5", "1e400", "1e10000000", " 3", "3\n",
                "1_000", "1/-2", "1/+2", "--1", "", "/2", "1/", "1" * 5000):
        for read in (rational_from_json, rational_terms):
            with pytest.raises(ValueError, match="malformed rational"):
                read(bad)
