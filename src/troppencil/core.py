"""Exact rational primitives shared by every other module.

Scalars are exact: the computing modules clear denominators once
(`clear_denominators`) and work on Python ints on one positive scale, and
`fractions.Fraction` (lowest terms, positive denominator) is what callers
pass in and read out (`rat` coerces, and refuses floats).  No computation
rounds: the geometric predicates are tie-detections, which are
meaningless under rounding; only `svg` converts to floats, to draw.

Index conventions: support points and tree leaves are numbered 1..n
throughout, matching the usual mathematical labelling.
"""

from __future__ import annotations

import re
import reprlib
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence


class TropError(Exception):
    """Base class for domain errors raised by this package."""


class InternalError(Exception):
    """A broken internal invariant: a bug in this package, never bad input.

    Deliberately neither a TropError nor a ValueError, so that no handler
    for domain or input errors reports it as one.
    """


def rat(x) -> Fraction:
    """Coerce ints, strings like '3/4' and Fractions to an exact Fraction.
    A bool is refused: True is no coordinate."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class ProjPoint:
    """A point of TP^(m-1): a rational vector modulo the all-ones vector.

    The canonical representative is chosen by subtracting the last
    coordinate, so `coords[-1] == 0` always holds.  Two points are equal
    iff their canonical representatives agree componentwise.
    """

    __slots__ = ("coords",)

    def __init__(self, coords: Sequence):
        cs = tuple(rat(c) for c in coords)
        if len(cs) < 2:
            raise ValueError("projective point needs at least 2 coordinates")
        last = cs[-1]
        self.coords = tuple(c - last for c in cs) if last else cs

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __getitem__(self, i: int) -> Fraction:
        return self.coords[i]

    def __iter__(self):
        return iter(self.coords)

    def __eq__(self, other) -> bool:
        return isinstance(other, ProjPoint) and self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __repr__(self) -> str:
        return "ProjPoint(%s)" % (", ".join(str(c) for c in self.coords))


@dataclass(frozen=True)
class SupportSet:
    """An exponent set {a_1, ..., a_n} of triples (r, s, t) with r+s+t = d.

    The triples are distinct, the degree is shared, and the (r, s)
    projections span a two-dimensional convex hull; in particular n >= 3.
    All geometric reasoning happens in the (r, s) plane since t = d - r - s.
    """

    degree: int
    points: tuple

    def __post_init__(self):
        pts = tuple(tuple(p) for p in self.points)
        object.__setattr__(self, "points", pts)
        if type(self.degree) is not int or self.degree < 1:
            raise ValueError(f"degree must be a positive int, not {self.degree!r}")
        if len(pts) < 3:
            raise ValueError("support set needs at least 3 points")
        seen = set()
        for p in pts:
            if len(p) != 3 or any(type(c) is not int or c < 0 for c in p):
                raise ValueError(f"bad support point {p}")
            if sum(p) != self.degree:
                raise ValueError(f"point {p} does not have degree {self.degree}")
            if p in seen:
                raise ValueError(f"duplicate support point {p}")
            seen.add(p)
        if not _spans_plane([(p[0], p[1]) for p in pts]):
            raise ValueError("support set is not two-dimensional")

    @property
    def n(self) -> int:
        return len(self.points)

    def point(self, i: int) -> tuple:
        """The triple a_i, 1-based; raises ValueError for i outside 1..n."""
        if not 1 <= i <= self.n:
            raise ValueError(f"support index {i} is not in 1..{self.n}")
        return self.points[i - 1]

    def rs(self, i: int) -> tuple:
        """The (r, s) projection of a_i, 1-based."""
        p = self.point(i)
        return (p[0], p[1])

    def indices(self) -> range:
        return range(1, self.n + 1)

    @classmethod
    def from_rs(cls, degree: int, rs_points: Iterable) -> "SupportSet":
        """Build from (r, s) pairs, filling in t = d - r - s."""
        pts = []
        for r, s in rs_points:
            t = degree - r - s
            if t < 0:
                raise ValueError(f"(r, s) = {(r, s)} exceeds degree {degree}")
            pts.append((r, s, t))
        return cls(degree, tuple(pts))


@dataclass(frozen=True)
class MinProfile:
    """Exact minimum of a term list together with all attaining indices."""

    value: Fraction
    argmin: frozenset

    @property
    def multiplicity(self) -> int:
        return len(self.argmin)


def min_profile(values: Sequence) -> MinProfile:
    """Minimum of a nonempty list of rationals and its 1-based argmin set."""
    vals = [rat(v) for v in values]
    if not vals:
        raise ValueError("empty term list")
    m = min(vals)
    return MinProfile(m, frozenset(i + 1 for i, v in enumerate(vals) if v == m))


def orient2d(p, q, r) -> int:
    """Sign of det(q - p, r - p); 0 iff the three points are collinear."""
    d = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    return (d > 0) - (d < 0)


def dot(a, P: ProjPoint) -> Fraction:
    """r*x + s*y + t*z for a support point a = (r, s, t) and P in TP^2."""
    x, y, z = P.coords
    return a[0] * x + a[1] * y + a[2] * z


def support_values(A: SupportSet, c: ProjPoint, P: ProjPoint) -> list:
    """The term list (c_i + a_i . P)_{i=1..n}."""
    if c.dim != A.n:
        raise ValueError(f"coefficient vector has {c.dim} entries, support has {A.n}")
    return [c[i - 1] + dot(A.point(i), P) for i in A.indices()]


def _spans_plane(pts) -> bool:
    p0 = pts[0]
    for i in range(1, len(pts)):
        for j in range(i + 1, len(pts)):
            if orient2d(p0, pts[i], pts[j]) != 0:
                return True
    return False


def between(p, q, r) -> bool:
    """q within the closed segment [p, r] (assumes collinear)."""
    return (
        min(p[0], r[0]) <= q[0] <= max(p[0], r[0])
        and min(p[1], r[1]) <= q[1] <= max(p[1], r[1])
    )


def component_count(nodes, links) -> int:
    """Connected components of the graph on `nodes` with edges `links`."""
    parent = {x: x for x in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in links:
        parent[find(x)] = find(y)
    return len({find(x) for x in parent})


def clear_denominators(xs) -> tuple:
    """(D, [D*x for x in xs]) for D the lcm of the denominators of the
    rationals xs, the least D > 0 that makes every D*x an integer."""
    D = lcm(*(x.denominator for x in xs))
    return D, [x.numerator * (D // x.denominator) for x in xs]


def primitive(vec) -> tuple:
    """The primitive integer vector (gcd of entries 1) pointing along a
    nonzero rational vector: clear denominators, then divide by the gcd."""
    _, ints = clear_denominators([rat(v) for v in vec])
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(v // g for v in ints)


def rational_to_json(x: Fraction):
    x = rat(x)
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _rational_parts(obj) -> tuple:
    """(p, q), q > 0, as written: a JSON integer, or a string "p" or "p/q"
    of decimal digits with an optional sign on p and q > 0.  Nothing else:
    a decimal point or an exponent would let a few bytes of input stand
    for a huge number."""
    if isinstance(obj, int) and not isinstance(obj, bool):
        return obj, 1
    if isinstance(obj, str) and (m := _RATIONAL.fullmatch(obj)):
        try:
            p, q = int(m[1]), int(m[2] or 1)
        except ValueError:
            pass  # more digits than int() converts
        else:
            if q:
                return p, q
    raise ValueError(f"malformed rational: {reprlib.repr(obj)}")


def rational_from_json(obj) -> Fraction:
    """The rational a JSON integer or a string "p" or "p/q" stands for
    (`_rational_parts` states what is read)."""
    return Fraction(*_rational_parts(obj))


def rational_terms(obj) -> tuple:
    """(p, q) in lowest terms with q > 0 for the rational that
    `rational_from_json` reads, for a decoder that puts it on an integer
    scale itself."""
    p, q = _rational_parts(obj)
    g = gcd(p, q)
    return p // g, q // g
