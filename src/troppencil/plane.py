"""Exact affine feasibility in the z = 0 chart of TP^2.

Constraints are affine forms (a, b, c) standing for a*x + b*y + c.  A
fixed-locus cell has two equalities (= 0) with nonzero gradients and some
inequalities (>= 0), so its feasible set is a point, segment, ray or full
line, solved exactly in one case split.  When the equalities meet in one
point (nx, ny) / det (`_meet`), each inequality is a sign test of
a * nx + b * ny + c * det with det > 0, on integers; a `Fraction` point
is built only when every test passes, and parallel ones coincide iff
their forms are proportional (`_coincide`), an integer test.
`pencil.fixed_locus` makes the same tests on its candidates' term values
with these two helpers and hands over only the survivors' integer forms,
each a positive multiple of the true one, which moves no solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import primitive


def evaluate(f, x, y) -> Fraction:
    return f[0] * x + f[1] * y + f[2]


@dataclass(frozen=True)
class PointGeom:
    x: Fraction
    y: Fraction


@dataclass(frozen=True)
class SegmentGeom:
    start: tuple
    end: tuple


@dataclass(frozen=True)
class RayGeom:
    origin: tuple
    direction: tuple  # primitive integer vector


@dataclass(frozen=True)
class LineGeom:
    origin: tuple
    direction: tuple


def solve(eqs, ineqs):
    """Feasible set of {eqs = 0, ineqs >= 0}; None when empty.

    Takes exactly two equalities, each with a nonzero gradient (true for
    every fixed-locus cell: its equalities are differences of terms of
    distinct support points), so the answer is at most one-dimensional.
    Scaling any form by a positive number leaves the answer as it is.
    """
    f, g = eqs
    det, nx, ny = _meet(f, g)
    if det:
        # with det > 0, h >= 0 at (nx, ny) / det iff det * h = a * nx + b * ny + c * det >= 0
        if any(a * nx + b * ny + c * det < 0 for a, b, c in ineqs):
            return None
        return PointGeom(Fraction(nx, det), Fraction(ny, det))
    if not _coincide(f, g):
        return None
    a1, b1, c1 = f
    base = (Fraction(-c1, a1), Fraction(0)) if b1 == 0 else (Fraction(0), Fraction(-c1, b1))
    return _restrict_line(base, _canon_direction((-b1, a1)), ineqs)


def _meet(f, g) -> tuple:
    """(det, nx, ny) by Cramer's rule for the lines f = 0 and g = 0 with
    det >= 0: with det > 0 they meet in the one point (nx, ny) / det, and
    det = 0 when they are parallel."""
    (a1, b1, c1), (a2, b2, c2) = f, g
    det = a1 * b2 - a2 * b1
    nx, ny = b1 * c2 - b2 * c1, a2 * c1 - a1 * c2
    if det < 0:
        return -det, -nx, -ny
    return det, nx, ny


def _coincide(f, g) -> bool:
    """Whether the parallel lines f = 0 and g = 0, both with nonzero
    gradients, are one line: iff the forms are proportional."""
    (a1, b1, c1), (a2, b2, c2) = f, g
    return a1 * c2 == a2 * c1 and b1 * c2 == b2 * c1


def _canon_direction(d) -> tuple:
    d = primitive(d)
    if d[0] < 0 or (d[0] == 0 and d[1] < 0):
        d = (-d[0], -d[1])
    return d


def _restrict_line(base, direction, ineqs):
    """Intersect the line base + s*direction with halfplanes; classify."""
    lo, hi = None, None  # None = unbounded
    for f in ineqs:
        slope = f[0] * direction[0] + f[1] * direction[1]
        const = evaluate(f, *base)
        if slope == 0:
            if const < 0:
                return None
            continue
        bound = Fraction(-const, slope)
        if slope > 0:
            lo = bound if lo is None else max(lo, bound)
        else:
            hi = bound if hi is None else min(hi, bound)
    if lo is not None and hi is not None:
        if lo > hi:
            return None
        if lo == hi:
            return PointGeom(*_at(base, direction, lo))
        return SegmentGeom(_at(base, direction, lo), _at(base, direction, hi))
    if lo is not None:
        return RayGeom(_at(base, direction, lo), direction)
    if hi is not None:
        return RayGeom(_at(base, direction, hi), (-direction[0], -direction[1]))
    return LineGeom(base, direction)


def _at(base, direction, s) -> tuple:
    return (base[0] + s * direction[0], base[1] + s * direction[1])


def canonical_pieces(geoms) -> list:
    """Collapse a list of geometries to disjoint maximal pieces.

    Points swallowed by one-dimensional pieces are dropped; overlapping or
    touching collinear pieces merge.  The output order is deterministic:
    points first (sorted), then one-dimensional pieces by supporting line.
    """
    points = set()
    lines = {}  # (direction, offset) -> list of (lo, hi) in the s = D.X parameter
    for g in geoms:
        if isinstance(g, PointGeom):
            points.add((g.x, g.y))
            continue
        if isinstance(g, SegmentGeom):
            d = _canon_direction(
                (g.end[0] - g.start[0], g.end[1] - g.start[1])
            )
            key = _line_key(g.start, d)
            s1, s2 = sorted((_param(d, g.start), _param(d, g.end)))
            lines.setdefault(key, []).append((s1, s2))
        elif isinstance(g, RayGeom):
            d = _canon_direction(g.direction)
            key = _line_key(g.origin, d)
            s0 = _param(d, g.origin)
            if g.direction == d:
                lines.setdefault(key, []).append((s0, None))
            else:
                lines.setdefault(key, []).append((None, s0))
        elif isinstance(g, LineGeom):
            d = _canon_direction(g.direction)
            lines.setdefault(key := _line_key(g.origin, d), []).append((None, None))
        else:
            raise TypeError(f"unknown geometry {g!r}")

    line_pieces = []
    for (d, offset), intervals in sorted(lines.items()):
        # a segment's two ends differ, so every bounded interval has lo < hi
        merged = _merge_intervals(intervals)
        for lo, hi in merged:
            if lo is None and hi is None:
                line_pieces.append(LineGeom(_point(d, offset, 0), d))
            elif lo is None:
                line_pieces.append(RayGeom(_point(d, offset, hi), (-d[0], -d[1])))
            elif hi is None:
                line_pieces.append(RayGeom(_point(d, offset, lo), d))
            else:
                line_pieces.append(SegmentGeom(_point(d, offset, lo), _point(d, offset, hi)))
        # absorb points sitting on a merged piece of this line
        for pt in list(points):
            if -d[1] * pt[0] + d[0] * pt[1] != offset:
                continue
            s = _param(d, pt)
            if any((lo is None or lo <= s) and (hi is None or s <= hi) for lo, hi in merged):
                points.discard(pt)
    return [PointGeom(x, y) for x, y in sorted(points)] + line_pieces


def _line_key(point, d) -> tuple:
    # normal (-d1, d0); the offset pins the supporting line
    return (d, -d[1] * point[0] + d[0] * point[1])


def _param(d, point) -> Fraction:
    return d[0] * point[0] + d[1] * point[1]


def _point(d, offset, s) -> tuple:
    """The point X with d.X = s and (-d1, d0).X = offset."""
    dd = d[0] * d[0] + d[1] * d[1]
    return (Fraction(s * d[0] - offset * d[1], dd), Fraction(s * d[1] + offset * d[0], dd))


def _merge_intervals(intervals) -> list:
    """Union of closed (possibly unbounded) parameter intervals."""

    def key(iv):
        lo, _ = iv
        return (0, 0) if lo is None else (1, lo)

    merged = []
    for lo, hi in sorted(intervals, key=key):
        if merged:
            plo, phi = merged[-1]
            if phi is None or lo is None or lo <= phi:
                nhi = None if (phi is None or hi is None) else max(phi, hi)
                merged[-1] = (plo, nhi)
                continue
        merged.append((lo, hi))
    return merged
