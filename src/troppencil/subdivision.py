"""Regular subdivisions from lower-hull lifting, and their dual plane curves.

A coefficient vector c lifts the support points (r_i, s_i) to heights c_i;
the projected lower faces of the lifted hull form the regular subdivision.
The dual curve has one vertex per 2-cell (at the point where the cell's
terms tie for the minimum), one bounded edge per interior 1-face and one
ray per boundary 1-face.

The lower hull is found by exhaustive facet-candidate testing: every
non-collinear support triple determines a plane, kept when every lift lies
on or above it; the cell is the set of lifts on it.  O(n^4) worst case,
which is fine at the scale this library targets (n <= ~12).

The test runs in integers, on integer heights h at any positive scale.
For a triple with orientation determinant O != 0, the plane through its
lifts is O*(h - h1) = P*(r - r1) + Q*(s - s1) with integer P and Q, all
three negated when O < 0 (`_plane`), and point m lies below, on or above
it as O*(h_m - h1) - P*(r_m - r1) - Q*(s_m - s1) is negative, zero or
positive: the 4-point lifting determinant of Gelfand-Kapranov-Zelevinsky.
Linear in the height differences, it keeps its sign, and every tie, when
h is scaled by D > 0 or shifted: h = D*c + const has the cells of c.  The
`ProjPoint` entry points clear c once (`_heights`).  In the heights c a
cell's plane is c = (P*r + Q*s) / (O*D) + const, so its terms tie at
(-P/(O*D), -Q/(O*D), 0) (`_dual_point`), free of scale and shift.
`_lower_faces` tests every triple this way and drops a candidate at its
first lift below; `_sides` gives one known triple's plane and the side
values of all other lifts, for `_cell_planes`, `_cone_bound` and
`cell_dual_point`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .core import (
    ProjPoint,
    SupportSet,
    TropError,
    between,
    clear_denominators,
    min_profile,
    orient2d,
    primitive,
    support_values,
)


@dataclass(frozen=True)
class RegularSubdivision:
    """Cells of the lower-hull subdivision, each the full set of support
    indices lying on that face (hull vertices and any collinear boundary
    points).  Cells are sorted lexicographically by their index tuples."""

    support: SupportSet
    cells: tuple  # tuple of sorted index tuples, 1-based

    @property
    def used(self) -> frozenset:
        return frozenset(i for cell in self.cells for i in cell)


@dataclass(frozen=True)
class CurveVertex:
    point: ProjPoint
    cell: tuple  # dual 2-cell, 1-based indices


@dataclass(frozen=True)
class CurveEdge:
    a: int  # vertex index into CurveGraph.vertices
    b: int
    dual: tuple  # support indices on the dual interior 1-face


@dataclass(frozen=True)
class CurveRay:
    vertex: int
    direction: tuple  # primitive integer direction in the z = 0 chart
    dual: tuple  # support indices on the dual boundary 1-face


@dataclass(frozen=True)
class CurveGraph:
    """Embedded dual graph of a regular subdivision."""

    subdivision: RegularSubdivision
    vertices: tuple
    edges: tuple
    rays: tuple


def _heights(A: SupportSet, c: ProjPoint) -> tuple:
    """(D, hs) with hs = D*c integral, D the lcm of c's denominators."""
    if c.dim != A.n:
        raise ValueError(f"coefficient vector has {c.dim} entries, support has {A.n}")
    return clear_denominators(c.coords)


def _lifts(A: SupportSet, hs) -> list:
    """[(r_i, s_i, h_i)]: the support points lifted to the integer heights hs."""
    return [(r, s, h) for (r, s, _), h in zip(A.points, hs, strict=True)]


def _plane(l1, l2, l3):
    """(O, P, Q) with O > 0 and O*(h - h1) = P*(r - r1) + Q*(s - s1) the
    plane through three lifts (r, s, h), or None when they are collinear."""
    (r1, s1, h1), (r2, s2, h2), (r3, s3, h3) = l1, l2, l3
    O = (r2 - r1) * (s3 - s1) - (s2 - s1) * (r3 - r1)
    if O == 0:
        return None
    P = (h2 - h1) * (s3 - s1) - (h3 - h1) * (s2 - s1)
    Q = (h3 - h1) * (r2 - r1) - (h2 - h1) * (r3 - r1)
    return (O, P, Q) if O > 0 else (-O, -P, -Q)


def _lower_faces(A: SupportSet, hs) -> dict:
    """{cell: (O, P, Q)}: every lower face of the lifts to heights hs, as
    the sorted indices on it, with the plane of the first triple found."""
    lifts = _lifts(A, hs)
    planes = {}
    for l1, l2, l3 in combinations(lifts, 3):
        plane = _plane(l1, l2, l3)
        if plane is None:
            continue
        O, P, Q = plane
        r1, s1, h1 = l1
        face = []
        for m, (r, s, h) in enumerate(lifts, 1):
            side = O * (h - h1) - P * (r - r1) - Q * (s - s1)
            if side < 0:
                break
            if side == 0:
                face.append(m)
        else:
            planes.setdefault(tuple(face), plane)
    return planes


def _sides(lifts, cell) -> tuple:
    """(plane, sides) for a triple of 1-based indices in increasing order:
    `_plane` of its lifts, and the side value O*(h - h1) - P*(r - r1) -
    Q*(s - s1) of every other lift, in index order; (None, []) when the
    three are collinear."""
    i, j, k = cell
    l1 = lifts[i - 1]
    plane = _plane(l1, lifts[j - 1], lifts[k - 1])
    if plane is None:
        return None, []
    O, P, Q = plane
    r1, s1, h1 = l1
    return plane, [
        O * (h - h1) - P * (r - r1) - Q * (s - s1)
        for m, (r, s, h) in enumerate(lifts, 1) if m not in cell
    ]


def _cone_bound(S: RegularSubdivision, D: int, hs, ws) -> Fraction | None:
    """The supremum eps* of the eps > 0 for which every c + eps*w, w in the
    integer vectors ws, induces S, or None when every eps > 0 does.  The
    heights c = hs / D, hs integers and D > 0, must induce S, a strict-
    maximal triangulation.

    Heights induce such an S iff every other lift lies strictly above the
    plane of each cell.  That side value is linear in the heights (O
    depends on the points only), so on the D*c scale it is side(hs) +
    D*eps*side(w) with side(hs) > 0, and eps* is the least
    side(hs) / (D * -side(w)) over the negative side(w)."""
    lifted = [_lifts(S.support, h) for h in (hs, *ws)]
    best = None  # (side(hs), -side(w)) of the least ratio so far
    for cell in S.cells:
        base, *rest = (_sides(ls, cell)[1] for ls in lifted)
        for w_sides in rest:
            for up, down in zip(base, w_sides):
                if down < 0 and (best is None or up * best[1] < best[0] * -down):
                    best = (up, -down)
    return None if best is None else Fraction(best[0], D * best[1])


def _cell_planes(A: SupportSet, hs, cells) -> dict | None:
    """{cell: (O, P, Q)} when the integer heights hs induce the strict-
    maximal triangulation with these cells, else None.

    It is `_cone_bound`'s argument: heights induce such a triangulation iff
    every other lift lies strictly above the plane of each cell, O(n) side
    tests per cell instead of a hull.  Each plane is `_plane` of the cell's
    triple in index order, the one `_lower_faces` keeps for a triangle."""
    lifts = _lifts(A, hs)
    planes = {}
    for cell in cells:
        planes[cell], sides = _sides(lifts, cell)
        if sides and min(sides) <= 0:
            return None
    return planes


def _dual_point(D: int, plane) -> ProjPoint:
    """The point where the terms on the plane (O, P, Q) of heights D*c tie."""
    O, P, Q = plane
    return ProjPoint((Fraction(-P, O * D), Fraction(-Q, O * D), 0))


def regular_subdivision(A: SupportSet, c: ProjPoint) -> RegularSubdivision:
    """Lower-hull subdivision of conv(A) induced by the lifting heights c."""
    return RegularSubdivision(A, tuple(sorted(_lower_faces(A, _heights(A, c)[1]))))


def curve_contains(A: SupportSet, c: ProjPoint, P: ProjPoint) -> bool:
    """True iff the minimum of {c_i + a_i . P} is attained at least twice."""
    return min_profile(support_values(A, c, P)).multiplicity >= 2


def cell_dual_point(A: SupportSet, c: ProjPoint, cell) -> ProjPoint:
    """The unique P where the three terms of `cell` tie, checked minimal.

    Raises "degenerate cell" when the three support points are collinear
    and "not a face" when any other lift lies on or below their plane
    (then the triangle is not a face of the subdivision).
    """
    cell = tuple(sorted(cell))
    if len(cell) != 3:
        raise ValueError("cell must be an index triple")
    if not 1 <= cell[0] <= cell[2] <= A.n:
        raise ValueError(f"cell {cell} has an index outside 1..{A.n}")
    D, hs = _heights(A, c)
    plane, sides = _sides(_lifts(A, hs), cell)
    if plane is None:
        raise TropError("degenerate cell")
    if sides and min(sides) <= 0:
        raise TropError("not a face")
    return _dual_point(D, plane)


def is_maximal(S: RegularSubdivision, mode: str = "strict") -> bool:
    """Every cell a 3-point triangle; strict mode also wants every point used."""
    if mode not in ("strict", "lenient"):
        raise ValueError(f"unknown mode {mode!r}")
    if any(len(cell) != 3 for cell in S.cells):
        return False
    if mode == "strict" and S.used != frozenset(S.support.indices()):
        return False
    return True


def secondary_cone_contains(A: SupportSet, S: RegularSubdivision, c: ProjPoint) -> bool:
    """True iff the heights c induce exactly the subdivision S (cellwise).

    It rebuilds the whole lower hull, so no fast path calls it:
    `realize_type` reads its edge lengths off `_cone_bound` instead, and
    this stays the independent twin that checks that bound."""
    return regular_subdivision(A, c).cells == S.cells


def _cell_faces(A: SupportSet, cell) -> list:
    """Boundary 1-faces of a cell's polygon, each as a sorted index tuple."""
    pts = {i: A.rs(i) for i in cell}
    hull = _hull_vertices(list(cell), pts)
    faces = []
    k = len(hull)
    for a, b in zip(hull, hull[1:] + hull[:1]) if k > 2 else [tuple(hull)]:
        on = [
            m
            for m in cell
            if orient2d(pts[a], pts[b], pts[m]) == 0 and between(pts[a], pts[m], pts[b])
        ]
        faces.append(tuple(sorted(on)))
    return faces


def _hull_vertices(ids, pts) -> list:
    """Convex-hull vertex ids in counterclockwise order (strict turns only)."""
    ids = sorted(ids, key=lambda i: pts[i])
    if len(ids) <= 2:
        return ids

    def chain(order):
        out = []
        for i in order:
            while len(out) >= 2 and orient2d(pts[out[-2]], pts[out[-1]], pts[i]) <= 0:
                out.pop()
            out.append(i)
        return out

    lower = chain(ids)
    upper = chain(ids[::-1])
    return lower[:-1] + upper[:-1]


def dual_curve(A: SupportSet, c: ProjPoint) -> CurveGraph:
    """The plane curve dual to the regular subdivision of (A, c)."""
    D, hs = _heights(A, c)
    planes = _lower_faces(A, hs)
    S = RegularSubdivision(A, tuple(sorted(planes)))
    vertices = []
    cell_index = {}
    for cell in S.cells:
        cell_index[cell] = len(vertices)
        vertices.append(CurveVertex(_dual_point(D, planes[cell]), cell))

    # Group 1-faces by their support-point set; shared by two cells => edge.
    face_cells = {}
    for cell in S.cells:
        for face in _cell_faces(A, cell):
            face_cells.setdefault(face, []).append(cell)

    edges, rays = [], []
    for face, owners in sorted(face_cells.items()):
        if len(owners) == 2:
            va, vb = sorted(cell_index[o] for o in owners)
            edges.append(CurveEdge(va, vb, face))
        elif len(owners) == 1:
            vi = cell_index[owners[0]]
            rays.append(CurveRay(vi, _ray_direction(A, face), face))
        else:
            raise TropError(f"1-face {face} shared by {len(owners)} cells")
    return CurveGraph(S, tuple(vertices), tuple(edges), tuple(rays))


def _ray_direction(A: SupportSet, face) -> tuple:
    """Primitive direction of the curve ray dual to a boundary 1-face.

    Perpendicular to the face, with the sign making every other term grow
    along the ray: (a_k - a_i) . D >= 0 for all support points k.
    """
    i, j = face[0], face[-1]
    (r1, s1), (r2, s2) = A.rs(i), A.rs(j)
    cand = (-(s2 - s1), r2 - r1)
    for D in (cand, (-cand[0], -cand[1])):
        ok = True
        for m in A.indices():
            rm, sm = A.rs(m)
            if (rm - r1) * D[0] + (sm - s1) * D[1] < 0:
                ok = False
                break
        if ok:
            return primitive(D)
    raise TropError(f"face {face} is not on the hull boundary")
