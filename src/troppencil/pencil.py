"""Fixed loci of linear pencils and the hyperplane-skeleton machinery.

A point P of TP^2 is fixed for the pencil parameterized by a line L with
support A iff the translated line G = L + A.P lies inside Pi_2, the locus
where the coordinate minimum is attained at least twice.  That containment
is decided exactly by one walk over the bounded edges and rays of G,
`_regimes`: along an edge in direction e_J the coordinates split into a
growing group J and a constant group, so the J group holds the minimum up
to the breakpoint t* where the two group minima cross, and the other group
from t* on.  Per edge the walk keeps t* and each group's argmin at the
first node; `skeleton_level` reads the group multiplicities from it,
`pi_set` its interval per edge, and `pi_gamma` the coordinates that ever
attain the minimum.

The locus itself is enumerated per the two witness patterns at points
c of L: three leaves in pairwise distinct components of L - {c}, or two
leaf pairs in two distinct components; each candidate yields linear
equalities and inequalities for P, solved exactly in the z = 0 chart.

Pi(G, I) denotes the subset of G where every coordinate in I attains the
global minimum; these subsets are closed connected subtrees, represented
below as vertex sets plus closed parameter intervals per edge and ray.
A nonempty one is a point x plus every branch at x that holds no leaf of
I, and x is its gate: the first point of it met from any leaf of I.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import plane
from .core import ProjPoint, SupportSet, TropError, component_count, dot, min_profile, rat
from .trees import EmbeddedLine


def support_shift(A: SupportSet, P: ProjPoint) -> tuple:
    """The translation vector A.P = (a_i . P)_i."""
    return tuple(dot(A.point(i), P) for i in A.indices())


def shifted_line(L: EmbeddedLine, A: SupportSet, P: ProjPoint) -> EmbeddedLine:
    """The translate G = L + A.P, again a tropical line."""
    if A.n != L.n:
        raise ValueError("support size and leaf count differ")
    return L.translate(support_shift(A, P))


# ---------------------------------------------------------------------------
# skeleton walk


def _regimes(G: EmbeddedLine) -> list:
    """Per edge or ray of G in direction e_J, with q its first node:
    (key, J, length or None, argmin of q on J, argmin on the rest, t*)."""
    walks = [((a, b), G.coords[a], side, ell) for a, b, side, ell in G.edges]
    walks += [((v, leaf), G.coords[v], frozenset((leaf,)), None) for v, leaf in G.rays]
    out = []
    for key, q, J, ell in walks:
        mu, arg = [None, None], [[], []]  # the rest at index 0, the J group at 1
        for i, x in enumerate(q, 1):
            s = i in J
            if not arg[s] or x < mu[s]:
                mu[s], arg[s] = x, [i]
            elif x == mu[s]:
                arg[s].append(i)
        out.append((key, J, ell, frozenset(arg[1]), frozenset(arg[0]), mu[0] - mu[1]))
    return out


def skeleton_level(G: EmbeddedLine) -> int:
    """The largest t with G contained in Pi_t (t = 1 always holds)."""
    level = min(min_profile(G.coords[v]).multiplicity for v in G.topology.internal_nodes)
    for _, _, ell, argJ, arg0, tstar in _regimes(G):
        if tstar > 0:
            level = min(level, len(argJ))
        if ell is None or tstar < ell:
            level = min(level, len(arg0))
    return level


def is_fixed(L: EmbeddedLine, A: SupportSet, P: ProjPoint) -> bool:
    """True iff every curve of the pencil L passes through P."""
    return skeleton_level(shifted_line(L, A, P)) >= 2


# ---------------------------------------------------------------------------
# points on a line and subtree subsets


@dataclass(frozen=True)
class LinePoint:
    """A point of an embedded line: a vertex, an edge-interior point at
    parameter t from the edge's first node, or a ray-interior point."""

    kind: str  # "vertex" | "edge" | "ray"
    loc: tuple  # node id, or (a, b), or (node, leaf)
    t: Fraction | None = None


def make_point(G: EmbeddedLine, kind: str, loc, t=None) -> LinePoint:
    """Build a LinePoint, normalizing edge/ray endpoints to vertices."""
    if kind == "vertex":
        return LinePoint("vertex", loc)
    t = rat(t)
    if kind == "edge":
        a, b, side, ell = G.edge(loc)
        if t == 0:
            return LinePoint("vertex", a)
        if t == ell:
            return LinePoint("vertex", b)
        if not 0 < t < ell:
            raise ValueError("edge parameter out of range")
        return LinePoint("edge", (a, b), t)
    if kind == "ray":
        if t == 0:
            return LinePoint("vertex", loc[0])
        if t < 0:
            raise ValueError("ray parameter out of range")
        return LinePoint("ray", tuple(loc), t)
    raise ValueError(f"unknown point kind {kind!r}")


def coords_at(G: EmbeddedLine, p: LinePoint) -> tuple:
    """Raw coordinates of a line point."""
    if p.kind == "vertex":
        return G.coords[p.loc]
    if p.kind == "edge":
        a, b, side, ell = G.edge(p.loc)
        q = G.coords[a]
        return tuple(q[i] + (p.t if i + 1 in side else 0) for i in range(G.n))
    v, leaf = p.loc
    q = G.coords[v]
    return tuple(q[i] + (p.t if i + 1 == leaf else 0) for i in range(G.n))


def leaf_partition_at(G: EmbeddedLine, p: LinePoint) -> list:
    """Leaf sets of the components of G - {p}."""
    topo = G.topology
    if p.kind == "vertex":
        return topo.leaf_partition(p.loc)
    if p.kind == "edge":
        a, b = p.loc
        return [topo.leaves_beyond(b, a), topo.leaves_beyond(a, b)]
    leaf = p.loc[1]
    return [frozenset(range(1, G.n + 1)) - {leaf}, frozenset((leaf,))]


class SubtreeSet:
    """A closed subset of an embedded line: vertices plus closed parameter
    intervals on edges ((lo, hi) within [0, length]) and rays ((lo, hi) with
    hi None for unbounded)."""

    __slots__ = ("line", "vertices", "edge_iv", "ray_iv")

    def __init__(self, line: EmbeddedLine, vertices=(), edge_iv=None, ray_iv=None):
        self.line = line
        verts = set(vertices)
        eiv = {}
        for key, (lo, hi) in (edge_iv or {}).items():
            a, b, side, ell = line.edge(key)
            lo, hi = max(lo, Fraction(0)), min(hi, ell)
            if lo > hi:
                continue
            if lo == 0:
                verts.add(a)
            if hi == ell:
                verts.add(b)
            if hi > 0 and lo < ell:  # a lone end point is just its vertex
                eiv[(a, b)] = (lo, hi)
        riv = {}
        for key, (lo, hi) in (ray_iv or {}).items():
            lo = max(lo, Fraction(0))
            if hi is not None and lo > hi:
                continue
            if lo == 0:
                verts.add(key[0])
            if hi is None or hi > 0:
                riv[tuple(key)] = (lo, hi)
        self.vertices = frozenset(verts)
        self.edge_iv = eiv
        self.ray_iv = riv

    def is_empty(self) -> bool:
        return not self.vertices and not self.edge_iv and not self.ray_iv

    def key(self):
        return (
            self.vertices,
            tuple(sorted(self.edge_iv.items())),
            tuple(sorted(self.ray_iv.items())),
        )

    def __eq__(self, other):
        return isinstance(other, SubtreeSet) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def boundary_points(self) -> list:
        """Vertices of the set plus interval endpoints, as LinePoints."""
        pts = [LinePoint("vertex", v) for v in sorted(self.vertices)]
        for key, (lo, hi) in sorted(self.edge_iv.items()):
            for t in {lo, hi}:
                p = make_point(self.line, "edge", key, t)
                if p.kind == "edge":
                    pts.append(p)
        for key, (lo, hi) in sorted(self.ray_iv.items()):
            ends = {lo} if hi is None else {lo, hi}
            for t in ends:
                p = make_point(self.line, "ray", key, t)
                if p.kind == "ray":
                    pts.append(p)
        return pts

    def finite_points(self) -> list | None:
        """All points when the set is finite, None when it has a segment."""
        for lo, hi in self.edge_iv.values():
            if lo != hi:
                return None
        for lo, hi in self.ray_iv.values():
            if hi is None or lo != hi:
                return None
        return self.boundary_points()

    def component_count(self) -> int:
        items = [("v", v) for v in self.vertices]
        items += [("e", k) for k in self.edge_iv]
        items += [("r", k) for k in self.ray_iv]
        links = []
        for key, (lo, hi) in self.edge_iv.items():
            a, b, side, ell = self.line.edge(key)
            if lo == 0 and a in self.vertices:
                links.append((("e", key), ("v", a)))
            if hi == ell and b in self.vertices:
                links.append((("e", key), ("v", b)))
        for key, (lo, hi) in self.ray_iv.items():
            if lo == 0 and key[0] in self.vertices:
                links.append((("r", key), ("v", key[0])))
        return component_count(items, links)

def pi_set(G: EmbeddedLine, I) -> SubtreeSet:
    """Pi(G, I): points of G where every coordinate in I is a global min."""
    I = frozenset(I)
    verts = {v for v in G.topology.internal_nodes if I <= min_profile(G.coords[v]).argmin}
    eiv, riv = {}, {}
    for key, J, ell, argJ, arg0, tstar in _regimes(G):
        if not (I & J <= argJ and I - J <= arg0):
            continue
        lo, hi = Fraction(0), ell  # None means unbounded (rays)
        if I & J:  # the J group holds the minimum up to t*
            hi = tstar if hi is None else min(hi, tstar)
        if I - J:  # the rest holds it from t* on
            lo = max(lo, tstar)
        if hi is None or lo <= hi:
            (riv if ell is None else eiv)[key] = (lo, hi)
    return SubtreeSet(G, verts, eiv, riv)


def _gate(G: EmbeddedLine, S: SubtreeSet, i: int) -> LinePoint:
    """The first point of the nonempty, connected S met coming in from leaf
    i in I: the top of S on ray i, or else the first point of S on the path
    from v_i towards S."""
    v = G.topology.node_of_leaf(i)
    if (v, i) in S.ray_iv:
        return make_point(G, "ray", (v, i), S.ray_iv[(v, i)][1])
    if S.vertices:
        target = min(S.vertices)
    elif S.ray_iv:  # S lies inside one ray, or else one edge
        key, (lo, _) = next(iter(S.ray_iv.items()))
        return make_point(G, "ray", key, lo)
    else:
        a, b = next(iter(S.edge_iv))
        target = a if i in G.edge((a, b))[2] else b
    path = G.topology.path(v, target)
    for u, w in zip(path, path[1:]):
        if u in S.vertices:
            return LinePoint("vertex", u)
        key = (u, w) if u < w else (w, u)
        if key in S.edge_iv:
            # the end of the interval nearer u
            return make_point(G, "edge", key, S.edge_iv[key][u > w])
    return LinePoint("vertex", target)


def pi_attachment(G: EmbeddedLine, I) -> LinePoint | None:
    """The point x with Pi(G, I) = {x} plus the branches free of I-leaves;
    None when Pi(G, I) is empty.  Raises when no such point exists.

    x must be the gate from every leaf of I (every vertex when I is empty).
    A branch holding a leaf i of I then meets S = Pi(G, I), which is
    connected, only at x; an I-free branch lies in S iff its leaf rays run
    out to infinity inside S.  These two checks prove the shape."""
    I = frozenset(I)
    S = pi_set(G, I)
    if S.is_empty():
        return None
    topo = G.topology
    gates = {_gate(G, S, i) for i in I} or {LinePoint("vertex", v) for v in topo.internal_nodes}
    if len(gates) == 1:
        (x,) = gates
        free = [j for part in leaf_partition_at(G, x) if not part & I for j in part]
        if all(S.ray_iv.get((topo.node_of_leaf(j), j), (0, 0))[1] is None for j in free):
            return x
    raise TropError(f"Pi(G, {sorted(I)}) has no unique attachment point")


def pi_gamma(G: EmbeddedLine) -> ProjPoint:
    """The distinguished point through which every nonempty Pi(G, I)
    attaches.  Requires G inside Pi_2."""
    return ProjPoint(coords_at(G, pi_gamma_location(G)))


def pi_gamma_location(G: EmbeddedLine) -> LinePoint:
    if skeleton_level(G) < 2:
        raise TropError("line not in Pi_2")
    # the coordinates that attain the minimum somewhere on G
    imax = set().union(*(min_profile(G.coords[v]).argmin for v in G.topology.internal_nodes))
    for _, _, ell, argJ, arg0, tstar in _regimes(G):
        if tstar >= 0:
            imax |= argJ
        if ell is None or tstar <= ell:
            imax |= arg0
    p = pi_attachment(G, imax)
    if p is None:
        raise TropError("no coordinate ever attains the minimum")
    return p


# ---------------------------------------------------------------------------
# fixed locus enumeration


@dataclass(frozen=True)
class FixedLocusCell:
    """One candidate cell of the fixed locus: the witness point of L, the
    support indices required to attain the minimum, and the exact linear
    description of the admissible P (closed)."""

    witness: tuple  # ("vertex", node) or ("edge", (a, b), t-form)
    indices: tuple
    equalities: tuple  # affine forms, = 0
    inequalities: tuple  # affine forms, >= 0
    geometry: object  # plane geometry, never None in fixed_locus output

    def contains(self, P: ProjPoint) -> bool:
        x, y = P[0], P[1]
        return all(plane.evaluate(f, x, y) == 0 for f in self.equalities) and all(
            plane.evaluate(f, x, y) >= 0 for f in self.inequalities
        )


def _term_forms(A: SupportSet, raw) -> list:
    """Affine forms T_m(P) = raw_m + a_m . P in the z = 0 chart, 1-based."""
    forms = [None]
    for m in A.indices():
        r, s, _ = A.point(m)
        forms.append(plane.form(r, s, raw[m - 1]))
    return forms


def _sub(f, g):
    return (f[0] - g[0], f[1] - g[1], f[2] - g[2])


def fixed_locus(L: EmbeddedLine, A: SupportSet) -> list:
    """All cells of {P : is_fixed(L, A, P)}, pruned to nonempty geometry.

    Zero-dimensional duplicates are removed; boundary points of segment
    cells may still reappear as vertex cells, by design (cells are closed).
    """
    if A.n != L.n:
        raise ValueError("support size and leaf count differ")
    cells = []
    topo = L.topology
    for v in topo.internal_nodes:
        T = _term_forms(A, L.coords[v])
        # term i is minimal at P: every other term minus term i is >= 0
        below = [None] + [tuple(_sub(T[m], T[i]) for m in A.indices()) for i in A.indices()]
        parts = sorted(topo.leaf_partition(v), key=sorted)
        # three leaves in three distinct components
        for pa, pb, pc in combinations(range(len(parts)), 3):
            for i in sorted(parts[pa]):
                for j in sorted(parts[pb]):
                    for k in sorted(parts[pc]):
                        eqs = (_sub(T[i], T[j]), _sub(T[j], T[k]))
                        geom = plane.solve(eqs, below[i])
                        if geom is not None:
                            cells.append(
                                FixedLocusCell(("vertex", v), (i, j, k), eqs, below[i], geom)
                            )
        # two leaf pairs in two distinct components
        for pa, pb in combinations(range(len(parts)), 2):
            for i, j in combinations(sorted(parts[pa]), 2):
                for k, l in combinations(sorted(parts[pb]), 2):
                    eqs = (_sub(T[i], T[j]), _sub(T[k], T[l]), _sub(T[i], T[k]))
                    geom = plane.solve(eqs, below[i])
                    if geom is not None:
                        cells.append(
                            FixedLocusCell(("vertex", v), (i, j, k, l), eqs, below[i], geom)
                        )
    for a, b, side, ell in L.edges:
        T = _term_forms(A, L.coords[a])
        inside = sorted(side)
        outside = sorted(set(range(1, L.n + 1)) - side)
        for i, j in combinations(inside, 2):
            for k, l in combinations(outside, 2):
                tform = _sub(T[k], T[i])  # edge parameter of the witness point
                eqs = (_sub(T[i], T[j]), _sub(T[k], T[l]))
                ineqs = (
                    tuple(_sub(T[m], T[i]) for m in inside)
                    + tuple(_sub(T[m], T[k]) for m in outside)
                    + (tform, _sub(plane.form(0, 0, ell), tform))
                )
                geom = plane.solve(eqs, ineqs)
                if geom is not None:
                    cells.append(
                        FixedLocusCell(("edge", (a, b), tform), (i, j, k, l), eqs, ineqs, geom)
                    )
    # deduplicate zero-dimensional cells
    out, seen_points = [], set()
    for cell in cells:
        if isinstance(cell.geometry, plane.PointGeom):
            if cell.geometry in seen_points:
                continue
            seen_points.add(cell.geometry)
        out.append(cell)
    return out


def fixed_locus_pieces(L: EmbeddedLine, A: SupportSet) -> list:
    """The fixed locus collapsed to disjoint maximal geometric pieces."""
    return plane.canonical_pieces([c.geometry for c in fixed_locus(L, A)])
