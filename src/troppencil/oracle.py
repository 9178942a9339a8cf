"""Slow reference implementations used for differential testing.

These are deliberately naive: assignment problems by full enumeration,
lower hulls from `Fraction` planes, curve membership by exhaustive
breakpoint walks, trees from Pluecker vectors by trying every leaf
bipartition or by a quartet-by-quartet split search, pair coordinates
read off a line one median (two path walks) at a time, stable pencils as
honest limits of first-order infinitesimal perturbations, and fixed loci
by solving every witness system with `plane.solve`, Pi(G, I) and its
attachment point from `Fraction` coordinates and `SubtreeSet` intervals,
the vertex fixed points of a line from one lower hull per vertex, and the
squared-distance heights that `compat`'s strict-maximal draws start
from, as a `ProjPoint`.
They ship with the library (not only the tests) so verdicts can be
re-derived on demand.

The infinitesimals (`EpsRational`) never leave this module: the
perturbed pencil's minors and leaf-bipartition gaps are computed on
them, and only the eps -> 0 limit, a line over `Fraction`, is embedded.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations

from . import plane
from .compat import is_compatible, vertex_fixed_point
from .core import ProjPoint, SupportSet, TropError, dot, min_profile, rat
from .pencil import (
    FixedLocusCell,
    LinePoint,
    SubtreeSet,
    _sub,
    _term_forms,
    leaf_partition_at,
    make_point,
)
from .subdivision import RegularSubdivision
from .trees import EmbeddedLine, PlueckerVector, TreeTopology, embed


class EpsRational:
    """A rational plus a first-order infinitesimal: value + eps * slope.

    Ordered lexicographically; products truncate at first order.  Supports
    mixed arithmetic with ints and Fractions, so `brute_tropdet` and the
    split search of `brute_plucker_to_tree` run on it unchanged.
    """

    __slots__ = ("value", "slope")

    def __init__(self, value, slope=Fraction(0)):
        object.__setattr__(self, "value", rat(value))
        object.__setattr__(self, "slope", rat(slope))

    @staticmethod
    def _lift(x):
        if isinstance(x, EpsRational):
            return x
        if isinstance(x, (int, Fraction)):
            return EpsRational(rat(x))
        return NotImplemented

    def __add__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return EpsRational(self.value + o.value, self.slope + o.slope)

    __radd__ = __add__

    def __neg__(self):
        return EpsRational(-self.value, -self.slope)

    def __sub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return EpsRational(
            self.value * o.value, self.value * o.slope + self.slope * o.value
        )

    __rmul__ = __mul__

    def _cmp(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        a = (self.value, self.slope)
        b = (o.value, o.slope)
        return (a > b) - (a < b)

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c >= 0

    def __eq__(self, other):
        c = self._cmp(other)
        return False if c is NotImplemented else c == 0

    def __hash__(self):
        if self.slope == 0:
            return hash(self.value)
        return hash((self.value, self.slope))

    def __repr__(self):
        return f"({self.value}+{self.slope}e)"


def brute_tropdet(square) -> tuple:
    """(minimum, number of optimal bijections) by full enumeration."""
    k = len(square)
    if k > 8:
        raise TropError("brute-force tropdet capped at size 8")
    best, mult = None, 0
    for perm in permutations(range(k)):
        s = square[0][perm[0]]
        for i in range(1, k):
            s = s + square[i][perm[i]]
        if best is None or s < best:
            best, mult = s, 1
        elif s == best:
            mult += 1
    return best, mult


def brute_regular_subdivision(A: SupportSet, c: ProjPoint) -> RegularSubdivision:
    """Lower hull from rational planes: a subset is a cell iff it is the
    full equality set of some supporting plane with every lift above."""
    if c.dim != A.n:
        raise ValueError(f"coefficient vector has {c.dim} entries, support has {A.n}")
    cells = set()
    idx = list(A.indices())
    for tri in combinations(idx, 3):
        (r1, s1), (r2, s2), (r3, s3) = (A.rs(i) for i in tri)
        det = (r2 - r1) * (s3 - s1) - (s2 - s1) * (r3 - r1)
        if det == 0:
            continue
        h1, h2, h3 = (c[i - 1] for i in tri)
        alpha = Fraction((h2 - h1) * (s3 - s1) - (h3 - h1) * (s2 - s1), det)
        beta = Fraction((h3 - h1) * (r2 - r1) - (h2 - h1) * (r3 - r1), det)
        gamma = h1 - alpha * r1 - beta * s1
        diffs = [c[m - 1] - (alpha * A.rs(m)[0] + beta * A.rs(m)[1] + gamma) for m in idx]
        if all(d >= 0 for d in diffs):
            cells.add(tuple(m for m, d in zip(idx, diffs) if d == 0))
    return RegularSubdivision(A, tuple(sorted(cells)))


def squared_distance_heights(A: SupportSet) -> ProjPoint:
    """The heights r^2 + s^2 of the support points as a `ProjPoint`: the
    first draw of `compat._strict_heights`, in `Fraction`s."""
    return ProjPoint([Fraction(r * r + s * s) for r, s, _ in A.points])


def brute_vertex_fixed_points(L: EmbeddedLine, A: SupportSet) -> dict:
    """compat.vertex_fixed_points with a lower hull of its own at every
    vertex: `vertex_fixed_point` (`_lower_faces`, then `rainbow_triangle`
    on the leaf partition's frozensets) per vertex in id order, after the
    same hypothesis checks, with the same errors."""
    if not L.topology.is_trivalent():
        raise TropError("hypotheses violated: line is not trivalent")
    verdict = is_compatible(L, A)
    if not verdict:
        raise TropError(f"hypotheses violated: incompatible, quartet {verdict.witness}")
    try:
        return {v: vertex_fixed_point(L, A, v) for v in L.topology.internal_nodes}
    except TropError as e:
        raise TropError(f"hypotheses violated: {e}") from e


def sampled_fixed(L: EmbeddedLine, A: SupportSet, P: ProjPoint) -> bool:
    """Fixed-point test by walking every breakpoint of L + A.P.

    The translate is formed here in `Fraction`s, not by the library's.  On
    each edge and ray, the coordinate functions are affine in the
    parameter, so the argmin can only change where two of them cross;
    checking every crossing and every midpoint in between is exhaustive
    and exact.
    """
    if A.n != L.n:
        raise ValueError("support size and leaf count differ")
    n = L.n
    shift = [dot(a, P) for a in A.points]
    coords = {v: [x + s for x, s in zip(cs, shift)] for v, cs in L.coords.items()}

    def multiplicity_ok(q, grow, t) -> bool:
        vals = [q[i] + (t if (i + 1) in grow else 0) for i in range(n)]
        return min_profile(vals).multiplicity >= 2

    def walk(q, grow, ell) -> bool:
        cuts = {Fraction(0)}
        if ell is not None:
            cuts.add(ell)
        for i in grow:
            for j in range(1, n + 1):
                if j in grow:
                    continue
                t = q[j - 1] - q[i - 1]
                if 0 < t and (ell is None or t < ell):
                    cuts.add(t)
        pts = sorted(cuts)
        checks = list(pts)
        checks += [(a + b) / 2 for a, b in zip(pts, pts[1:])]
        if ell is None:
            checks.append(pts[-1] + 1)
        return all(multiplicity_ok(q, grow, t) for t in checks)

    for a, b, side, ell in L.edges:
        if not walk(coords[a], side, ell):
            return False
    for v, leaf in L.rays:
        if not walk(coords[v], {leaf}, None):
            return False
    return True


def brute_fixed_locus(L: EmbeddedLine, A: SupportSet) -> list:
    """pencil.fixed_locus with every candidate system built and handed to
    `plane.solve`, cell for cell and in the same order."""
    if A.n != L.n:
        raise ValueError("support size and leaf count differ")
    cells = []
    topo = L.topology
    D, rows = L.D, L.rows
    for v in topo.internal_nodes:
        T = _term_forms(A, D, rows[v])
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
                            witness = ("vertex", v)
                            cells.append(FixedLocusCell(witness, (i, j, k), eqs, below[i], geom, D))
    for a, b, side, ell in L.edges:
        T = _term_forms(A, D, rows[a])
        inside = sorted(side)
        outside = sorted(set(range(1, L.n + 1)) - side)
        for i, j in combinations(inside, 2):
            for k, l in combinations(outside, 2):
                tform = _sub(T[k], T[i])  # D times the edge parameter of the witness point
                eqs = (_sub(T[i], T[j]), _sub(T[k], T[l]))
                ineqs = (
                    tuple(_sub(T[m], T[i]) for m in inside)
                    + tuple(_sub(T[m], T[k]) for m in outside)
                    + (tform, _sub((0, 0, int(D * ell)), tform))
                )
                geom = plane.solve(eqs, ineqs)
                if geom is not None:
                    witness = ("edge", (a, b), tform)
                    cells.append(FixedLocusCell(witness, (i, j, k, l), eqs, ineqs, geom, D))
    # deduplicate zero-dimensional cells
    out, seen_points = [], set()
    for cell in cells:
        if isinstance(cell.geometry, plane.PointGeom):
            if cell.geometry in seen_points:
                continue
            seen_points.add(cell.geometry)
        out.append(cell)
    return out


def brute_pi_set(G: EmbeddedLine, I) -> SubtreeSet:
    """pencil.pi_set read off G's `Fraction` coordinates: per vertex the
    argmin set, per branch the group minima and the breakpoint as
    `Fraction`s, clipped by `SubtreeSet`."""
    I = frozenset(I)
    coords = G.coords
    verts = {v for v, q in coords.items() if I <= min_profile(q).argmin}
    iv = {}
    for a, b, J, ell in G.branches:
        q = coords[a]
        muJ = min(q[i - 1] for i in J)
        mu0 = min(x for i, x in enumerate(q, 1) if i not in J)
        if any(q[i - 1] != (muJ if i in J else mu0) for i in I):
            continue
        tstar = mu0 - muJ
        lo, hi = Fraction(0), ell
        if I & J:  # the J group holds the minimum up to t*
            hi = tstar if hi is None else min(hi, tstar)
        if I - J:  # the rest holds it from t* on
            lo = max(lo, tstar)
        if hi is None or lo <= hi:
            iv[(a, b)] = (lo, hi)
    return SubtreeSet(G, verts, iv)


def _subtree_gate(G: EmbeddedLine, S: SubtreeSet, i: int) -> LinePoint:
    """The first point of the nonempty, connected S met coming in from leaf
    i: the top of S on ray i, or else the first point of S on the path from
    v_i towards S."""
    v = G.topology.node_of_leaf(i)
    if (v, i) in S.iv:
        return make_point(G, (v, i), S.iv[(v, i)][1])
    if S.vertices:
        target = min(S.vertices)
    else:  # S lies inside one branch
        key, (lo, _) = next(iter(S.iv.items()))
        a, b, side, ell = G.edge(key)
        if ell is None:  # inside one ray
            return make_point(G, key, lo)
        target = a if i in side else b
    path = G.topology.path(v, target)
    for u, w in zip(path, path[1:]):
        if u in S.vertices:
            return LinePoint("vertex", u)
        key = (u, w) if u < w else (w, u)
        if key in S.iv:
            # the end of the interval nearer u
            return make_point(G, key, S.iv[key][u > w])
    return LinePoint("vertex", target)


def brute_pi_attachment(G: EmbeddedLine, I) -> LinePoint | None:
    """pencil.pi_attachment as a gate walk on `brute_pi_set`'s `Fraction`
    intervals: the gate from every leaf of I must be one point x, and every
    branch at x free of I must be in the set out to its leaves' infinity."""
    I = frozenset(I)
    S = brute_pi_set(G, I)
    if S.is_empty():
        return None
    topo = G.topology
    gates = {_subtree_gate(G, S, i) for i in I} or {
        LinePoint("vertex", v) for v in topo.internal_nodes
    }
    if len(gates) == 1:
        (x,) = gates
        free = [j for part in leaf_partition_at(G, x) if not part & I for j in part]
        if all(S.iv.get((topo.node_of_leaf(j), j), (0, 0))[1] is None for j in free):
            return x
    raise TropError(f"Pi(G, {sorted(I)}) has no unique attachment point")


def median_tree_to_plucker(L: EmbeddedLine) -> PlueckerVector:
    """trees.tree_to_plucker one median at a time, on `Fraction`
    coordinates: the median of i, j, k is the first node of the path from
    j to k that lies on the path from i to k, and the relations
    p_jk + m_i = p_ik + m_j = p_ij + m_k give p_{i,n} and p_{i,n-1} from
    median(i, n - 1, n), then p_ij from median(i, j, n)."""
    n, topo, x = L.n, L.topology, L.coords

    def median(i, j, k):
        on_ik = set(topo.path(i, k))
        return next(v for v in topo.path(j, k) if v in on_ik)

    p = {(n - 1, n): Fraction(0)}
    for i in range(1, n - 1):
        m = x[median(i, n - 1, n)]
        p[i, n] = m[i - 1] - m[n - 2]
        p[i, n - 1] = m[i - 1] - m[n - 1]
    for i, j in combinations(range(1, n - 1), 2):
        m = x[median(i, j, n)]
        p[i, j] = p[j, n] + m[i - 1] - m[n - 1]
    return PlueckerVector(n, p)


def brute_plucker_to_tree(p: PlueckerVector) -> EmbeddedLine:
    """trees.plucker_to_tree by trying all 2^(n-1) leaf bipartitions.

    A leaf bipartition is an edge of the tree iff its quartets strictly
    dominate; the edge's lattice length is the smallest dominance gap.
    Zero gaps are ties, i.e. contracted edges.
    """
    p.validate()
    gaps, x = _brute_splits(p.n, p.get)
    splits = {I: gap for I, gap in gaps.items() if gap > 0}
    topology = TreeTopology.from_splits(p.n, splits.keys())
    return embed(topology, splits, topology.node_of_leaf(1), x)


def poly_plucker_to_tree(p: PlueckerVector) -> EmbeddedLine:
    """trees.plucker_to_tree by a polynomial split search: every quartet
    is checked, then leaves 4..n are inserted one at a time, keeping the
    leaf bipartitions whose quartets strictly dominate (_dominant_splits),
    in O(n^4) scalar operations on the vector's integer table D * p.
    """
    p.validate()
    n, D, q = p.n, p.D, p.table
    splits = _dominant_splits(q, n)
    topology = TreeTopology.from_splits(n, splits.keys())
    top = max(q[1][i] + q[1][j] - q[i][j] for i, j in combinations(range(2, n + 1), 2))
    x = tuple(Fraction(c, D) for c in (top, *q[1][2:]))
    lengths = {s: Fraction(gap, D) for s, gap in splits.items()}
    return embed(topology, lengths, topology.node_of_leaf(1), x)


def _dominant_splits(q, n: int) -> dict:
    """Every bipartition of leaves 1..n with both sides of size >= 2 whose
    gap, the minimum over the quartets {i, j | k, l} across it of
    q_ij + q_kl - max(q_ik + q_jl, q_il + q_jk), is positive; keyed by the
    side without leaf n, valued by the gap.  q is the symmetric pair table.

    Bipartitions with positive gaps are pairwise compatible (two crossing
    ones would each strictly dominate the other on a shared quartet), so
    there are at most m - 3 of them on leaves 1..m.  Deleting leaf m + 1
    from a bipartition of 1..m+1 keeps or raises its gap, so each one
    with a positive gap restricts either to one with a positive gap on
    1..m or to a side of at most one leaf.  Its gap is the smaller of the
    restricted gap and the minimum over the quartets through m + 1.
    """
    gaps = {}  # bitmask (bit i for leaf i) of the side holding leaf 1 -> gap
    for m in range(3, n):
        new = 1 << (m + 1)
        every = (new << 1) - 2
        # With r_kl = q_kl - q_{m+1,k} - q_{m+1,l}, the quartet
        # {m+1, j | k, l} has gap r_kl - max(r_jk, r_jl); the smallest over
        # the j beside m+1 is r_kl - max(reach_k, reach_l), reach_k being
        # the largest r_jk among them.
        r = [[None] * (m + 1) for _ in range(m + 1)]
        for k, l in combinations(range(1, m + 1), 2):
            r[k][l] = r[l][k] = q[k][l] - q[m + 1][k] - q[m + 1][l]
        candidates = {}
        for side, gap in gaps.items():
            candidates[side | new] = gap
            candidates[side] = gap
        for i in range(1, m + 1):
            side = new | 1 << i
            candidates[side if side & 2 else every ^ side] = None
        gaps = {}
        for side, gap in candidates.items():
            with_new = side if side & new else every ^ side
            near = [j for j in range(1, m + 1) if with_new >> j & 1]
            far = [k for k in range(1, m + 1) if not with_new >> k & 1]
            reach = {k: max(r[j][k] for j in near) for k in far}
            through = min(r[k][l] - max(reach[k], reach[l]) for k, l in combinations(far, 2))
            if gap is None or through < gap:
                gap = through
            if gap > 0:
                gaps[side] = gap
    out = {}
    for side, gap in gaps.items():
        if side >> n & 1:
            side ^= (1 << (n + 1)) - 2
        out[frozenset(i for i in range(1, n) if side >> i & 1)] = gap
    return out


def _brute_splits(n: int, get) -> tuple:
    """(gaps, x) for the pair coordinates get(i, j): the dominance gap of
    every leaf bipartition, keyed by its side without leaf n, and the
    coordinates of the vertex next to leaf 1, x_l = p_1l and
    x_1 = max_{i,j} (p_1i + p_1j - p_ij)."""
    gaps = {}
    for size in range(2, n - 1):
        for I in combinations(range(1, n), size):
            comp = [k for k in range(1, n + 1) if k not in I]
            gaps[frozenset(I)] = min(
                get(i, j) + get(k, l) - max(get(i, k) + get(j, l), get(i, l) + get(j, k))
                for i, j in combinations(I, 2)
                for k, l in combinations(comp, 2)
            )
    top = max(get(1, i) + get(1, j) - get(i, j) for i, j in combinations(range(2, n + 1), 2))
    return gaps, (top, *(get(1, l) for l in range(2, n + 1)))


class PerturbationError(TropError):
    pass


ATTEMPTS = 8  # perturbations drawn before perturbed_pencil gives up
MAX_PERTURBED_N = 10  # brute_tropdet enumerates the (n - 2)! bijections of each minor


def perturbed_pencil(A: SupportSet, config, seed: int = 0) -> EmbeddedLine:
    """Stable pencil as the limit of a first-order perturbed configuration.

    Each point is nudged by seed-dependent infinitesimals until every
    maximal minor becomes uniquely optimal (re-drawn up to ATTEMPTS
    times); the splits of the perturbed pencil are found in first-order
    arithmetic and evaluated at eps -> 0.  The result is independent of
    the seed.

    A split whose gap has value 0 and positive slope is an edge of
    infinitesimal length, which contracts in the limit, so the limit tree
    keeps the splits whose gap has a positive value, with that value as
    length.  The value part of a lexicographic max is the max of the value
    parts, so the limit's vertex next to leaf 1 sits at the value part of
    the perturbed one.  Supports of more than MAX_PERTURBED_N points are
    refused up front.
    """
    if A.n > MAX_PERTURBED_N:
        raise TropError(f"oracle stable pencil capped at n = {MAX_PERTURBED_N}, got n = {A.n}")
    config = list(config)
    if len(config) != A.n - 2:
        raise ValueError(f"need {A.n - 2} points, got {len(config)}")
    last = None
    for attempt in range(ATTEMPTS):
        rng = random.Random(1000 * seed + attempt)
        eps_points = []
        for P in config:
            xi, eta = rng.randint(-999, 999), rng.randint(-999, 999)
            eps_points.append((EpsRational(P[0], Fraction(xi)), EpsRational(P[1], Fraction(eta))))
        try:
            pairs = _eps_plucker(A, eps_points)
        except PerturbationError as e:
            last = e
            continue
        gaps, x = _brute_splits(A.n, lambda i, j: pairs[i, j])
        lengths = {I: gap.value for I, gap in gaps.items() if gap.value > 0}
        topology = TreeTopology.from_splits(A.n, lengths.keys())
        return embed(topology, lengths, topology.node_of_leaf(1), [c.value for c in x])
    raise PerturbationError(f"perturbation not generic after {ATTEMPTS} draws: {last}")


def _eps_plucker(A: SupportSet, eps_points) -> dict:
    """The pair table {(i, j): p_ij}, both orders, of the perturbed points
    (x, y) in the z = 0 chart; raises unless every minor is uniquely optimal."""
    n = A.n
    M = [[r * x + s * y for r, s, _ in A.points] for x, y in eps_points]
    pairs = {}
    for i, j in combinations(range(1, n + 1), 2):
        cols = [l for l in range(1, n + 1) if l not in (i, j)]
        sub = [[row[c - 1] for c in cols] for row in M]
        val, mult = brute_tropdet(sub)
        if mult != 1:
            raise PerturbationError(f"minor ({i},{j}) still has {mult} optima")
        pairs[i, j] = pairs[j, i] = val
    return pairs
