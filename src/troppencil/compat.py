"""Compatibility of trees with a support set, and its two-way bridge to
general point configurations.

A tree is compatible with the support when, for every split quartet
(ij|kl), the convex hull of the four support points a_i, a_j, a_k, a_l has
conv(a_i, a_j) or conv(a_k, a_l) among its edges.  A trivalent compatible
line whose vertices all induce point-saturated triangulations determines a
configuration: each vertex contributes the dual point of a triangle with
one corner in each class of the vertex's leaf partition (such a "rainbow"
triangle always exists), and those points form a general configuration
whose stable pencil is the line we started from.  The vertices are read
off one lower hull per line: the first vertex's hull gives S, and each
later vertex is checked against S's cells, O(n) side tests per cell; only
a vertex outside S's secondary cone, as on a stable pencil that crosses
a wall, gets a hull of its own.  The generality proof is
executable: the bipartite vertex/support graphs built from minimum
attainment are forests satisfying Hall's condition, so each maximal minor
has a unique optimal matching found by stripping leaves.

Degenerate quartets follow one fixed rule, kept in `_quartet_edge`: a segment
counts as a hull edge iff both endpoints are hull vertices, the segment
lies on the hull boundary, and the other two points sit weakly on one
side; for four collinear points, iff its endpoints are the two extremes or
adjacent in the collinear order.

Trivalent types are grown from the star on leaves 1, 2, 3: leaf m goes
into edge d_m of the sorted (a, b) edge list of the tree on leaves
1..m-1, which has 2m-5 edges.  The id of a type is the mixed-radix number
sum_m d_m * prod_{k>m} (2k-5), so ids run over [0, (2n-5)!!) in the order
of the walk, and a type is decoded from its id's digits directly.
Inserting a leaf never changes the quartet topology of the leaves already
placed, so a tree that fails a quartet has no compatible completion; the
compatible walk checks only the quartets through each new leaf and drops
a tree as soon as one fails (Semple-Steel, Phylogenetics, 2003).

A type is realized with every edge length eps anchored at the heights c
of a strict-maximal triangulation S, so vertex v sits at c + eps*w_v for
an integer vector w_v.  Each 4-point lifting determinant that cuts out
S's secondary cone (Gelfand-Kapranov-Zelevinsky, 1994, ch. 7) is linear
in the heights, so the eps that keep every vertex inside form an open
interval (0, eps*), with eps* the least ratio of a determinant at c to
minus the one at some w_v.  The realized length is the largest 2^-k
below eps*, computed from eps* in integers, with no trial embeddings, and
the line is laid out on the integer scale lcm(D_c, 2^k) directly.  S and
c come from one integer height vector per draw (`_strict_heights`): the
squared distances, then jittered redraws on the scales 2^22, 2^23, ...,
each hull built on those integers; the winner is kept as D_c*c on its
least scale D_c, so no draw builds a `Fraction`.

`construct_configuration` checks the converse on the pair vector: the
stable pencil of the configuration it builds is the input line iff the
line's own pair vector (`tree_to_plucker`, O(n^2)) is the configuration's,
since a tree metric determines its tree; no line is rebuilt.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, prod

from .core import (
    ProjPoint,
    SupportSet,
    TropError,
    between,
    component_count,
    dot,
    min_profile,
    orient2d,
)
from .pencil import LinePoint, coords_at
from .stable import solve_minors
from .subdivision import (
    RegularSubdivision,
    _cell_planes,
    _cone_bound,
    _dual_point,
    _lower_faces,
    is_maximal,
)
from .trees import EmbeddedLine, TreeTopology, _bits, _hang, _placed, tree_to_plucker


@dataclass(frozen=True)
class QuartetVerdict:
    indices: tuple  # (i, j, k, l): the pairs are {i, j} and {k, l}
    ok: bool
    reason: str  # which segment is a hull edge, or "both diagonals"

    def __bool__(self) -> bool:
        return self.ok


def quartet_ok(A: SupportSet, i: int, j: int, k: int, l: int) -> QuartetVerdict:
    """The hull-edge condition for the quartet with pairs {i,j}, {k,l}."""
    if len({i, j, k, l}) != 4:
        raise ValueError("quartet needs four distinct indices")
    edge = _quartet_edge(A.rs(i), A.rs(j), A.rs(k), A.rs(l))
    reason = ("both diagonals", f"conv(a_{i},a_{j})", f"conv(a_{k},a_{l})")[edge]
    return QuartetVerdict((i, j, k, l), edge > 0, reason)


def _quartet_edge(p, q, r, s) -> int:
    """The one quartet rule, for the pairing {p, q} | {r, s}: 1 when
    [p, q] is a free edge of conv{p, q, r, s}, else 2 when [r, s] is, else
    0 (both segments are diagonals)."""
    if _segment_is_edge(p, q, r, s):
        return 1
    return 2 if _segment_is_edge(r, s, p, q) else 0


def _segment_is_edge(p, q, r, s) -> bool:
    """Is [p, q] a free edge of conv{p, q, r, s}?

    Fails when r and s sit strictly on opposite sides of the line through
    p and q (the segment is a diagonal), or when a collinear point occupies
    the segment's relative interior.  A collinear point beyond the segment
    is harmless.  For four collinear points this reduces to "the two pairs
    do not interleave", which is what both the boundary-point type counts
    and the compatibility of stable pencils require.
    """
    o_r = orient2d(p, q, r)
    o_s = orient2d(p, q, s)
    if o_r * o_s < 0:
        return False
    if o_r == 0 and r not in (p, q) and between(p, r, q):
        return False
    if o_s == 0 and s not in (p, q) and between(p, s, q):
        return False
    return True


@dataclass(frozen=True)
class CompatibilityVerdict:
    ok: bool
    witness: tuple | None  # first failing quartet (i, j, k, l)

    def __bool__(self) -> bool:
        return self.ok


def is_compatible(T, A: SupportSet) -> CompatibilityVerdict:
    """The quartet condition over every split of the tree (a topology or
    an embedded line); star trees have no splits, hence are compatible."""
    topo = T.topology if isinstance(T, EmbeddedLine) else T
    if topo.n != A.n:
        raise ValueError("support size and leaf count differ")
    rs = [None, *map(A.rs, A.indices())]
    full = (1 << (topo.n + 1)) - 2
    # the splits in the order of `splits`, on their leaf masks
    masks = sorted(topo._split_masks().values(), key=lambda m: (m.bit_count(), _bits(m)))
    for m in masks:
        comp = _bits(full ^ m)
        for i, j in combinations(_bits(m), 2):
            for k, l in combinations(comp, 2):
                if not _quartet_edge(rs[i], rs[j], rs[k], rs[l]):
                    return CompatibilityVerdict(False, (i, j, k, l))
    return CompatibilityVerdict(True, None)


def rainbow_triangle(S: RegularSubdivision, parts) -> tuple:
    """First triangle of the subdivision with one corner in each part."""
    blocks = [frozenset(p) for p in parts]
    if len(blocks) != 3 or any(not b for b in blocks):
        raise ValueError("need three nonempty parts")
    for cell in S.cells:
        if len(cell) == 3 and all(len(b & set(cell)) == 1 for b in blocks):
            return cell
    raise TropError("no rainbow triangle")


def vertex_fixed_point(L: EmbeddedLine, A: SupportSet, v: int) -> ProjPoint:
    """The fixed-locus point carried by a trivalent vertex of a compatible
    line: the dual point of a rainbow triangle of the vertex's subdivision,
    both read off one lower hull of its integer row L.rows[v]."""
    if len(L.topology.adj[v]) != 3:
        raise TropError(f"vertex {v} is not trivalent")
    planes = _lower_faces(A, L.rows[v])
    S = RegularSubdivision(A, tuple(sorted(planes)))
    if not is_maximal(S, "strict"):
        raise TropError(f"subdivision at vertex {v} is not strict-maximal")
    cell = rainbow_triangle(S, L.topology.leaf_partition(v))
    return _dual_point(L.D, planes[cell])


def vertex_fixed_points(L: EmbeddedLine, A: SupportSet) -> dict:
    """P_v for every vertex, after checking the full hypotheses: the values
    and errors of `vertex_fixed_point` at each vertex in id order, from one
    lower hull per line.

    The first vertex's hull gives a strict-maximal S.  A later vertex whose
    lifts lie strictly above every cell's plane induces S too
    (`_cell_planes`), with those planes; one that does not gets a hull of
    its own, which becomes S for the vertices after it.  The rainbow
    triangle is the first cell of S with one corner in each side of the
    vertex, read off the sides' leaf bitmasks."""
    topo = L.topology
    if not topo.is_trivalent():
        raise TropError("hypotheses violated: line is not trivalent")
    verdict = is_compatible(L, A)
    if not verdict:
        raise TropError(f"hypotheses violated: incompatible, quartet {verdict.witness}")
    out, S = {}, None
    for v in topo.internal_nodes:
        row = L.rows[v]
        planes = None if S is None else _cell_planes(A, row, S.cells)
        if planes is None:
            planes = _lower_faces(A, row)
            S = RegularSubdivision(A, tuple(sorted(planes)))
            if not is_maximal(S, "strict"):
                raise TropError(f"hypotheses violated: subdivision at vertex {v} is not strict-maximal")
            masks = [sum(1 << i for i in cell) for cell in S.cells]
        sides = [topo._mask_beyond(v, w) for w in topo.adj[v]]
        cell = next((c for c, m in zip(S.cells, masks) if all(side & m for side in sides)), None)
        if cell is None:
            raise TropError("hypotheses violated: no rainbow triangle")
        out[v] = _dual_point(L.D, planes[cell])
    return out


def construct_configuration(L: EmbeddedLine, A: SupportSet) -> list:
    """The general configuration whose stable pencil is L (one point per
    trivalent vertex).  Self-verifies generality, then the round trip.

    The round trip is checked on pair vectors: with p the configuration's
    (from `solve_minors`), the test tree_to_plucker(L) == p is the test
    plucker_to_tree(p) == L.  Equal lines give equal pair vectors, and
    for a valid line and a valid Pluecker vector the two maps invert
    each other: plucker_to_tree(tree_to_plucker(L)) == L and
    tree_to_plucker(plucker_to_tree(p)) == p (a tree metric determines
    its tree; Semple-Steel, Phylogenetics, 2003, sec. 7).  `solve_minors`
    gives a valid p; were it not one, the refusal would read "stable pencil
    differs from input" rather than a `PlueckerError`."""
    points = list(vertex_fixed_points(L, A).values())
    verdict, p = solve_minors(A, points)
    if not verdict:
        raise TropError("verification failed: configuration is not general")
    if tree_to_plucker(L) != p:
        raise TropError("verification failed: stable pencil differs from input")
    return points


@dataclass(frozen=True)
class SupportGraph:
    """Bipartite graph between the vertices of a line and its support
    points: (w, l) is an edge iff term l attains the minimum of
    {c_l + a_l . P_w} at the base point c.  Vertex ids, as internal node
    ids, lie outside 1..n, so both sides are plain int nodes of one graph."""

    base: LinePoint
    vertex_ids: tuple
    n: int
    edges: frozenset  # pairs (vertex id, support index)

    def component_count(self) -> int:
        return component_count([*self.vertex_ids, *range(1, self.n + 1)], self.edges)

    def is_forest(self) -> bool:
        # genus = |E| - |V| + components
        return len(self.edges) == len(self.vertex_ids) + self.n - self.component_count()


def support_graph(L: EmbeddedLine, A: SupportSet, c) -> SupportGraph:
    """The graph G_c for c a vertex (pass a node id or LinePoint) or any
    2-valent point of L.  A node id must be an internal node of L."""
    if isinstance(c, int):
        if c not in L.rows:
            raise ValueError(f"node {c} is not an internal node of the line")
        c = LinePoint("vertex", c)
    pv = vertex_fixed_points(L, A)
    cvec = coords_at(L, c)
    edges = set()
    for w, P in pv.items():
        vals = [cvec[m - 1] + dot(A.point(m), P) for m in A.indices()]
        for m in min_profile(vals).argmin:
            edges.add((w, m))
    return SupportGraph(c, tuple(sorted(pv)), A.n, frozenset(edges))


def unique_matching(G: SupportGraph, excluded) -> dict:
    """The perfect matching between line vertices and the support minus
    the excluded pair, by stripping leaves of the forest."""
    i, j = excluded
    adj = {w: set() for w in G.vertex_ids}
    adj.update({l: set() for l in range(1, G.n + 1) if l not in (i, j)})
    for w, l in G.edges:
        if l in (i, j):
            continue
        adj[w].add(l)
        adj[l].add(w)
    matching = {}
    alive = set(adj)
    while alive:
        leaf = next(
            (nd for nd in sorted(alive) if len(adj[nd] & alive) == 1), None
        )
        if leaf is None:
            raise TropError("no matching")
        (mate,) = adj[leaf] & alive
        alive -= {leaf, mate}
        w, l = (mate, leaf) if 1 <= leaf <= G.n else (leaf, mate)
        matching[w] = l
    return matching


def type_count(n: int) -> int:
    """(2n-5)!!, the number of trivalent topologies on n leaves."""
    if n < 3:
        raise ValueError("need at least 3 leaves")
    return prod(range(1, 2 * n - 4, 2))


def _edges(adj: dict) -> list:
    return sorted((a, b) for a in adj for b in adj[a] if a < b)


def _insert(adj: dict, n: int, m: int, x: int, y: int) -> dict:
    """A copy of adj with leaf m hung from a new node on the edge (x, y).
    Its id is the largest yet, so the tuples stay sorted: a trivalent tree
    that `TreeTopology._built` takes as it stands, with no validation."""
    z = n + m - 2  # next internal id: an m-leaf tree has m-2 internals
    out = dict(adj)
    out[x] = (*(w for w in adj[x] if w != y), z)
    out[y] = (*(w for w in adj[y] if w != x), z)
    out[z] = tuple(sorted((x, y, m)))
    out[m] = (z,)
    return out


def _grow(n: int, m: int, adj: dict, type_id: int, fits):
    """(id, adjacency) of every type grown from a tree on leaves 1..m-1
    whose id so far is type_id, in id order; a tree on which fits(adj, m)
    fails after inserting leaf m is dropped with everything grown from it."""
    if m > n:
        yield type_id, adj
        return
    for d, (x, y) in enumerate(_edges(adj)):
        child = _insert(adj, n, m, x, y)
        if fits(child, m):
            yield from _grow(n, m + 1, child, type_id * (2 * m - 5) + d, fits)


def _star3(n: int) -> dict:
    return {n + 1: (1, 2, 3), 1: (n + 1,), 2: (n + 1,), 3: (n + 1,)}


def iter_types(n: int):
    """All trivalent leaf-labelled topologies on n leaves, lazily and in id
    order; type_count(n) in total."""
    if n < 3:
        raise ValueError("need at least 3 leaves")
    if n > 10:
        raise TropError("type enumeration capped at n = 10")
    for _, adj in _grow(n, 4, _star3(n), 0, lambda adj, m: True):
        yield TreeTopology._built(n, adj, None)


def enumerate_types(n: int) -> list:
    """iter_types as a list."""
    return list(iter_types(n))


def type_by_id(n: int, type_id: int):
    """The type with the given id, or None outside [0, type_count(n)):
    peel off the digits, then insert each leaf into the edge they name."""
    if not 0 <= type_id < type_count(n):
        return None
    digit = {}
    for m in range(n, 3, -1):
        type_id, digit[m] = divmod(type_id, 2 * m - 5)
    adj = _star3(n)
    for m in range(4, n + 1):
        adj = _insert(adj, n, m, *_edges(adj)[digit[m]])
    return TreeTopology._built(n, adj, None)


def compatible_types(A: SupportSet):
    """(id, T) for every trivalent type T compatible with A, in id order.

    After leaf m goes in, only the quartets {m, x | a, b} need checking.
    Hung from m's neighbour, the tree shows such a quartet at every node
    with a and b below different children and x not below it."""
    rs = [None, *map(A.rs, A.indices())]
    bad = {}  # m -> (bitmask of {a, b}, bitmask of every x failing with it)
    for m in range(4, A.n + 1):
        bad[m] = []
        for a, b in combinations(range(1, m), 2):
            xs = sum(
                1 << x
                for x in range(1, m)
                if x not in (a, b) and not _quartet_edge(rs[m], rs[x], rs[a], rs[b])
            )
            if xs:
                bad[m].append((1 << a | 1 << b, xs))

    def fits(adj, m):
        rows, full = bad[m], (1 << m) - 2
        top = adj[m][0]
        parent, order = _hang(adj, top)
        parent[top] = m
        below = {}
        for v in reversed(order):
            if len(adj[v]) == 1:
                below[v] = 1 << v
                continue
            m1, m2 = (below[w] for w in adj[v] if w != parent[v])
            below[v] = m1 | m2
            outside = full ^ below[v]
            if any(p & m1 and p & m2 and xs & outside for p, xs in rows):
                return False
        return True

    for type_id, adj in _grow(A.n, 4, _star3(A.n), 0, fits):
        yield type_id, TreeTopology._built(A.n, adj, None)


def count_compatible(A: SupportSet) -> int:
    return sum(1 for _ in compatible_types(A))


MAX_DRAWS = 64  # jittered height vectors tried for a strict-maximal subdivision
MAX_HALVINGS = 64  # realize_type's edge lengths are 2^-k with k below this


def find_strict_maximal_subdivision(A: SupportSet, seed: int = 0) -> tuple:
    """A point-saturated triangulation of conv(A) with its height vector.

    The squared-distance lift keeps every point strictly on the lower hull
    except across cocircular flats, where it fails to triangulate; redraws
    add random rational jitter to it, shrinking the jitter geometrically so
    it drops below the lift's strict convexity gaps after a few draws.
    This is the `ProjPoint` view of `_strict_heights`, built once.
    """
    S, D, hs = _strict_heights(A, seed)
    return S, ProjPoint([Fraction(h, D) for h in hs])


def _strict_heights(A: SupportSet, seed: int) -> tuple:
    """(S, D, hs): the triangulation of `find_strict_maximal_subdivision`
    and its heights c as integers hs = D*c on the least scale D, with
    hs[-1] = 0.

    Redraw k adds r_i * 2^-20 * 2^-(2+k) to each squared distance h_i,
    r_i = rng.randint(0, 2**20): on the scale E = 2^(22+k) that is the
    integer height E*h_i + r_i, and every hull is built on such integers.
    The winner, shifted to end in 0 and divided by g = gcd(E, entries),
    is c on the scale E/g, the lcm of c's denominators."""
    for E, hs in _draws([r * r + s * s for r, s, _ in A.points], seed):
        S = RegularSubdivision(A, tuple(sorted(_lower_faces(A, hs))))
        if is_maximal(S, "strict"):
            last = hs[-1]
            g = gcd(E, *(h - last for h in hs))
            return S, E // g, [(h - last) // g for h in hs]
    raise TropError(f"no strict-maximal subdivision found after {MAX_DRAWS} draws")


def _draws(base, seed):
    """(E, E*c) for the heights c of each draw: the squared distances
    base, then MAX_DRAWS jittered redraws from random.Random(seed)."""
    yield 1, base
    rng = random.Random(seed)
    for k in range(MAX_DRAWS):
        E = 1 << (22 + k)
        yield E, [E * h + rng.randint(0, 2**20) for h in base]


def realize_type(A: SupportSet, T: TreeTopology, seed: int = 0) -> EmbeddedLine:
    """An embedded line of the given compatible type whose vertices all
    stay inside one strict-maximal secondary cone (so the configuration
    constructor applies to it): anchor the type at the cone's height
    vector c, with every edge length 2^-k for the least k >= 0 that keeps
    every vertex inside the cone.

    With every length eps, vertex v sits at c + eps*w_v, where w_v is the
    integer sum of the e_I along the path from the anchor.  The eps that
    keep every vertex inside form an open interval (0, eps*), and
    `_cone_bound` reads eps* off the integer planes of the cone's cells.
    So 2^-k < eps* picks k = floor(1/eps*).bit_length(), exactly: the
    first length that halving from 1 would accept.

    The line is placed on integers, as `embed` would place it: c comes as
    the integers hs = D_c*c on its least scale D_c (`_strict_heights`), so
    on the scale D = lcm(D_c, 2^k) the anchor's row is D/D_c * hs and
    every internal edge has length D / 2^k."""
    verdict = is_compatible(T, A)
    if not verdict:
        raise TropError(f"not compatible: quartet {verdict.witness}")
    S, Dc, hs = _strict_heights(A, seed)
    anchor = T.internal_nodes[0]
    bound = _cone_bound(S, Dc, hs, _unit_offsets(T, anchor).values())
    k = 0 if bound is None else (bound.denominator // bound.numerator).bit_length()
    if k >= MAX_HALVINGS:
        raise TropError("edge lengths did not stabilize inside the secondary cone")
    D = lcm(Dc, 1 << k)
    row = [D // Dc * x for x in hs]
    return _placed(T, D, anchor, row, dict.fromkeys(T.internal_edges, D >> k))


def _unit_offsets(T: TreeTopology, anchor: int) -> dict:
    """{v: w_v} over the internal nodes: the sum of the e_I along the path
    from the anchor, that is, the rows of T placed with unit lengths from
    0 at the anchor."""
    return _placed(T, 1, anchor, (0,) * T.n, dict.fromkeys(T.internal_edges, 1)).rows
