"""Compatibility of trees with a support set, and its two-way bridge to
general point configurations.

A tree is compatible with the support when, for every split quartet
(ij|kl), the convex hull of the four support points a_i, a_j, a_k, a_l has
conv(a_i, a_j) or conv(a_k, a_l) among its edges.  A trivalent compatible
line whose vertices all induce point-saturated triangulations determines a
configuration: each vertex contributes the dual point of a triangle with
one corner in each class of the vertex's leaf partition (such a "rainbow"
triangle always exists), and those points form a general configuration
whose stable pencil is the line we started from.  The generality proof is
executable: the bipartite vertex/support graphs built from minimum
attainment are forests satisfying Hall's condition, so each maximal minor
has a unique optimal matching found by stripping leaves.

Degenerate quartets follow one fixed rule, kept isolated here: a segment
counts as a hull edge iff both endpoints are hull vertices, the segment
lies on the hull boundary, and the other two points sit weakly on one
side; for four collinear points, iff its endpoints are the two extremes or
adjacent in the collinear order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, islice

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
    cell_dual_point,
    is_maximal,
    regular_subdivision,
    secondary_cone_contains,
)
from .trees import EmbeddedLine, TreeTopology, embed, plucker_to_tree


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
    if _segment_is_edge(A.rs(i), A.rs(j), A.rs(k), A.rs(l)):
        return QuartetVerdict((i, j, k, l), True, f"conv(a_{i},a_{j})")
    if _segment_is_edge(A.rs(k), A.rs(l), A.rs(i), A.rs(j)):
        return QuartetVerdict((i, j, k, l), True, f"conv(a_{k},a_{l})")
    return QuartetVerdict((i, j, k, l), False, "both diagonals")


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


@lru_cache(maxsize=65536)
def _quartet_ok_cached(A: SupportSet, pair1: tuple, pair2: tuple) -> bool:
    return quartet_ok(A, pair1[0], pair1[1], pair2[0], pair2[1]).ok


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
    for _, side in topo.splits():
        comp = sorted(set(range(1, topo.n + 1)) - side)
        for i, j in combinations(sorted(side), 2):
            for k, l in combinations(comp, 2):
                if not _quartet_ok_cached(A, (i, j), (k, l)):
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
    line: the dual point of a rainbow triangle of the vertex's subdivision."""
    if len(L.topology.adj[v]) != 3:
        raise TropError(f"vertex {v} is not trivalent")
    cv = ProjPoint(L.coords[v])
    S = regular_subdivision(A, cv)
    if not is_maximal(S, "strict"):
        raise TropError(f"subdivision at vertex {v} is not strict-maximal")
    cell = rainbow_triangle(S, L.topology.leaf_partition(v))
    return cell_dual_point(A, cv, cell)


def vertex_fixed_points(L: EmbeddedLine, A: SupportSet) -> dict:
    """P_v for every vertex, after checking the full hypotheses."""
    if not L.topology.is_trivalent():
        raise TropError("hypotheses violated: line is not trivalent")
    verdict = is_compatible(L, A)
    if not verdict:
        raise TropError(f"hypotheses violated: incompatible, quartet {verdict.witness}")
    try:
        return {v: vertex_fixed_point(L, A, v) for v in L.topology.internal_nodes}
    except TropError as e:
        raise TropError(f"hypotheses violated: {e}") from e


def construct_configuration(L: EmbeddedLine, A: SupportSet) -> list:
    """The general configuration whose stable pencil is L (one point per
    trivalent vertex).  Self-verifies generality and the round trip."""
    points = list(vertex_fixed_points(L, A).values())
    verdict, p = solve_minors(A, points)
    if not verdict:
        raise TropError("verification failed: configuration is not general")
    if plucker_to_tree(p) != L:
        raise TropError("verification failed: stable pencil differs from input")
    return points


@dataclass(frozen=True)
class SupportGraph:
    """Bipartite graph between the vertices of a line and its support
    points: (w, l) is an edge iff term l attains the minimum of
    {c_l + a_l . P_w} at the base point c."""

    base: LinePoint
    vertex_ids: tuple
    n: int
    edges: frozenset  # pairs (vertex id, support index)

    def neighborhood(self, support_subset) -> frozenset:
        sub = set(support_subset)
        return frozenset(w for w, l in self.edges if l in sub)

    def component_count(self) -> int:
        nodes = [("w", w) for w in self.vertex_ids] + [
            ("a", l) for l in range(1, self.n + 1)
        ]
        return component_count(nodes, ((("w", w), ("a", l)) for w, l in self.edges))

    def is_forest(self) -> bool:
        # genus = |E| - |V| + components
        return len(self.edges) == len(self.vertex_ids) + self.n - self.component_count()


def support_graph(L: EmbeddedLine, A: SupportSet, c) -> SupportGraph:
    """The graph G_c for c a vertex (pass a node id or LinePoint) or any
    2-valent point of L."""
    if isinstance(c, int):
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
    adj = {("w", w): set() for w in G.vertex_ids}
    adj.update({("a", l): set() for l in range(1, G.n + 1) if l not in (i, j)})
    for w, l in G.edges:
        if l in (i, j):
            continue
        adj[("w", w)].add(("a", l))
        adj[("a", l)].add(("w", w))
    matching = {}
    alive = set(adj)
    while alive:
        leaf = next(
            (nd for nd in sorted(alive) if len(adj[nd] & alive) == 1), None
        )
        if leaf is None:
            raise TropError("no matching")
        (mate,) = adj[leaf] & alive
        pair = (leaf, mate) if leaf[0] == "w" else (mate, leaf)
        matching[pair[0][1]] = pair[1][1]
        alive.discard(leaf)
        alive.discard(mate)
    return matching


def _grow_types(n: int, m: int, adj: dict):
    if m > n:
        yield TreeTopology(n, adj)
        return
    z = n + m - 2  # next internal id: an m-leaf tree has m-2 internals
    edges = sorted((min(a, b), max(a, b)) for a in adj for b in adj[a] if a < b)
    for x, y in edges:
        adj2 = {v: set(nb) for v, nb in adj.items()}
        adj2[x].discard(y)
        adj2[y].discard(x)
        adj2[x].add(z)
        adj2[y].add(z)
        adj2[z] = {x, y, m}
        adj2[m] = {z}
        yield from _grow_types(n, m + 1, adj2)


def iter_types(n: int):
    """All trivalent leaf-labelled topologies on n leaves, lazily, by
    inserting each new leaf into every edge; (2n-5)!! in total, in a
    deterministic order."""
    if n < 3:
        raise ValueError("need at least 3 leaves")
    if n > 10:
        raise ValueError("type enumeration capped at n = 10")
    seed = {n + 1: {1, 2, 3}, 1: {n + 1}, 2: {n + 1}, 3: {n + 1}}
    yield from _grow_types(n, 4, seed)


_TYPES = {}  # n -> tuple of every type, for the small n used interactively


def enumerate_types(n: int) -> list:
    """iter_types as a list; cached for n <= 8."""
    if n > 8:
        return list(iter_types(n))
    if n not in _TYPES:
        _TYPES[n] = tuple(iter_types(n))
    return list(_TYPES[n])


def type_by_id(n: int, type_id: int):
    """The type at position type_id of iter_types(n), or None if there is
    none; read from the list enumerate_types caches for n <= 8."""
    if type_id < 0:
        return None
    if n <= 8:
        types = enumerate_types(n)
        return types[type_id] if type_id < len(types) else None
    return next(islice(iter_types(n), type_id, None), None)


def count_compatible(A: SupportSet) -> int:
    source = enumerate_types(A.n) if A.n <= 8 else iter_types(A.n)
    return sum(1 for T in source if is_compatible(T, A))


def squared_distance_heights(A: SupportSet) -> ProjPoint:
    heights = [A.rs(i)[0] ** 2 + A.rs(i)[1] ** 2 for i in A.indices()]
    return ProjPoint([Fraction(h) for h in heights] )


def find_strict_maximal_subdivision(
    A: SupportSet, seed: int = 0, max_draws: int = 64
) -> tuple:
    """A point-saturated triangulation of conv(A) with its height vector.

    The squared-distance lift keeps every point strictly on the lower hull
    except across cocircular flats, where it fails to triangulate; redraws
    add random rational jitter to it, shrinking the jitter geometrically so
    it drops below the lift's strict convexity gaps after a few draws.
    """
    base = squared_distance_heights(A)
    S = regular_subdivision(A, base)
    if is_maximal(S, "strict"):
        return S, base
    rng = random.Random(seed)
    scale = Fraction(1, 4)
    for _ in range(max_draws):
        c = ProjPoint(
            [h + Fraction(rng.randint(0, 2**20), 2**20) * scale for h in base.coords]
        )
        S = regular_subdivision(A, c)
        if is_maximal(S, "strict"):
            return S, c
        scale /= 2
    raise TropError(f"no strict-maximal subdivision found after {max_draws} draws")


def realize_type(
    A: SupportSet,
    T: TreeTopology,
    seed: int = 0,
    max_draws: int = 64,
    max_halvings: int = 64,
) -> EmbeddedLine:
    """An embedded line of the given compatible type whose vertices all
    stay inside one strict-maximal secondary cone (so the configuration
    constructor applies to it): anchor the type at the cone's height
    vector and shrink the edge lengths geometrically until every vertex
    induces the same triangulation."""
    verdict = is_compatible(T, A)
    if not verdict:
        raise TropError(f"not compatible: quartet {verdict.witness}")
    S, c = find_strict_maximal_subdivision(A, seed=seed, max_draws=max_draws)
    anchor = T.internal_nodes[0]
    eps = Fraction(1)
    for _ in range(max_halvings):
        lengths = {frozenset((a, b)): eps for a, b in T.internal_edges}
        L = embed(T, lengths, anchor, c)
        if all(
            secondary_cone_contains(A, S, ProjPoint(L.coords[v]))
            for v in T.internal_nodes
        ):
            return L
        eps /= 2
    raise TropError("edge lengths did not stabilize inside the secondary cone")
