"""Shared fixtures and random generators for the test suite.

The four named fixtures recur everywhere:

- SQ: the unit-square support {(0,0,2), (1,0,1), (0,1,1), (1,1,0)}
- LSQ: the line with split {1,3}|{2,4}, length 1, vertices (2,0,1,0)
  and (1,0,0,0); it is the stable pencil of CFG
- CFG: the configuration {(0,0,0), (2,1,0)}, general for SQ
- TRI: the triangle support of degree 1 (pencils of min-plus lines)

All randomness is seeded per test; generators live here so the many
differential suites draw from the same distributions.
"""

import io
import random
import sys
from fractions import Fraction
from itertools import combinations
from math import ceil

import pytest

from troppencil import ProjPoint, SupportSet, cli, plane
from troppencil.compat import type_by_id, type_count
from troppencil.core import component_count as core_component_count
from troppencil.pencil import LinePoint, SubtreeSet, fixed_locus_pieces, make_point
from troppencil.trees import TreeTopology, embed


@pytest.fixture
def SQ():
    return SupportSet(2, ((0, 0, 2), (1, 0, 1), (0, 1, 1), (1, 1, 0)))


@pytest.fixture
def TRI():
    return SupportSet(1, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))


@pytest.fixture
def TRI5():
    return SupportSet.from_rs(2, [(0, 0), (1, 0), (2, 0), (0, 1), (0, 2)])


@pytest.fixture
def HEX6():
    return SupportSet.from_rs(2, [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2)])


def make_lsq():
    topo = TreeTopology.from_splits(4, [frozenset({1, 3})])
    return embed(topo, {frozenset({1, 3}): Fraction(1)}, topo.node_of_leaf(2), (1, 0, 0, 0))


@pytest.fixture
def LSQ():
    return make_lsq()


@pytest.fixture
def CFG():
    return [ProjPoint((0, 0, 0)), ProjPoint((2, 1, 0))]


PRIMES = [p for p in range(2, 98) if all(p % q for q in range(2, p))]


def prime_rational(rng, primes=PRIMES):
    """A numerator in +-10^6 over a prime drawn from `primes`."""
    return Fraction(rng.randint(-10**6, 10**6), rng.choice(primes))


# pairwise coprime denominators, one of them beyond 10^12: a vector
# mixing them has a large common denominator and no shared factor to hide
# a scale applied to only some of its entries
COPRIME = (7, 11, 13, 10**12 + 39)


def coprime_rational(rng, span=10, positive=False):
    """A rational in [-span, span] (in (0, span] with `positive`) over a
    denominator drawn from COPRIME."""
    d = rng.choice(COPRIME)
    return Fraction(rng.randint(1 if positive else -span * d, span * d), d)


def rand_rational(rng, span=10, den=3):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def rand_proj_point(rng, span=10, den=3):
    return ProjPoint((rand_rational(rng, span, den), rand_rational(rng, span, den), 0))


def rand_config(rng, n, span=10, den=3):
    return [rand_proj_point(rng, span, den) for _ in range(n - 2)]


def rand_support(rng, n, degree=None):
    d = degree or (rng.choice([2, 3]) if n <= 6 else 3)
    pool = [(r, s) for r in range(d + 1) for s in range(d + 1 - r)]
    while True:
        pts = rng.sample(pool, n)
        try:
            return SupportSet.from_rs(d, pts)
        except ValueError:
            continue


def rand_topology(rng, n, contract_p=0.0):
    """A uniform random trivalent topology, then each split dropped with
    probability contract_p."""
    T = type_by_id(n, rng.randrange(type_count(n)))
    if contract_p > 0:
        kept = [s for s in T.split_set() if rng.random() >= contract_p]
        T = TreeTopology.from_splits(n, kept)
    return T


def rand_line(rng, n, span=10, contract_p=0.0):
    T = rand_topology(rng, n, contract_p)
    lengths = {
        frozenset(e): Fraction(rng.randint(1, 8), rng.randint(1, 3))
        for e in T.internal_edges
    }
    anchor = T.internal_nodes[rng.randrange(len(T.internal_nodes))]
    coords = tuple(rand_rational(rng, span, 2) for _ in range(n))
    return embed(T, lengths, anchor, coords)


def coprime_line(rng, n, contract_p=0.0):
    """A random line with anchor coordinates over 5 and edge lengths over
    7, so its vertex coordinates mix denominators 5, 7 and 35."""
    T = rand_topology(rng, n, contract_p)
    lengths = {frozenset(e): Fraction(rng.randint(1, 30), 7) for e in T.internal_edges}
    anchor = T.internal_nodes[rng.randrange(len(T.internal_nodes))]
    return embed(T, lengths, anchor, tuple(Fraction(rng.randint(-40, 40), 5) for _ in range(n)))


def mixed_line(rng, n, contract_p=0.0):
    """A random line whose edge lengths and anchor coordinates have
    denominators drawn from COPRIME, each on its own."""
    T = rand_topology(rng, n, contract_p)
    lengths = {frozenset(e): coprime_rational(rng, 8, positive=True) for e in T.internal_edges}
    anchor = T.internal_nodes[rng.randrange(len(T.internal_nodes))]
    return embed(T, lengths, anchor, tuple(coprime_rational(rng) for _ in range(n)))


def plant_line(rng, n, t):
    """A line with an m-valent vertex p forced into Pi(G, I) with
    |I - I_j| >= t for every component, so the whole line lies in Pi_t
    and p is the attachment point."""
    while True:
        T = rand_topology(rng, n, contract_p=0.3)
        p = T.internal_nodes[rng.randrange(len(T.internal_nodes))]
        parts = [sorted(s) for s in T.leaf_partition(p)]
        sizes = None
        for _ in range(64):
            trial = [rng.randint(0, len(part)) for part in parts]
            total = sum(trial)
            if all(total - a >= t for a in trial):
                sizes = trial
                break
        if sizes is None:
            if all(n - len(part) >= t for part in parts):
                sizes = [len(part) for part in parts]
            else:
                continue  # this vertex cannot support level t; redraw
        I = set()
        for part, k in zip(parts, sizes):
            I |= set(rng.sample(part, k))
        coords = [Fraction(0)] * n
        for i in range(1, n + 1):
            if i not in I:
                coords[i - 1] = Fraction(rng.randint(0, 9), rng.randint(1, 2))
        lengths = {
            frozenset(e): Fraction(rng.randint(1, 6), rng.randint(1, 2))
            for e in T.internal_edges
        }
        return embed(T, lengths, p, tuple(coords)), p, frozenset(I)


def skeleton_bound(m: int, t: int) -> int:
    return ceil(Fraction(m * t, m - 1))


# ---------------------------------------------------------------------------
# references for the skeleton tests; the library itself never needs them


def point_valence(G, p) -> int:
    return len(G.topology.adj[p.loc]) if p.kind == "vertex" else 2


def locus_contains(cells, P) -> bool:
    """P satisfies the closed linear description of one of the cells."""
    x, y = P[0], P[1]
    return any(
        all(plane.evaluate(f, x, y) == 0 for f in c.equalities)
        and all(plane.evaluate(f, x, y) >= 0 for f in c.inequalities)
        for c in cells
    )


def locus_points(L, A) -> list:
    """The point pieces and the segment and ray ends of the fixed locus."""
    out = []
    for g in fixed_locus_pieces(L, A):
        if isinstance(g, plane.PointGeom):
            out.append((g.x, g.y))
        elif isinstance(g, plane.SegmentGeom):
            out += [g.start, g.end]
        elif isinstance(g, plane.RayGeom):
            out.append(g.origin)
    return [ProjPoint((x, y, 0)) for x, y in out]


def locus_draw(rng, L, A) -> list | None:
    """n - 2 distinct points drawn from the fixed locus of L: the point
    pieces, a segment's ends and its points at 1/3 and 2/3, a ray's
    origin and the next three lattice steps along it, four lattice steps
    of a full line.  None when the locus offers fewer."""
    pool = []
    for g in fixed_locus_pieces(L, A):
        if isinstance(g, plane.PointGeom):
            pool.append((g.x, g.y))
        elif isinstance(g, plane.SegmentGeom):
            (x0, y0), (x1, y1) = g.start, g.end
            pool += [(x0 + (x1 - x0) * Fraction(t, 3), y0 + (y1 - y0) * Fraction(t, 3)) for t in range(4)]
        else:
            (x0, y0), (dx, dy) = g.origin, g.direction
            ts = range(4) if isinstance(g, plane.RayGeom) else range(-2, 2)
            pool += [(x0 + t * dx, y0 + t * dy) for t in ts]
    pool = sorted(set(pool))
    if len(pool) < A.n - 2:
        return None
    return [ProjPoint((x, y, 0)) for x, y in rng.sample(pool, A.n - 2)]


def full_set(G) -> SubtreeSet:
    return SubtreeSet(
        G,
        set(G.topology.internal_nodes),
        {(a, b): (Fraction(0), ell) for a, b, _, ell in G.branches},
    )


def subtree_spanning(G, I) -> SubtreeSet:
    """The minimal subtree of G containing the leaves in I (full rays
    plus the connecting paths)."""
    I = sorted(set(I))
    if not I:
        return SubtreeSet(G)
    topo = G.topology
    verts = {topo.node_of_leaf(i) for i in I}
    iv = {(topo.node_of_leaf(i), i): (Fraction(0), None) for i in I}
    for i, j in combinations(I, 2):
        path = topo.path(topo.node_of_leaf(i), topo.node_of_leaf(j))
        verts.update(path)
        for a, b in zip(path, path[1:]):
            key = (a, b) if a < b else (b, a)
            iv[key] = (Fraction(0), G.edge(key)[3])
    return SubtreeSet(G, verts, iv)


def subtree_intersection(S: SubtreeSet, T: SubtreeSet) -> SubtreeSet:
    iv = {}
    for key in S.iv.keys() & T.iv.keys():
        lo = max(S.iv[key][0], T.iv[key][0])
        his = [h for h in (S.iv[key][1], T.iv[key][1]) if h is not None]
        hi = min(his) if his else None
        if hi is None or lo <= hi:
            iv[key] = (lo, hi)
    # vertices only survive when both sets carry them
    return SubtreeSet(S.line, S.vertices & T.vertices, iv)


def finite_points(S: SubtreeSet) -> list | None:
    """All points of S when it is finite, None when it holds a segment."""
    if any(lo != hi for lo, hi in S.iv.values()):
        return None
    # a one-point interval lies inside its branch: SubtreeSet keeps no lone end
    pts = [LinePoint("vertex", v) for v in sorted(S.vertices)]
    return pts + [make_point(S.line, key, lo) for key, (lo, _) in sorted(S.iv.items())]


def component_count(S: SubtreeSet) -> int:
    """Connected components of S: an interval joins the vertex at each of
    its ends that it reaches."""
    items = [("v", v) for v in S.vertices] + [("b", k) for k in S.iv]
    links = []
    for key, (lo, hi) in S.iv.items():
        a, b, _, ell = S.line.edge(key)
        if lo == 0 and a in S.vertices:
            links.append((("b", key), ("v", a)))
        if ell is not None and hi == ell and b in S.vertices:
            links.append((("b", key), ("v", b)))
    return core_component_count(items, links)


def edge_lengths(L) -> dict:
    """Lattice length per split of L (keyed by the side without leaf n)."""
    return {side: L.edge(e)[3] for e, side in L.topology.splits()}


def neighborhood(G, support_subset) -> frozenset:
    """The vertices of the support graph G adjacent to a support subset."""
    sub = set(support_subset)
    return frozenset(w for w, l in G.edges if l in sub)


def run_in_process(argv, text):
    """`cli.main(argv)` with `text` on stdin: (exit code, stdout,
    stderr).  Any exception that escapes `main` fails the caller, just as
    a traceback fails `test_cli.run_cli`."""
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin = io.StringIO(text)
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    try:
        code = cli.main(argv)
        return code, sys.stdout.getvalue(), sys.stderr.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
