import random
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import (
    component_count,
    coprime_line,
    edge_lengths,
    finite_points,
    full_set,
    locus_contains,
    locus_points,
    make_lsq,
    plant_line,
    point_valence,
    rand_config,
    rand_line,
    rand_proj_point,
    rand_support,
    rand_topology,
    skeleton_bound,
    subtree_intersection,
    subtree_spanning,
)
from troppencil import plane
from troppencil.compat import compatible_types, realize_type
from troppencil.core import ProjPoint, SupportSet, TropError, min_profile
from troppencil.jsonio import line_from_json, line_to_json
from troppencil.oracle import brute_fixed_locus, sampled_fixed
from troppencil.pencil import (
    LinePoint,
    coords_at,
    fixed_locus,
    fixed_locus_pieces,
    is_fixed,
    leaf_partition_at,
    make_point,
    pi_attachment,
    pi_gamma,
    pi_gamma_location,
    pi_set,
    shifted_line,
    skeleton_level,
)
from troppencil.stable import curves_through, stable_pencil
from troppencil.trees import EmbeddedLine, TreeTopology, embed, plucker_to_tree, tree_to_plucker


def test_shifted_line(SQ):
    L = make_lsq()
    G = shifted_line(L, SQ, ProjPoint((2, 1, 0)))
    assert G.topology == L.topology
    assert edge_lengths(G) == edge_lengths(L)
    u = L.topology.node_of_leaf(1)
    assert ProjPoint(G.coords[u]) == ProjPoint((3, 3, 3, 4))


def test_is_fixed_examples(SQ):
    L = make_lsq()
    assert is_fixed(L, SQ, ProjPoint((0, 0, 0)))
    assert is_fixed(L, SQ, ProjPoint((2, 1, 0)))
    assert not is_fixed(L, SQ, ProjPoint((5, 5, 0)))


def test_fixed_locus_square(SQ):
    L = make_lsq()
    pieces = fixed_locus_pieces(L, SQ)
    assert pieces == [
        plane.PointGeom(Fraction(0), Fraction(0)),
        plane.PointGeom(Fraction(2), Fraction(1)),
    ]
    cells = fixed_locus(L, SQ)
    assert locus_contains(cells, ProjPoint((0, 0, 0)))
    assert locus_contains(cells, ProjPoint((2, 1, 0)))
    assert not locus_contains(cells, ProjPoint((1, 1, 0)))


def test_fixed_locus_star_triangle(TRI):
    c = (Fraction(5), Fraction(-2, 3), Fraction(1))
    L = embed(TreeTopology.star(3), {}, 4, c)
    pieces = fixed_locus_pieces(L, TRI)
    assert pieces == [plane.PointGeom(-c[0] + c[2], -c[1] + c[2])]


def test_fixed_locus_cell_counts_square(SQ):
    # this support always gives 1, 2 or infinitely many fixed points
    rng = random.Random(31)
    for _ in range(60):
        L = rand_line(rng, 4)
        pieces = fixed_locus_pieces(L, SQ)
        n_points = sum(isinstance(g, plane.PointGeom) for g in pieces)
        if n_points == len(pieces):
            assert n_points in (1, 2)
        else:
            assert len(pieces) >= 1  # an infinite piece is present


def test_locus_cells_match_membership():
    rng = random.Random(32)
    for _ in range(120):
        n = rng.randint(4, 6)
        L = rand_line(rng, n)
        A = rand_support(rng, n)
        cells = fixed_locus(L, A)
        # membership of the enumerated locus is exactly is_fixed
        for _ in range(6):
            P = ProjPoint(
                (Fraction(rng.randint(-8, 8), rng.randint(1, 2)),
                 Fraction(rng.randint(-8, 8), rng.randint(1, 2)), 0)
            )
            assert locus_contains(cells, P) == is_fixed(L, A, P)
        # and every cell's geometry witnesses fixed points
        for cell in cells:
            g = cell.geometry
            if isinstance(g, plane.PointGeom):
                samples = [(g.x, g.y)]
            elif isinstance(g, plane.SegmentGeom):
                samples = [g.start, g.end,
                           tuple((a + b) / 2 for a, b in zip(g.start, g.end))]
            elif isinstance(g, plane.RayGeom):
                samples = [g.origin,
                           tuple(o + 3 * d for o, d in zip(g.origin, g.direction))]
            else:
                samples = [g.origin]
            for x, y in samples:
                assert is_fixed(L, A, ProjPoint((x, y, 0)))


def _two_pair_point(A, c, i, j, k, l):
    """The single point of TP^2 where terms i, j, k, l of the vertex with
    coordinates c all tie (T_i = T_j, T_k = T_l, T_i = T_k), or None."""

    def row(p, q):
        (rp, sp, _), (rq, sq, _) = A.point(p), A.point(q)
        return (rp - rq, sp - sq, c[p - 1] - c[q - 1])

    rows = [row(i, j), row(k, l), row(i, k)]
    for f, g in combinations(rows, 2):
        det = f[0] * g[1] - f[1] * g[0]
        if det:
            x = Fraction(f[1] * g[2] - g[1] * f[2], det)
            y = Fraction(g[0] * f[2] - f[0] * g[2], det)
            if all(h[0] * x + h[1] * y + h[2] == 0 for h in rows):
                return ProjPoint((x, y, 0))
            return None
    return None  # three parallel lines: no isolated point


def test_vertex_two_pair_points_in_locus():
    # fixed_locus has no loop for two leaf pairs in two components at a
    # vertex: the edge cells must hold those isolated points, which random
    # query points almost never hit
    rng = random.Random(41)
    fixed = 0
    for m in range(150):
        n = 4 + m % 5
        if m % 3 == 2:  # integer grid
            T = rand_topology(rng, n)
            lengths = {frozenset(e): Fraction(rng.randint(1, 4)) for e in T.internal_edges}
            L = embed(T, lengths, T.internal_nodes[0], tuple(rng.randint(-4, 4) for _ in range(n)))
        else:  # random, or contracted
            L = rand_line(rng, n, contract_p=0.4 * (m % 3))
        A = rand_support(rng, n)
        cells = fixed_locus(L, A)
        assert all(
            len(c.indices) == 3 and len(c.equalities) == 2 for c in cells if c.witness[0] == "vertex"
        )
        for v in L.topology.internal_nodes:
            for pa, pb in combinations(L.topology.leaf_partition(v), 2):
                for i, j in combinations(sorted(pa), 2):
                    for k, l in combinations(sorted(pb), 2):
                        P = _two_pair_point(A, L.coords[v], i, j, k, l)
                        if P is not None and sampled_fixed(L, A, P):
                            fixed += 1
                            assert locus_contains(cells, P)
    assert fixed >= 5


def test_cells_keep_the_line_units():
    # fixed_locus solves each system on D times its forms; the cells it
    # returns hold the forms themselves, read off the line's coordinates
    rng = random.Random(44)
    counts = {"vertex": 0, "edge": 0}
    for m in range(80):
        n = 4 + m % 5
        L = coprime_line(rng, n, contract_p=0.4 * (m % 2))
        A = rand_support(rng, n)
        for cell in fixed_locus(L, A):
            kind, loc = cell.witness[:2]
            x = L.coords[loc if kind == "vertex" else loc[0]]

            def diff(p, q):
                (rp, sp, _), (rq, sq, _) = A.point(p), A.point(q)
                return (rp - rq, sp - sq, x[p - 1] - x[q - 1])

            counts[kind] += 1
            if kind == "vertex":
                i, j, k = cell.indices
                assert cell.equalities == (diff(i, j), diff(j, k))
                assert cell.inequalities == tuple(diff(t, i) for t in A.indices())
            else:
                i, j, k, l = cell.indices
                tform = diff(k, i)
                assert cell.witness[2] == tform
                assert cell.equalities == (diff(i, j), diff(k, l))
                ell = L.edge(loc)[3]
                assert cell.inequalities[-2:] == (tform, (-tform[0], -tform[1], ell - tform[2]))
    assert counts["vertex"] >= 100 and counts["edge"] >= 20


def _record_solves(monkeypatch) -> list:
    """Route plane.solve through a recorder of (eqs, ineqs, geometry)."""
    calls, solve = [], plane.solve

    def recorded(eqs, ineqs):
        geom = solve(eqs, ineqs)
        calls.append((eqs, ineqs, geom))
        return geom

    monkeypatch.setattr(plane, "solve", recorded)
    return calls


def _one_line(eqs) -> bool:
    """Whether the two equalities describe the same line of the plane."""
    f, g = eqs
    return all(f[p] * g[q] == f[q] * g[p] for p, q in combinations(range(3), 2))


def _survivors(calls) -> list:
    """The systems of the brute enumeration that pass the integer test:
    the feasible ones, and those whose equalities are one line."""
    return [(eqs, ineqs) for eqs, ineqs, geom in calls if geom is not None or _one_line(eqs)]


def test_fixed_locus_solves_only_survivors(monkeypatch):
    # plane.solve sees exactly the survivors of the integer test, in the
    # brute enumeration's order: no infeasible system and no feasible one lost
    calls = _record_solves(monkeypatch)
    rng = random.Random(46)
    for m in range(60):
        n = 4 + m % 7
        L = rand_line(rng, n, contract_p=0.4 * (m % 3))
        A = rand_support(rng, n)
        brute = brute_fixed_locus(L, A)
        survivors = _survivors(calls)
        calls.clear()
        assert fixed_locus(L, A) == brute
        assert [(eqs, ineqs) for eqs, ineqs, _ in calls] == survivors
        calls.clear()
    for _ in range(2):
        L, A = rand_line(rng, 15), rand_support(rng, 15, 5)
        brute = brute_fixed_locus(L, A)
        brute_calls, survivors = len(calls), len(_survivors(calls))
        calls.clear()
        fixed_locus(L, A)
        assert len(calls) == survivors and 5 * len(calls) <= brute_calls
        calls.clear()


def test_fixed_locus_coincident_lines_and_repeated_points(SQ, monkeypatch):
    # the segment comes from an edge system whose equalities are one line;
    # two of the five surviving systems repeat a vertex cell's point
    L = stable_pencil(SQ, [ProjPoint((0, 0, 0)), ProjPoint((0, 1, 0))])
    calls = _record_solves(monkeypatch)
    cells = fixed_locus(L, SQ)
    assert len(calls) == 5 and all(geom is not None for _, _, geom in calls)
    F = Fraction
    assert [(c.witness, c.indices, c.geometry) for c in cells] == [
        (("vertex", 5), (1, 3, 4), plane.PointGeom(F(0), F(0))),
        (("vertex", 6), (1, 2, 3), plane.PointGeom(F(0), F(1))),
        (
            ("edge", (5, 6), (F(0), F(1), F(0))),
            (1, 2, 3, 4),
            plane.SegmentGeom((F(0), F(0)), (F(0), F(1))),
        ),
    ]
    # a ray cell: three collinear support points make a vertex system's
    # equalities one line
    A = SupportSet(2, ((0, 1, 1), (1, 0, 1), (2, 0, 0), (0, 0, 2)))
    L = embed(TreeTopology.star(4), {}, 5, (5, -4, -2, -6))
    assert [(c.witness, c.indices, c.geometry) for c in fixed_locus(L, A)] == [
        (("vertex", 5), (1, 2, 3), plane.PointGeom(F(-2), F(-11))),
        (("vertex", 5), (2, 3, 4), plane.RayGeom((F(-2), F(-11)), (0, 1))),
    ]


def test_support_size_must_match_leaf_count(TRI, TRI5):
    L = make_lsq()
    for A in (TRI, TRI5):
        with pytest.raises(ValueError, match="support size and leaf count differ"):
            is_fixed(L, A, ProjPoint((0, 0, 0)))
        with pytest.raises(ValueError, match="support size and leaf count differ"):
            fixed_locus(L, A)


@pytest.mark.parametrize("coords", [(0, 0, 5, 0), (1, 0)])
def test_shift_point_must_lie_in_tp2(SQ, coords):
    # a point of TP^3 or TP^1 used to fail to unpack into (x, y, 0)
    L, P = make_lsq(), ProjPoint(coords)
    for query in (is_fixed, shifted_line):
        with pytest.raises(ValueError) as info:
            query(L, SQ, P)
        assert str(info.value) == f"P has {len(coords)} coordinates, not 3"


def test_pi_set_examples(SQ):
    L = make_lsq()
    w = L.topology.node_of_leaf(2)
    # coordinates 2 and 3 are both minimal exactly on {w} union ray 4
    S = pi_set(L, {2, 3})
    assert S.vertices == frozenset({w})
    assert S.iv == {(w, 4): (Fraction(0), None)}
    assert pi_set(L, {1}).is_empty()
    assert pi_set(L, []) == full_set(L)


def test_leaf_indices_outside_range():
    # index 0 would read coordinate n through q[-1], n + 2 past the row
    L = rand_line(random.Random(0), 5)
    for bad in (0, -1, 6, 7):
        for f in (pi_set, pi_attachment):
            for I in ({bad}, {2, bad}):
                with pytest.raises(ValueError, match=rf"leaf index {bad} is outside 1\.\.5"):
                    f(L, I)


def test_pi_set_connected_random():
    rng = random.Random(33)
    for _ in range(40):
        n = rng.randint(4, 6)
        G, p, I = plant_line(rng, n, rng.randint(1, 2))
        for size in range(1, n + 1):
            for _ in range(4):
                J = frozenset(rng.sample(range(1, n + 1), size))
                S = pi_set(G, J)
                assert component_count(S) <= 1
                if size < 2:
                    # the subtree spanned by one leaf is its whole ray, and
                    # the overlap may legitimately be a segment of it
                    continue
                inter = subtree_intersection(subtree_spanning(G, J), S)
                pts = finite_points(inter)
                assert pts is not None and len(set(pts)) <= 1


def test_pi_gamma_examples(SQ):
    L = make_lsq()
    assert pi_gamma(L) == ProjPoint((1, 0, 0, 0))
    G = shifted_line(L, SQ, ProjPoint((2, 1, 0)))
    u = L.topology.node_of_leaf(1)
    assert pi_gamma_location(G) == LinePoint("vertex", u)
    assert pi_gamma(G) == ProjPoint(G.coords[u])
    star = embed(TreeTopology.star(3), {}, 4, (0, 0, 0))
    assert pi_gamma(star) == ProjPoint((0, 0, 0))


def test_pi_gamma_requires_pi2():
    rng = random.Random(34)
    L = rand_line(rng, 5)
    if skeleton_level(L) < 2:
        with pytest.raises(TropError, match="not in Pi_2"):
            pi_gamma(L)


def test_skeleton_level_examples(SQ):
    L = make_lsq()
    assert skeleton_level(L) == 2
    star = embed(TreeTopology.star(3), {}, 4, (0, 0, 0))
    assert skeleton_level(star) == 2
    rng = random.Random(35)
    generic = rand_line(rng, 5)
    assert skeleton_level(generic) == 1


def test_planting_forces_level_and_attachment():
    rng = random.Random(36)
    for _ in range(40):
        n = rng.randint(4, 7)
        t = rng.randint(1, 3)
        G, p, I = plant_line(rng, n, t)
        assert skeleton_level(G) >= t
        assert pi_attachment(G, I) == LinePoint("vertex", p)


def test_skeleton_bound_at_attachment():
    rng = random.Random(37)
    for _ in range(40):
        n = rng.randint(4, 7)
        G, p, I = plant_line(rng, n, rng.randint(1, 3))
        t = skeleton_level(G)
        imax = [i for i in range(1, n + 1) if not pi_set(G, {i}).is_empty()]
        pi = pi_attachment(G, imax)
        m = point_valence(G, pi)
        mult = min_profile(coords_at(G, pi)).multiplicity
        assert mult >= skeleton_bound(m, t)
        # the two specializations used for the fixed-point argument
        if t == 2:
            assert mult >= (4 if m == 2 else 3)


def _samples(G):
    """Every vertex of G, every point of an edge or ray where two
    coordinates cross, and the midpoints between consecutive ones (on a
    ray, up to a point past its last crossing).  Between crossings the
    argmin does not change, so these points meet every regime."""
    n = G.n
    pts = [LinePoint("vertex", v) for v in G.topology.internal_nodes]
    walks = [("edge", (a, b), G.coords[a], side, ell) for a, b, side, ell in G.edges]
    walks += [("ray", (v, i), G.coords[v], {i}, None) for v, i in G.rays]
    for kind, key, q, side, ell in walks:
        cross = {q[k - 1] - q[i - 1] for i in side for k in range(1, n + 1) if k not in side}
        ts = sorted({t for t in cross if t > 0 and (ell is None or t < ell)} | {0})
        ts.append(ts[-1] + 2 if ell is None else ell)
        params = ts[1:-1] + [(s + t) / 2 for s, t in zip(ts, ts[1:])]
        pts += [LinePoint(kind, key, Fraction(t)) for t in params]
    return pts


def _holds(S, p):
    if p.kind == "vertex":
        return p.loc in S.vertices
    iv = S.iv.get(p.loc)
    return iv is not None and iv[0] <= p.t and (iv[1] is None or p.t <= iv[1])


def _grid_line(rng, n):
    """A line with integer lengths and coordinates, so coordinates tie often."""
    T = rand_topology(rng, n, contract_p=rng.choice([0, 0.4]))
    lengths = {frozenset(e): Fraction(rng.randint(1, 3)) for e in T.internal_edges}
    return embed(T, lengths, T.internal_nodes[0], tuple(rng.randint(-3, 3) for _ in range(n)))


def test_readers_match_sampled_argmins():
    # skeleton_level, pi_set and pi_gamma_location against the argmin at
    # sample points: on random lines, planted lines at levels 1..3, and
    # translates of stable pencils and integer-grid lines by fixed points
    rng = random.Random(43)
    lines = []
    for m in range(30):
        n = rng.randint(4, 7)
        lines.append(rand_line(rng, n, contract_p=rng.choice([0, 0.4])))
        lines.append(plant_line(rng, n, 1 + m % 3)[0])
        A, C = rand_support(rng, n), rand_config(rng, n)
        L = stable_pencil(A, C)
        lines += [shifted_line(L, A, P) for P in C[:2]]
        L = _grid_line(rng, n)
        lines += [shifted_line(L, A, P) for P in locus_points(L, A)[:2]]
    fixed = 0
    levels = set()
    for G in lines:
        n = G.n
        samples = _samples(G)
        argmins = [min_profile(coords_at(G, p)).argmin for p in samples]
        level = skeleton_level(G)
        assert level == min(len(m) for m in argmins)
        levels.add(level)
        subsets = [frozenset(rng.sample(range(1, n + 1), rng.randint(0, n))) for _ in range(4)]
        subsets += [rng.choice(argmins) for _ in range(4)]
        for I in subsets:
            S = pi_set(G, I)
            assert [_holds(S, p) for p in samples] == [I <= m for m in argmins]
        if level >= 2:
            fixed += 1
            assert pi_gamma_location(G) == pi_attachment(G, frozenset().union(*argmins))
        else:
            with pytest.raises(TropError, match="not in Pi_2"):
                pi_gamma_location(G)
    assert fixed >= 100 and levels >= {1, 2, 3}


def test_skeleton_level_at_tied_leaf_rays():
    # A vertex decides the level on its own except on a leaf ray whose
    # coordinate ties for the minimum there (t* = 0): beyond the vertex
    # that coordinate drops out of the argmin.
    star = TreeTopology.star(4)  # one contracted vertex of valence 4
    T = TreeTopology.from_splits(5, [frozenset({1, 2})])
    w = T.node_of_leaf(3)  # valence 4: leaves 3, 4, 5 and the edge to 1, 2
    cases = [
        (embed(star, {}, 5, (0, 0, 5, 5)), 1),  # argmin {1, 2}, leaf 1 at it
        (embed(star, {}, 5, (0, 0, 0, 5)), 2),  # argmin {1, 2, 3}
        (embed(star, {}, 5, (0, 0, 0, 0)), 3),
        (embed(T, {frozenset({1, 2}): 2}, w, (1, 1, 0, 0, 5)), 1),
        (embed(T, {frozenset({1, 2}): 2}, w, (1, 1, 0, 0, 0)), 2),
        (embed(T, {frozenset({1, 2}): 2}, w, (1, 1, 3, 0, 0)), 1),
    ]
    for G, want in cases:
        vertex_counts = [min_profile(G.coords[v]).multiplicity for v in G.topology.internal_nodes]
        assert min(vertex_counts) > want  # only the rays bring the level down
        assert skeleton_level(G) == want
        assert want == min(min_profile(coords_at(G, p)).multiplicity for p in _samples(G))


def test_curves_through_is_fixedness():
    # every curve of L passes through P exactly when P is fixed for L
    rng = random.Random(45)
    verdicts = []
    for m in range(60):
        n = rng.randint(4, 7)
        A = rand_support(rng, n)
        if m % 3 == 0:
            C = rand_config(rng, n)
            L = stable_pencil(A, C)
            if m % 2:  # one point moved off the pencil's base locus, most likely
                C[0] = rand_config(rng, 3)[0]
        else:  # locus points first, then random points to fill up
            L = _grid_line(rng, n) if m % 3 == 2 else rand_line(rng, n, contract_p=0.4 * (m % 2))
            C = (locus_points(L, A) + rand_config(rng, n))[: n - 2]
        verdict = curves_through(A, C, L)
        assert verdict == all(sampled_fixed(L, A, P) for P in C)
        verdicts.append(verdict)
    assert 10 <= sum(verdicts) <= 50


def test_attachment_unique_across_subsets():
    rng = random.Random(38)
    for _ in range(12):
        n = rng.randint(4, 5)
        G, p, I = plant_line(rng, n, 2)
        points = set()
        for mask in range(1, 2 ** n):
            J = frozenset(i + 1 for i in range(n) if mask >> i & 1)
            S = pi_set(G, J)
            if S.is_empty():
                continue
            points.add(pi_attachment(G, J))
        assert points == {LinePoint("vertex", p)}


def test_make_point_on_every_branch():
    # one path for edges and rays: the point at t on branch (a, b) sits at
    # coords[a] + t * e_side in TP^(n-1) (the raw lift of a vertex may differ
    # by a multiple of (1, ..., 1)), and the ends come back as vertices
    rng = random.Random(44)
    for n in range(4, 10):
        for _ in range(4):
            G = rand_line(rng, n, contract_p=rng.choice([0, 0.4]))
            for a, b, side, ell in G.branches:
                for t in (0, 1, 7) if ell is None else (0, ell / 3, ell):
                    p = make_point(G, (a, b), t)
                    assert ProjPoint(coords_at(G, p)) == ProjPoint(
                        [x + (t if i in side else 0) for i, x in enumerate(G.coords[a], 1)]
                    )
                    if t == 0:
                        assert p == LinePoint("vertex", a)
                    elif t == ell:
                        assert p == LinePoint("vertex", b)
                    else:
                        assert p == LinePoint("ray" if ell is None else "edge", (a, b), t)
                with pytest.raises(ValueError, match="out of range"):
                    make_point(G, (a, b), -1 if ell is None else ell + 1)
                # a reversed branch is no branch of G
                with pytest.raises(KeyError):
                    make_point(G, (b, a), 1)
            v = G.topology.node_of_leaf(1)
            for w in G.topology.internal_nodes:
                if w != v:  # leaf 1 hangs off v alone
                    with pytest.raises(KeyError):
                        make_point(G, (w, 1), 1)


def test_branches_partition_line():
    rng = random.Random(39)
    for _ in range(15):
        n = rng.randint(4, 6)
        L = rand_line(rng, n)
        spots = [LinePoint("vertex", L.topology.internal_nodes[0])]
        a, b, side, ell = L.edges[0] if L.edges else (None, None, None, None)
        if a is not None:
            spots.append(LinePoint("edge", (a, b), ell / 3))
        spots.append(LinePoint("ray", L.rays[0], Fraction(2)))
        for p in spots:
            parts = leaf_partition_at(L, p)
            leaves = [l for ls in parts for l in ls]
            assert sorted(leaves) == list(range(1, n + 1))
            assert len(parts) == point_valence(L, p)


def test_attachment_off_vertices():
    # planted lines attach at vertices; these attach inside an edge or a ray
    T = TreeTopology.from_splits(4, [frozenset({1, 3})])
    L = embed(T, {frozenset({1, 3}): Fraction(2)}, T.node_of_leaf(2), (0, 0, 0, 0))
    G = L.translate((-3, -2, -3, 0))
    x = LinePoint("edge", (5, 6), Fraction(1))
    assert pi_attachment(G, {1}) == x
    assert pi_set(G, {1, 2}).vertices == frozenset()
    assert pi_attachment(G, {1, 2}) == x
    G = make_lsq().translate((-2, -2, -1, 0))
    x = LinePoint("ray", (5, 2), Fraction(1))
    assert pi_set(G, {1}).iv == {(5, 2): (Fraction(1), None)}
    assert pi_attachment(G, {1}) == x
    assert pi_attachment(G, {1, 2}) == x


def test_stable_pencil_points_are_fixed(SQ):
    rng = random.Random(40)
    for _ in range(30):
        C = rand_config(rng, 4)
        L = stable_pencil(SQ, C)
        cells = fixed_locus(L, SQ)
        for P in C:
            assert is_fixed(L, SQ, P)
            assert locus_contains(cells, P)


def test_canonical_pieces_rational_spans():
    third = plane.SegmentGeom((0, 0), (Fraction(1, 3), 0))
    assert plane.canonical_pieces([third]) == [third]
    slanted = plane.SegmentGeom((0, 0), (Fraction(3, 2), Fraction(1, 2)))
    assert plane.canonical_pieces([slanted]) == [slanted]
    # the two halves of a rational segment merge back into it
    halves = [
        plane.SegmentGeom((0, 0), (Fraction(3, 4), Fraction(1, 4))),
        plane.SegmentGeom((Fraction(3, 4), Fraction(1, 4)), (Fraction(3, 2), Fraction(1, 2))),
    ]
    assert plane.canonical_pieces(halves) == [slanted]


def test_fast_path_builds_no_leaf_sets(monkeypatch, SQ):
    # leaf sets stay bitmasks from the JSON line to the fixed locus, the
    # translates, Pi(G, I), pi_gamma, the pair vector's tree and realized
    # types: no frozenset view of a topology or a branch table is read
    calls = []

    def counted(name, f):
        def wrapper(*args):
            calls.append(name)
            return f(*args)

        return wrapper

    for name in ("_leaves", "leaf_partition", "leaves_beyond"):
        monkeypatch.setattr(TreeTopology, name, counted(name, getattr(TreeTopology, name)))
    monkeypatch.setattr(EmbeddedLine, "edge", counted("edge", EmbeddedLine.edge))
    for name in ("branches", "edges"):
        monkeypatch.setattr(EmbeddedLine, name, property(counted(name, getattr(EmbeddedLine, name).fget)))

    rng = random.Random(61)
    cases = [(SQ, make_lsq(), None)]
    for n in (5, 6, 7, 8):
        A = rand_support(rng, n)
        T = next((T for _, T in compatible_types(A)), None)
        cases += [(A, rand_line(rng, n, contract_p=p), T) for p in (0, 0.4)]
    runs = []
    for A, L, T in cases:
        points = locus_points(L, A)[:4] + [rand_proj_point(rng) for _ in range(4)]
        runs.append((A, line_to_json(L), tree_to_plucker(L), points, T))
    calls.clear()
    gammas = realized = 0
    for A, obj, p, points, T in runs:
        L = line_from_json(obj, A.n)
        fixed_locus(L, A)
        for P in points:
            G = shifted_line(L, A, P)
            if is_fixed(L, A, P):
                pi_gamma(G)
                gammas += 1
            for I in ((), (1,), range(1, A.n + 1)):
                try:
                    pi_attachment(G, I)
                except TropError:
                    pass
        line_to_json(plucker_to_tree(p))
        if T is not None:
            line_to_json(realize_type(A, T))
            realized += 1
    assert calls == [] and gammas > 10 and realized > 2
    L.edge(L.rays[0])  # the counters do count the views
    assert calls == ["edge", "_leaves"]
