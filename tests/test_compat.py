import json
import random
import re
from fractions import Fraction
from itertools import combinations, islice, permutations

import pytest

from conftest import make_lsq, neighborhood, rand_config, rand_line, rand_support, rand_topology, run_in_process
from troppencil import compat
from troppencil.compat import (
    _unit_offsets,
    compatible_types,
    construct_configuration,
    count_compatible,
    enumerate_types,
    find_strict_maximal_subdivision,
    is_compatible,
    iter_types,
    quartet_ok,
    rainbow_triangle,
    realize_type,
    support_graph,
    type_by_id,
    type_count,
    unique_matching,
    vertex_fixed_point,
    vertex_fixed_points,
)
from troppencil.core import ProjPoint, SupportSet, TropError, clear_denominators, orient2d
from troppencil.pencil import LinePoint
from troppencil.stable import is_general, minor_tropdet, solve_minors, stable_pencil, value_matrix
from troppencil.jsonio import line_from_json, line_to_json
from troppencil.oracle import brute_vertex_fixed_points, squared_distance_heights
from troppencil.subdivision import (
    _cone_bound,
    cell_dual_point,
    is_maximal,
    regular_subdivision,
    secondary_cone_contains,
)
from troppencil.trees import TreeTopology, embed, plucker_to_tree, tree_to_plucker


def test_quartet_examples(SQ):
    assert quartet_ok(SQ, 1, 2, 3, 4).ok
    v = quartet_ok(SQ, 1, 4, 2, 3)
    assert not v.ok and v.reason == "both diagonals"
    assert quartet_ok(SQ, 1, 3, 2, 4).ok


def test_quartet_refuses_indices_outside_the_support(SQ):
    # index 0 used to stand for a_4, so this judged the quartet 4, 1, 2, 3
    with pytest.raises(ValueError, match=r"support index 0 is not in 1\.\.4"):
        quartet_ok(SQ, 0, 1, 2, 3)


def test_quartet_degenerate_rules(TRI5):
    # 1=(0,0) 2=(1,0) 3=(2,0) 4=(0,1) 5=(0,2)
    # occupied segment: 2 sits inside conv(a_1, a_3)
    assert not quartet_ok(TRI5, 1, 3, 2, 4).ok
    # collinear point beyond the segment is harmless
    assert quartet_ok(TRI5, 2, 3, 1, 4).ok
    # four collinear points: pairs must not interleave
    COLL = SupportSet.from_rs(3, [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1)])
    assert quartet_ok(COLL, 1, 2, 3, 4).ok      # separated pairs
    assert quartet_ok(COLL, 1, 4, 2, 3).ok      # nested pairs
    assert not quartet_ok(COLL, 1, 3, 2, 4).ok  # interleaved


def test_is_compatible_examples(SQ):
    assert is_compatible(TreeTopology.from_splits(4, [frozenset({1, 2})]), SQ).ok
    verdict = is_compatible(TreeTopology.from_splits(4, [frozenset({1, 4})]), SQ)
    assert not verdict.ok and set(verdict.witness) == {1, 2, 3, 4}
    assert is_compatible(TreeTopology.star(4), SQ).ok
    # the witness is the first failing quartet in split, pair, pair order
    rng = random.Random(71)
    seen = set()
    for _ in range(150):
        n = rng.randint(4, 8)
        A = rand_support(rng, n)
        for T in (rand_topology(rng, n), rand_line(rng, n, contract_p=0.4)):
            topo = T if isinstance(T, TreeTopology) else T.topology
            first = next(
                (
                    (i, j, k, l)
                    for _, side in topo.splits()
                    for i, j in combinations(sorted(side), 2)
                    for k, l in combinations(sorted(set(range(1, n + 1)) - side), 2)
                    if not quartet_ok(A, i, j, k, l)
                ),
                None,
            )
            verdict = is_compatible(T, A)
            assert verdict.ok == (first is None) and verdict.witness == first
            seen.add(verdict.ok)
    assert seen == {True, False}


def test_rainbow_triangle_examples(SQ, TRI):
    S = regular_subdivision(SQ, ProjPoint((1, 0, 0, 0)))  # cells {1,2,3},{2,3,4}
    assert rainbow_triangle(S, [{2}, {4}, {1, 3}]) == (2, 3, 4)
    assert rainbow_triangle(S, [{1}, {3}, {2, 4}]) == (1, 2, 3)
    STRI = regular_subdivision(TRI, ProjPoint((0, 0, 0)))
    assert rainbow_triangle(STRI, [{1}, {2}, {3}]) == (1, 2, 3)


def test_vertex_fixed_point_examples(SQ, TRI):
    L = make_lsq()
    u, w = L.topology.node_of_leaf(1), L.topology.node_of_leaf(2)
    assert vertex_fixed_point(L, SQ, u) == ProjPoint((2, 1, 0))
    assert vertex_fixed_point(L, SQ, w) == ProjPoint((0, 0, 0))
    star = embed(TreeTopology.star(3), {}, 4, (0, 0, 0))
    assert vertex_fixed_point(star, TRI, 4) == ProjPoint((0, 0, 0))


def _vertex_lines(SQ, TRI5, HEX6) -> list:
    """(L, A): LSQ, every realized fixture type and realized lines of
    random supports at n = 6..8, 40 in all, and 20 general trivalent
    stable pencils at n = 4..7 whose vertices all carry fixed points;
    then each of them translated by 1/3 everywhere, which leaves the line
    as it is but triples D and unnormalizes the rows."""
    rng = random.Random(72)
    lines = [(make_lsq(), SQ)]
    lines += [(realize_type(A, T), A) for A in (SQ, TRI5, HEX6) for _, T in compatible_types(A)]
    while len(lines) < 40:
        A = rand_support(rng, rng.randint(6, 8))
        types = [T for _, T in compatible_types(A)]
        if types:
            lines.append((realize_type(A, rng.choice(types), seed=rng.randrange(4)), A))
    stable = 0
    while stable < 20:
        n = rng.randint(4, 7)
        A, C = rand_support(rng, n), rand_config(rng, n)
        L = stable_pencil(A, C)
        if L.topology.is_trivalent() and is_general(A, C):
            try:
                vertex_fixed_points(L, A)
            except TropError:
                continue
            lines.append((L, A))
            stable += 1
    lines += [(L.translate([Fraction(1, 3)] * L.n), A) for L, A in lines]
    assert any(L.D > 1 for L, _ in lines)
    assert any(row[-1] != 0 for L, _ in lines for row in L.rows.values())
    return lines


def test_vertex_fixed_point_matches_cell_dual_point_twin(SQ, TRI5, HEX6):
    # one hull of L.rows[v] against a fresh ProjPoint, its own subdivision
    # and cell_dual_point's second lift
    for L, A in _vertex_lines(SQ, TRI5, HEX6):
        for v in L.topology.internal_nodes:
            cv = ProjPoint(L.coords_of(v))
            parts = L.topology.leaf_partition(v)
            twin = cell_dual_point(A, cv, rainbow_triangle(regular_subdivision(A, cv), parts))
            assert vertex_fixed_point(L, A, v) == twin


def _outcome(f, L, A):
    try:
        return f(L, A)
    except TropError as e:
        return str(e)


def test_vertex_fixed_points_match_per_vertex_hull_twin(SQ, TRI5, HEX6):
    # values or error text against one hull per vertex, on the lines above
    # and on lines that break a hypothesis: stable pencils whatever their
    # verdict, random lines with contracted edges and the square's flat line
    rng = random.Random(73)
    lines = _vertex_lines(SQ, TRI5, HEX6)
    for _ in range(60):
        n = rng.randint(4, 7)
        A = rand_support(rng, n)
        lines.append((stable_pencil(A, rand_config(rng, n)), A))
        lines.append((rand_line(rng, n, contract_p=0.3), A))
    T = TreeTopology.from_splits(4, [frozenset({1, 2})])
    lines.append((embed(T, {frozenset({1, 2}): 1}, T.node_of_leaf(1), (0, 0, 0, 0)), SQ))
    errors = set()
    for L, A in lines:
        got = _outcome(vertex_fixed_points, L, A)
        assert got == _outcome(brute_vertex_fixed_points, L, A)
        if isinstance(got, str):
            errors.add(re.sub(r"(quartet|vertex) .*", r"\1", got))
    assert errors == {
        "hypotheses violated: line is not trivalent",
        "hypotheses violated: incompatible, quartet",
        "hypotheses violated: subdivision at vertex",
    }


def test_one_lower_hull_per_realized_line(monkeypatch, SQ, TRI5, HEX6):
    # realize_type keeps every vertex in one cone, so the first hull serves
    # the whole line; a stable pencil may cross walls and take more
    hulls, lower_faces = [], compat._lower_faces

    def counted(A, hs):
        hulls.append(hs)
        return lower_faces(A, hs)

    monkeypatch.setattr(compat, "_lower_faces", counted)
    lines = _vertex_lines(SQ, TRI5, HEX6)
    counts = []
    for L, A in lines:
        hulls.clear()
        vertex_fixed_points(L, A)
        counts.append(len(hulls))
    assert counts[:40] == [1] * 40  # the realized lines, before the 20 stable pencils
    assert counts[60:100] == [1] * 40  # their translates
    assert max(counts[40:60]) > 1


def test_construct_configuration_fixture(SQ, CFG):
    C = construct_configuration(make_lsq(), SQ)
    assert set(C) == set(CFG)


def test_construct_configuration_triangle(TRI):
    v = (Fraction(3), Fraction(-1, 2), Fraction(0))
    star = embed(TreeTopology.star(3), {}, 4, v)
    C = construct_configuration(star, TRI)
    assert C == [ProjPoint((-v[0], -v[1], 0))]


def test_construct_configuration_rejects_incompatible(SQ):
    T = TreeTopology.from_splits(4, [frozenset({1, 4})])
    L = embed(T, {frozenset({1, 4}): Fraction(1)}, T.node_of_leaf(1), (0, 0, 0, 0))
    with pytest.raises(TropError, match="hypotheses violated: incompatible"):
        construct_configuration(L, SQ)


def test_construct_configuration_rejects_non_strict_maximal(SQ):
    # equal heights at the anchor lift the square flat: one 4-point cell
    T = TreeTopology.from_splits(4, [frozenset({1, 2})])
    L = embed(T, {frozenset({1, 2}): Fraction(1)}, T.node_of_leaf(1), (0, 0, 0, 0))
    with pytest.raises(TropError, match="hypotheses violated: subdivision at vertex .* is not strict-maximal"):
        construct_configuration(L, SQ)


def test_construct_configuration_rejects_nontrivalent(SQ):
    star = embed(TreeTopology.star(4), {}, 5, (1, 0, 0, 0))
    with pytest.raises(TropError, match="not trivalent"):
        construct_configuration(star, SQ)


def _realized_pair(A):
    """Two lines of different compatible types of A, realized."""
    (_, T1), (_, T2), *_ = compatible_types(A)
    return realize_type(A, T1), realize_type(A, T2)


def _refusal(monkeypatch, A, L, points):
    """construct_configuration's error through the library and through the
    CLI, with vertex_fixed_points returning `points`."""
    monkeypatch.setattr(compat, "vertex_fixed_points", lambda L, A: points)
    with pytest.raises(TropError) as library:
        construct_configuration(L, A)
    request = {"support": {"degree": A.degree, "points": [list(a) for a in A.points]}, "line": line_to_json(L)}
    code, out, _ = run_in_process(["construct-config"], json.dumps(request))
    assert code == 1 and json.loads(out) == {"error": str(library.value)}
    return str(library.value)


def test_construct_configuration_refuses_a_configuration_that_is_not_general(monkeypatch, SQ, HEX6):
    for A in (SQ, HEX6):
        L, _ = _realized_pair(A)
        tied = dict.fromkeys(vertex_fixed_points(L, A), ProjPoint((1, 2, 0)))  # equal rows tie every minor
        assert _refusal(monkeypatch, A, L, tied) == "verification failed: configuration is not general"


def test_construct_configuration_refuses_a_pencil_that_differs(monkeypatch, SQ, TRI5, HEX6):
    # the general configuration of another line on the same support
    for A in (SQ, TRI5, HEX6):
        L, other = _realized_pair(A)
        points = vertex_fixed_points(other, A)
        assert is_general(A, list(points.values()))
        assert _refusal(monkeypatch, A, L, points) == "verification failed: stable pencil differs from input"


def _edited_lines(rng, L):
    """L with one internal edge length changed (when it has one), with one
    anchor coordinate shifted, and with its internal node ids permuted
    through its JSON."""
    T = L.topology
    out = []
    lengths = {frozenset((a, b)): ell for a, b, _, ell in L.edges}
    if lengths:
        key = rng.choice(sorted(lengths, key=sorted))
        lengths[key] += Fraction(rng.choice((-1, 1)) * rng.randint(1, 3), rng.randint(2, 4))
        if lengths[key] <= 0:
            lengths[key] += 2
        anchor = T.internal_nodes[0]
        out.append(embed(T, lengths, anchor, L.coords_of(anchor)))
    shift = [0] * L.n
    shift[rng.randrange(L.n)] = Fraction(rng.randint(1, 5), rng.randint(1, 3))
    out.append(L.translate(shift))
    obj = line_to_json(L)
    old = sorted(T.internal_nodes)
    new = dict(zip(old, rng.sample(range(L.n + 1, L.n + 3 * len(old) + 1), len(old))))
    node = lambda v: new.get(v, v)
    obj["edges"] = [{**e, "a": node(e["a"]), "b": node(e["b"])} for e in obj["edges"]]
    obj["leaf_map"] = {i: node(v) for i, v in obj["leaf_map"].items()}
    obj["anchor"]["node"] = node(obj["anchor"]["node"])
    out.append(line_from_json(json.loads(json.dumps(obj)), L.n))
    return out


def test_round_trip_on_the_pair_vector_matches_the_rebuilt_tree():
    # a tree metric determines its tree: p rebuilds L iff L reads back p
    rng = random.Random(75)
    pairs = []
    while len(pairs) < 2000:
        n = 4 + len(pairs) % 9
        A = rand_support(rng, n, degree=4 if n > 9 else None)
        _, p = solve_minors(A, rand_config(rng, n))
        _, p2 = solve_minors(A, rand_config(rng, n))  # a second configuration
        L = plucker_to_tree(p)
        M = rand_line(rng, n, contract_p=0.3)
        q = tree_to_plucker(M)
        pairs += [(L, p), (L, p2), (M, q), (M, p)]
        pairs += [(E, p) for E in _edited_lines(rng, L)] + [(E, q) for E in _edited_lines(rng, M)]
    outcomes = {True: 0, False: 0}
    for L, p in pairs:
        same = plucker_to_tree(p) == L
        assert same == (tree_to_plucker(L) == p)
        outcomes[same] += 1
    assert min(outcomes.values()) > 500


def test_the_round_trip_rebuilds_no_tree_and_no_hull_twice(monkeypatch, SQ, TRI5, HEX6):
    # realize_type reads its heights off integer hulls, and
    # construct_configuration compares pair vectors, not rebuilt lines
    calls = []

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return f(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(compat, "tree_to_plucker", counted("tree_to_plucker", tree_to_plucker))
    for f, homes in ((plucker_to_tree, ("trees", "stable")), (regular_subdivision, ("subdivision",))):
        for home in homes:
            monkeypatch.setattr(f"troppencil.{home}.{f.__name__}", counted(f.__name__, f))
        monkeypatch.setattr(compat, f.__name__, counted(f.__name__, f), raising=False)  # not imported there
    fixtures = [(A, T, seed) for A in (SQ, TRI5, HEX6) for _, T in compatible_types(A) for seed in range(2)]
    for A, T, seed in fixtures + _realize_cases(random.Random(76), 60):
        calls.clear()
        L = realize_type(A, T, seed=seed)
        assert calls == []
        construct_configuration(L, A)
        assert calls == ["tree_to_plucker"]


def test_support_graph_fixture(SQ):
    L = make_lsq()
    u, w = L.topology.node_of_leaf(1), L.topology.node_of_leaf(2)
    Gu = support_graph(L, SQ, u)
    assert Gu.edges == frozenset({(u, 1), (u, 2), (u, 3), (w, 2), (w, 4)})
    assert len(Gu.edges) == 2 * 4 - 3
    assert Gu.component_count() == 1 and Gu.is_forest()
    a, b = sorted((u, w))
    Gc = support_graph(L, SQ, LinePoint("edge", (a, b), Fraction(1, 2)))
    assert Gc.component_count() == 2 and Gc.is_forest()
    psi = unique_matching(Gc, (1, 2))
    assert psi == {u: 3, w: 4}
    psi34 = unique_matching(Gc, (3, 4))
    assert psi34 == {u: 1, w: 2}


def test_support_graph_refuses_a_node_that_is_not_internal(SQ):
    # a leaf id used to raise KeyError from the line's rows
    L = make_lsq()
    for c in (1, 4, max(L.rows) + 1):
        with pytest.raises(ValueError, match=f"node {c} is not an internal node"):
            support_graph(L, SQ, c)


def test_matching_sum_equals_tropdet(SQ):
    L = make_lsq()
    pv = vertex_fixed_points(L, SQ)
    M = value_matrix(SQ, list(pv.values()))
    rows = {v: k for k, v in enumerate(pv)}
    a, b = sorted(pv)
    for i, j in combinations(range(1, 5), 2):
        c = _path_point(L, i, j)
        G = support_graph(L, SQ, c)
        psi = unique_matching(G, (i, j))
        total = sum(M[rows[v]][psi[v] - 1] for v in psi)
        res = minor_tropdet(M, 4, i, j)
        assert total == res.value and res.unique


def _path_point(L, i, j):
    """A deterministic 2-valent point on the path between leaves i and j."""
    topo = L.topology
    path = topo.path(topo.node_of_leaf(i), topo.node_of_leaf(j))
    internal = [
        (a, b) if a < b else (b, a) for a, b in zip(path, path[1:])
    ]
    if internal:
        key = internal[len(internal) // 2]
        ell = next(e[3] for e in L.edges if (e[0], e[1]) == key)
        return LinePoint("edge", key, ell / 2)
    return LinePoint("ray", (topo.node_of_leaf(i), i), Fraction(1))


def test_enumerate_types_counts():
    assert len(enumerate_types(3)) == 1
    assert len(enumerate_types(4)) == 3
    assert len(enumerate_types(5)) == 15
    assert len(enumerate_types(6)) == 105
    assert len({T.split_set() for T in enumerate_types(6)}) == 105
    with pytest.raises(TropError):
        enumerate_types(11)


def test_type_by_id_follows_iter_types():
    # decoded from the id's digits, never walked: same adjacency as the walk
    for n in range(3, 8):
        walked = list(iter_types(n))
        assert len(walked) == type_count(n)
        for k, T in enumerate(walked):
            assert type_by_id(n, k).adj == T.adj
    rng = random.Random(64)
    walked = list(iter_types(8))
    for k in rng.sample(range(len(walked)), 300):
        assert type_by_id(8, k).adj == walked[k].adj
    walked = list(islice(iter_types(9), 3000))
    for k in list(range(12)) + rng.sample(range(12, len(walked)), 100):
        assert type_by_id(9, k).adj == walked[k].adj
    for n in (3, 6, 9, 14):
        assert type_by_id(n, type_count(n)) is None and type_by_id(n, -1) is None
    assert type_by_id(6, 105) is None and type_count(6) == 105


def test_decoded_types_beyond_enumeration():
    rng = random.Random(65)
    ids = rng.sample(range(type_count(14)), 60)
    types = [type_by_id(14, k) for k in ids]
    assert all(T.n == 14 and T.is_trivalent() for T in types)
    assert len({T.split_set() for T in types}) == 60


def test_compatible_types_match_filter(SQ, TRI5, HEX6):
    walks = {n: list(iter_types(n)) for n in range(4, 9)}
    rng = random.Random(66)
    supports = [SQ, TRI5, HEX6] + [rand_support(rng, 4 + k % 5) for k in range(40)]
    for A in supports:
        fast = list(compatible_types(A))
        twin = [(k, T) for k, T in enumerate(walks[A.n]) if is_compatible(T, A)]
        assert [k for k, _ in fast] == [k for k, _ in twin]
        assert [T.adj for _, T in fast] == [T.adj for _, T in twin]


def test_count_compatible_fixtures(SQ, TRI5, HEX6):
    assert count_compatible(SQ) == 2
    assert count_compatible(TRI5) == 5
    assert count_compatible(HEX6) == 14


def test_count_compatible_boundary_formula_n7():
    # all points on the hull boundary: count is C(2n-4, n-2) / (n-1)
    A = SupportSet.from_rs(3, [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (0, 2), (0, 3)])
    assert count_compatible(A) == 42


def test_count_compatible_boundary_formula_n9():
    # the 9 boundary points of the cubic: 429 of 135,135 types
    A = SupportSet.from_rs(
        3, [(0, 0), (1, 0), (2, 0), (3, 0), (2, 1), (1, 2), (0, 3), (0, 2), (0, 1)]
    )
    assert count_compatible(A) == 429


def test_realize_type_larger_support():
    rng = random.Random(63)
    A = SupportSet.from_rs(3, [(0, 0), (1, 0), (3, 0), (0, 1), (1, 1), (0, 2), (0, 3)])
    good = [T for T in enumerate_types(7) if is_compatible(T, A)]
    for T in rng.sample(good, 3):
        L = realize_type(A, T)
        C = construct_configuration(L, A)
        assert is_general(A, C)
        assert stable_pencil(A, C) == L


def test_realize_type_errors(SQ):
    T = TreeTopology.from_splits(4, [frozenset({1, 4})])
    with pytest.raises(TropError, match="not compatible"):
        realize_type(SQ, T)


def test_realize_type_round_trip(SQ):
    for T in enumerate_types(4):
        if not is_compatible(T, SQ):
            continue
        L = realize_type(SQ, T)
        assert L.topology == T
        S, _ = find_strict_maximal_subdivision(SQ)
        for v in T.internal_nodes:
            assert regular_subdivision(SQ, ProjPoint(L.coords[v])).cells == S.cells
        C = construct_configuration(L, SQ)
        assert is_general(SQ, C)
        assert stable_pencil(SQ, C) == L


# --- the closed-form edge length of realize_type ---------------------------


def _halving_realize(A, T, seed):
    """The halving loop that `realize_type` replaced, kept as its twin:
    embed with every length 1, 1/2, 1/4, ... until every vertex induces S."""
    if not is_compatible(T, A):
        raise TropError("not compatible")
    S, c = find_strict_maximal_subdivision(A, seed=seed)
    eps = Fraction(1)
    for _ in range(compat.MAX_HALVINGS):
        L = _embed_all(T, eps, c)
        if all(secondary_cone_contains(A, S, ProjPoint(L.coords[v])) for v in T.internal_nodes):
            return L
        eps /= 2
    raise TropError("edge lengths did not stabilize inside the secondary cone")


def _realize_cases(rng, count):
    """(A, T, seed): a random support at n = 4..9, a random type compatible
    with it and a seed in 0..3."""
    out = []
    while len(out) < count:
        A = rand_support(rng, rng.randint(4, 9))
        types = [T for _, T in compatible_types(A)]
        if types:
            out.append((A, rng.choice(types), rng.randrange(4)))
    return out


def _embed_all(T, eps, c):
    """T anchored at c as `realize_type` anchors it, every length eps."""
    return embed(T, {frozenset(e): eps for e in T.internal_edges}, T.internal_nodes[0], c)


def _fraction_draws(A, seed):
    """The draw loop that `_strict_heights` replaced, kept as its twin: a
    `Fraction` height vector, a `ProjPoint` and `regular_subdivision` per
    draw.  (S, c, the number of jittered draws it took)."""
    base = squared_distance_heights(A)
    S = regular_subdivision(A, base)
    if is_maximal(S, "strict"):
        return S, base, 0
    rng = random.Random(seed)
    scale = Fraction(1, 4)
    for k in range(1, compat.MAX_DRAWS + 1):
        c = ProjPoint([h + Fraction(rng.randint(0, 2**20), 2**20) * scale for h in base.coords])
        S = regular_subdivision(A, c)
        if is_maximal(S, "strict"):
            return S, c, k
        scale /= 2
    raise TropError(f"no strict-maximal subdivision found after {compat.MAX_DRAWS} draws")


class _EvenJitter(random.Random):
    """Even jitter only, so a drawn scale always reduces."""

    def randint(self, a, b):
        return 2 * super().randint(a, b // 2)


def test_integer_draws_match_the_fraction_twin(monkeypatch, SQ, TRI5, HEX6):
    # the same triangulation and heights, and the heights on their least
    # scale, also when every jitter is even and that scale is below 2^(22+k)
    rng = random.Random(77)
    supports = [SQ, TRI5, HEX6] + [rand_support(rng, rng.randint(4, 10)) for _ in range(300)]
    for jitter, count in ((random.Random, 303), (_EvenJitter, 60)):
        monkeypatch.setattr(random, "Random", jitter)
        drawn, reduced = 0, 0
        for A in supports[:count]:
            for seed in range(4):
                S, c, draws = _fraction_draws(A, seed)
                assert find_strict_maximal_subdivision(A, seed=seed) == (S, c)
                D, hs = clear_denominators(c.coords)
                assert compat._strict_heights(A, seed) == (S, D, hs)
                drawn += draws > 0
                reduced += draws > 0 and D < 1 << (21 + draws)
        assert drawn > 20
    assert reduced == drawn  # every even draw
    monkeypatch.setattr(compat, "MAX_DRAWS", 0)  # HEX6's squared distances leave a square
    for draw in (_fraction_draws, find_strict_maximal_subdivision):
        with pytest.raises(TropError, match="no strict-maximal subdivision found after 0 draws"):
            draw(HEX6, 0)


def test_realize_type_length_is_the_least_halving(SQ, TRI5, HEX6):
    # every vertex induces S, and where the length is below 1 twice that
    # length takes some vertex out of S's cone
    fixtures = [(A, T, 0) for A in (SQ, TRI5, HEX6) for _, T in compatible_types(A)]
    halved = 0
    for A, T, seed in fixtures + _realize_cases(random.Random(67), 100):
        L = realize_type(A, T, seed=seed)
        S, c = find_strict_maximal_subdivision(A, seed=seed)
        for v in T.internal_nodes:
            assert regular_subdivision(A, ProjPoint(L.coords[v])) == S
        (eps,) = {ell for *_, ell in L.edges} or {1}
        if eps < 1:
            halved += 1
            wider = _embed_all(T, 2 * eps, c)
            assert any(regular_subdivision(A, ProjPoint(wider.coords[v])) != S for v in T.internal_nodes)
    assert halved > 30


def test_realize_type_places_the_embedding_on_integers(SQ, TRI5, HEX6):
    # the same scale, rows and branch table, in the same order, as embed
    # with every length 2^-k at the cone's heights
    fixtures = [(A, T, 0) for A in (SQ, TRI5, HEX6) for _, T in compatible_types(A)]
    for A, T, seed in fixtures + _realize_cases(random.Random(74), 100):
        L = realize_type(A, T, seed=seed)
        _, c = find_strict_maximal_subdivision(A, seed=seed)
        (eps,) = {ell for *_, ell in L.edges}
        assert eps.numerator == 1 and eps.denominator.bit_count() == 1
        want = _embed_all(T, eps, c)
        assert L.D == want.D
        assert list(L.rows.items()) == list(want.rows.items())
        assert list(L._branches.items()) == list(want._branches.items())


def test_unit_offsets_are_the_unit_embedding():
    for A, T, seed in _realize_cases(random.Random(69), 30):
        _, c = find_strict_maximal_subdivision(A, seed=seed)
        unit = _embed_all(T, 1, c)
        w = _unit_offsets(T, T.internal_nodes[0])
        assert sorted(w) == T.internal_nodes
        for v, wv in w.items():
            assert tuple(x - y for x, y in zip(unit.coords[v], c.coords)) == wv


@pytest.mark.parametrize(
    "rs, type_id, bound",
    [
        ([(0, 1), (2, 0), (1, 0), (0, 0), (0, 3)], 0, Fraction(1, 2)),
        ([(0, 2), (0, 0), (3, 0), (1, 2), (0, 3), (2, 1)], 97, Fraction(1, 4)),
    ],
)
def test_realize_type_bound_at_a_power_of_two(rs, type_id, bound):
    # at eps* = 2^-j a vertex lies on a wall of the cone, so the strict
    # 2^-k < eps* must pass over 2^-j and take 2^-(j+1)
    A = SupportSet.from_rs(3, rs)
    T = type_by_id(A.n, type_id)
    S, c = find_strict_maximal_subdivision(A)
    D, hs = clear_denominators(c.coords)
    assert _cone_bound(S, D, hs, _unit_offsets(T, T.internal_nodes[0]).values()) == bound
    L = realize_type(A, T)
    assert {ell for *_, ell in L.edges} == {bound / 2}
    at_bound = _embed_all(T, bound, c)
    assert not all(secondary_cone_contains(A, S, ProjPoint(at_bound.coords[v])) for v in T.internal_nodes)
    assert line_to_json(L) == line_to_json(_halving_realize(A, T, 0))


def test_realize_type_matches_halving_twin():
    for A, T, seed in _realize_cases(random.Random(68), 300):
        assert line_to_json(realize_type(A, T, seed=seed)) == line_to_json(_halving_realize(A, T, seed))


def test_realize_type_halving_limit(monkeypatch):
    # a length the halving cap forbids raises as the loop did when it ran out
    A = SupportSet.from_rs(3, [(0, 1), (2, 0), (1, 0), (0, 0), (0, 3)])
    T = type_by_id(5, 0)
    monkeypatch.setattr(compat, "MAX_HALVINGS", 2)  # lengths 1 and 1/2 only; 1/4 is needed
    for realize in (realize_type, _halving_realize):
        with pytest.raises(TropError, match="did not stabilize"):
            realize(A, T, 0)
    monkeypatch.setattr(compat, "MAX_HALVINGS", 3)
    assert realize_type(A, T) == _halving_realize(A, T, 0)


def test_hall_condition_exhaustive(SQ):
    L = make_lsq()
    for i, j in combinations(range(1, 5), 2):
        G = support_graph(L, SQ, _path_point(L, i, j))
        rest = [l for l in range(1, 5) if l not in (i, j)]
        for size in range(len(rest) + 1):
            for B in combinations(rest, size):
                assert len(neighborhood(G, B)) >= len(B)


def test_gv_structure_random():
    rng = random.Random(61)
    done = 0
    while done < 15:
        n = rng.randint(4, 6)
        A = rand_support(rng, n)
        C = rand_config(rng, n)
        L = stable_pencil(A, C)
        if not L.topology.is_trivalent() or not is_general(A, C):
            continue
        try:
            pv = vertex_fixed_points(L, A)
        except TropError:
            continue  # a vertex subdivision may be non-maximal; out of scope here
        done += 1
        for v in L.topology.internal_nodes:
            G = support_graph(L, A, v)
            assert len(G.edges) == 2 * n - 3
            assert G.component_count() == 1 and G.is_forest()


# --- partition trichotomy at the vertices of compatible trees -------------


def _hull(points):
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def chain(order):
        out = []
        for p in order:
            while len(out) >= 2 and orient2d(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower, upper = chain(pts), chain(pts[::-1])
    return lower[:-1] + upper[:-1]


def _inside(hull, p):
    if len(hull) == 1:
        return p == hull[0]
    if len(hull) == 2:
        a, b = hull
        return orient2d(a, b, p) == 0 and min(a[0], b[0]) <= p[0] <= max(a[0], b[0]) and min(
            a[1], b[1]
        ) <= p[1] <= max(a[1], b[1])
    return all(orient2d(a, b, p) >= 0 for a, b in zip(hull, hull[1:] + hull[:1]))


def _seg_intersect(p1, p2, q1, q2):
    d1, d2 = orient2d(q1, q2, p1), orient2d(q1, q2, p2)
    d3, d4 = orient2d(p1, p2, q1), orient2d(p1, p2, q2)
    if ((d1 > 0) != (d2 > 0) and d1 != 0 and d2 != 0) and (
        (d3 > 0) != (d4 > 0) and d3 != 0 and d4 != 0
    ):
        return True

    def on(a, b, c):
        return orient2d(a, b, c) == 0 and min(a[0], b[0]) <= c[0] <= max(a[0], b[0]) and min(
            a[1], b[1]
        ) <= c[1] <= max(a[1], b[1])

    return on(p1, p2, q1) or on(p1, p2, q2) or on(q1, q2, p1) or on(q1, q2, p2)


def _hulls_overlap(h1, h2):
    if any(_inside(h2, p) for p in h1) or any(_inside(h1, p) for p in h2):
        return True
    e1 = list(zip(h1, h1[1:] + h1[:1])) if len(h1) > 1 else []
    e2 = list(zip(h2, h2[1:] + h2[:1])) if len(h2) > 1 else []
    return any(_seg_intersect(a, b, c, d) for a, b in e1 for c, d in e2)


def test_partition_trichotomy():
    rng = random.Random(62)
    checked = 0
    while checked < 40:
        n = rng.randint(4, 6)
        A = rand_support(rng, n)
        types = [T for T in enumerate_types(n) if is_compatible(T, A)]
        if not types:
            continue
        T = types[rng.randrange(len(types))]
        checked += 1
        for v in T.internal_nodes:
            hulls = [
                _hull([A.rs(i) for i in part]) for part in T.leaf_partition(v)
            ]
            contained = {}
            for x, y in permutations(range(3), 2):
                contained[(x, y)] = all(_inside(hulls[y], p) for p in hulls[x])
            for x, y in combinations(range(3), 2):
                nested = contained[(x, y)] or contained[(y, x)]
                assert nested or not _hulls_overlap(hulls[x], hulls[y])
            # no full chain conv1 < conv2 < conv3
            for x, y, z in permutations(range(3)):
                assert not (
                    contained[(x, y)] and contained[(y, z)] and x != z
                    and not contained[(y, x)] and not contained[(z, y)]
                )
        del T
