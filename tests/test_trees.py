import random
from fractions import Fraction
from itertools import combinations, islice
from math import lcm

import pytest

from conftest import (
    COPRIME,
    coprime_line,
    edge_lengths,
    make_lsq,
    mixed_line,
    rand_config,
    rand_line,
    rand_support,
    rand_topology,
)
from troppencil import jsonio
from troppencil.compat import compatible_types, enumerate_types, realize_type
from troppencil.core import ProjPoint, dot
from troppencil.core import InternalError
from troppencil.oracle import EpsRational, brute_plucker_to_tree, median_tree_to_plucker, poly_plucker_to_tree
from troppencil.pencil import shifted_line
from troppencil.stable import solve_minors, stable_pencil
from troppencil.trees import (
    PlueckerError,
    PlueckerVector,
    TreeTopology,
    _ray_parameter,
    embed,
    line_contains,
    plucker_to_tree,
    tree_to_plucker,
)

LSQ_PAIRS = {(1, 2): 1, (1, 3): 2, (1, 4): 1, (2, 3): 0, (2, 4): 0, (3, 4): 0}


@pytest.mark.parametrize(
    "values, message",
    [
        ({(1, 2): 0, (2, 1): 1, (1, 3): 0, (2, 3): 0}, "pair (1, 2) is given twice"),
        ({(1, 2): 0, (1,): 0, (1, 3): 0, (2, 3): 0}, "bad pair (1,)"),
        ({(1, 2): 0, (1, 2, 3): 0, (1, 3): 0, (2, 3): 0}, "bad pair (1, 2, 3)"),
        ({(1, 2): 0, (2, 2): 0, (1, 3): 0, (2, 3): 0}, "bad pair (2, 2)"),
        ({(1, 2): 0, (1, 4): 0, (1, 3): 0, (2, 3): 0}, "bad pair (1, 4)"),
        ({(1, 2): 0, 12: 0, (1, 3): 0, (2, 3): 0}, "bad pair 12"),
        ({(1, 2): 0, ("1", "3"): 0, (2, 3): 0}, "bad pair ('1', '3')"),
    ],
)
def test_plucker_vector_pair_messages(values, message):
    # a pair given in both orders kept its last value, and a key that is
    # not two indices failed to unpack
    with pytest.raises(ValueError) as info:
        PlueckerVector(3, values)
    assert str(info.value) == message


def test_embed_fixture():
    L = make_lsq()
    u = L.topology.node_of_leaf(1)
    w = L.topology.node_of_leaf(2)
    assert ProjPoint(L.coords[u]) == ProjPoint((3, 1, 2, 1))
    assert ProjPoint(L.coords[w]) == ProjPoint((1, 0, 0, 0))
    assert edge_lengths(L) == {frozenset({1, 3}): Fraction(1)}


def test_embed_rejects_nonpositive_length():
    T = TreeTopology.from_splits(4, [frozenset({1, 2})])
    with pytest.raises(ValueError, match="non-positive length"):
        embed(T, {frozenset({1, 2}): Fraction(0)}, T.node_of_leaf(1), (0, 0, 0, 0))


def test_floats_are_refused():
    T = TreeTopology.from_splits(4, [frozenset({1, 2})])
    v = T.node_of_leaf(1)
    with pytest.raises(TypeError, match="not an exact rational"):
        embed(T, {frozenset({1, 2}): 0.5}, v, (0, 0, 0, 0))
    with pytest.raises(TypeError, match="not an exact rational"):
        embed(T, {frozenset({1, 2}): 1}, v, (0.1, 0, 0, 0))
    with pytest.raises(TypeError, match="not an exact rational"):
        make_lsq().translate((0.5, 0, 0, 0))
    with pytest.raises(TypeError, match="not an exact rational"):
        PlueckerVector(4, {**LSQ_PAIRS, (1, 2): 0.5})
    # exact, but not rational: infinitesimals live only in the oracle
    with pytest.raises(TypeError, match="not an exact rational"):
        embed(T, {frozenset({1, 2}): EpsRational(0, 1)}, v, (0, 0, 0, 0))


def test_embed_branches_follow_e_I_rule():
    # embed places each vertex and files its branch in one pass, so every
    # table entry must agree with the coordinates it placed; the integer
    # rows are the coordinates times the lcm of all their denominators
    rng = random.Random(29)
    lines = []
    for n in range(4, 10):
        for contract_p in (0, 0.4):
            lines += [rand_line(rng, n, contract_p=contract_p) for _ in range(4)]
        lines.append(mixed_line(rng, n, contract_p=0.3))
    for L in lines:
        topo, n = L.topology, L.n
        assert [(a, b) for a, b, _, _ in L.edges] == topo.internal_edges
        for a, b, side, ell in L.edges:
            assert side == topo.leaves_beyond(a, b)
            assert ell > 0 and _ray_parameter(L.coords[a], L.coords[b], side, n) == ell
        assert L.rays == sorted((topo.node_of_leaf(i), i) for i in range(1, n + 1))
        assert all(L.edge((v, i)) == (v, i, {i}, None) for v, i in L.rays)
        D = lcm(*(x.denominator for cs in L.coords.values() for x in cs))
        assert L.D == D and L.rows == {v: tuple(D * x for x in cs) for v, cs in L.coords.items()}
    with pytest.raises(ValueError, match="one entry per leaf"):
        embed(TreeTopology.star(3), {}, 4, (0, 0))


def test_star_line_has_no_internal_edges():
    T = TreeTopology.star(3)
    L = embed(T, {}, 4, (0, 0, 0))
    assert not L.edges
    assert len(L.rays) == 3


def test_embed_anchor_independent():
    rng = random.Random(21)
    for _ in range(20):
        n = rng.randint(4, 7)
        T = rand_topology(rng, n)
        lengths = {frozenset(e): Fraction(rng.randint(1, 5)) for e in T.internal_edges}
        nodes = T.internal_nodes
        a1, a2 = rng.sample(nodes, 2) if len(nodes) > 1 else (nodes[0], nodes[0])
        L1 = embed(T, lengths, a1, tuple(Fraction(0) for _ in range(n)))
        # re-anchor at a2 using L1's coordinates there: same line
        L2 = embed(T, lengths, a2, L1.coords[a2])
        assert L1 == L2
        assert hash(L1) == hash(L2)


def test_line_contains_examples():
    L = make_lsq()
    assert line_contains(L, ProjPoint((1, 0, 0, 0)))
    assert line_contains(L, ProjPoint((Fraction(3, 2), 0, Fraction(1, 2), 0)))
    assert not line_contains(L, ProjPoint((0, 1, 0, 0)))
    # ray points
    assert line_contains(L, ProjPoint((3 + 5, 1, 2, 1)))  # far out on ray 1
    assert not line_contains(L, ProjPoint((3 - 5, 1, 2, 1)))


def test_splits_conventions():
    L = make_lsq()
    assert [side for _, side in L.topology.splits()] == [frozenset({1, 3})]
    cat = TreeTopology.from_splits(5, [frozenset({1, 2}), frozenset({1, 2, 3})])
    assert [side for _, side in cat.splits()] == [frozenset({1, 2}), frozenset({1, 2, 3})]
    assert TreeTopology.star(6).splits() == []


def test_tree_to_plucker_fixture():
    p = tree_to_plucker(make_lsq())
    for (i, j), v in LSQ_PAIRS.items():
        assert p.get(i, j) == v


def test_tree_to_plucker_star_formula():
    rng = random.Random(22)
    for _ in range(20):
        v = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(3)]
        L = embed(TreeTopology.star(3), {}, 4, tuple(v))
        p = tree_to_plucker(L)
        # p_ij = v_i + v_j up to one global constant
        kappa = p.get(1, 2) - (v[0] + v[1])
        assert p.get(1, 3) == v[0] + v[2] + kappa
        assert p.get(2, 3) == v[1] + v[2] + kappa


def test_plucker_projective_invariance():
    rng = random.Random(23)
    L = rand_line(rng, 6)
    lam = Fraction(7, 3)
    shifted = L.translate([lam] * 6)
    p = tree_to_plucker(shifted)
    assert tree_to_plucker(L) == p
    # the translate's rows need the scale 3 D; p keeps its own least scale
    assert shifted.D == 3 * L.D > p.D == lcm(*(v.denominator for v in p.values.values()))


def test_plucker_vector_integer_form():
    # one vector three ways: from Fractions, from ints on a scale k * D with
    # k > 1, and from Fractions off the normalization p_{n-1,n} = 0
    rng = random.Random(25)
    for n in (3, 4, 6, 8):
        p = tree_to_plucker(mixed_line(rng, n))
        pairs = list(combinations(range(1, n + 1), 2))
        k, c = rng.randint(2, 9), Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice(COPRIME))
        ways = [
            PlueckerVector(n, {ij: p.get(*ij) for ij in pairs}),
            PlueckerVector._scaled(n, k * p.D, {(i, j): k * p.table[i][j] for i, j in pairs}),
            PlueckerVector(n, {ij: p.get(*ij) + c for ij in pairs}),
        ]
        assert p.D == lcm(*(v.denominator for v in p.values.values()))
        assert p.table[n - 1][n] == 0
        for q in ways:
            assert (q.n, q.D, q.table) == (p.n, p.D, p.table)
            assert q == p and hash(q) == hash(p)
            assert [q.get(*ij) for ij in pairs] == [p.get(*ij) for ij in pairs]
            assert q.values == p.values and repr(q) == repr(p)
        for i, j in ((0, 1), (-1, 2), (2, 2), (1, n + 1)):
            with pytest.raises(KeyError):
                p.get(i, j)


def test_translate_matches_validating_embed():
    rng = random.Random(28)
    for _ in range(30):
        n = rng.randint(4, 8)
        L = rand_line(rng, n)
        shift = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
        G = L.translate(shift)
        v = L.topology.internal_nodes[0]
        anchor = [c + s for c, s in zip(L.coords[v], shift)]
        rebuilt = embed(L.topology, edge_lengths(L), v, anchor)
        assert G == rebuilt
        assert all(ProjPoint(G.coords[w]) == ProjPoint(rebuilt.coords[w]) for w in G.coords)
        assert G.edges == rebuilt.edges
        # shifted_line is the translate by A.P
        A = rand_support(rng, n)
        x, y = Fraction(rng.randint(-9, 9), rng.randint(1, 6)), Fraction(rng.randint(-9, 9), 7)
        P = ProjPoint((x, y, 0))
        H = shifted_line(L, A, P)
        assert H == L.translate([dot(a, P) for a in A.points]) and H.edges == L.edges
    for bad in ([1] * (n - 1), [1] * (n + 1)):
        with pytest.raises(ValueError, match="one entry per leaf"):
            L.translate(bad)


def test_plucker_to_tree_fixture():
    p = PlueckerVector(4, LSQ_PAIRS)
    assert plucker_to_tree(p) == make_lsq()


def test_plucker_to_tree_star():
    p = PlueckerVector(4, {k: 0 for k in LSQ_PAIRS})
    L = plucker_to_tree(p)
    assert L.topology == TreeTopology.star(4)
    assert ProjPoint(L.coords[L.topology.internal_nodes[0]]) == ProjPoint((0, 0, 0, 0))


def test_plucker_relation_violation():
    with pytest.raises(PlueckerError, match="not a Pluecker vector"):
        plucker_to_tree(
            PlueckerVector(4, {(1, 2): 1, (1, 3): 2, (1, 4): 1, (2, 3): 0, (2, 4): 0, (3, 4): 1})
        )


def test_quartet_violation_names_the_validate_quartet():
    """Nudging one coordinate of a line's vector by a tiny rational breaks
    the quartets where that pair sits across the split; plucker_to_tree
    finds a failed pair on its integer table and names validate's first
    quartet."""
    rng = random.Random(31)
    broken = 0
    for trial in range(40):
        n = 4 + trial % 5
        p = tree_to_plucker(mixed_line(rng, n))
        values = {tuple(sorted(k)): v for k, v in p.values.items()}
        pair = rng.choice(sorted(values))
        values[pair] += Fraction(rng.choice((-1, 1)), COPRIME[-1] * rng.choice(COPRIME[:3]))
        bad = PlueckerVector(n, values)
        try:
            bad.validate()
        except PlueckerError as want:
            broken += 1
            with pytest.raises(PlueckerError) as got:
                plucker_to_tree(bad)
            assert str(got.value) == str(want)
        else:
            assert plucker_to_tree(bad) == brute_plucker_to_tree(bad)
    assert broken >= 10


def test_round_trip_random_trivalent():
    rng = random.Random(24)
    for _ in range(60):
        n = rng.randint(4, 8)
        L = rand_line(rng, n)
        p = tree_to_plucker(L)
        p.validate()
        back = plucker_to_tree(p)
        assert back == L
        assert back.topology.split_set() == L.topology.split_set()
        assert edge_lengths(back) == edge_lengths(L)


def test_round_trip_contracted():
    # degenerate vectors reconstruct to trees with high-valence nodes
    rng = random.Random(25)
    for _ in range(20):
        n = rng.randint(4, 6)
        L = rand_line(rng, n)
        T2 = rand_topology(rng, n, contract_p=0.6)
        lengths = {frozenset(e): Fraction(rng.randint(1, 4)) for e in T2.internal_edges}
        L2 = embed(T2, lengths, T2.internal_nodes[0], L.coords[L.topology.internal_nodes[0]])
        assert plucker_to_tree(tree_to_plucker(L2)) == L2


def _assert_same_line(got, want):
    assert got == want
    assert got.topology.split_set() == want.topology.split_set()
    assert edge_lengths(got) == edge_lengths(want)


def test_plucker_to_tree_matches_brute_twin():
    rng = random.Random(29)
    for n in range(4, 11):
        for trial in range(6 if n <= 8 else 2):
            L = rand_line(rng, n, contract_p=0.5 if trial % 2 else 0.0)
            p = tree_to_plucker(L)
            got = plucker_to_tree(p)
            _assert_same_line(got, brute_plucker_to_tree(p))
            _assert_same_line(got, L)
    # mixed coprime denominators: one common scale for the whole vector,
    # divided out of every length and anchor coordinate
    for trial in range(16):
        L = mixed_line(rng, 4 + trial % 5, contract_p=0.5 if trial % 2 else 0.0)
        p = tree_to_plucker(L)
        _assert_same_line(plucker_to_tree(p), brute_plucker_to_tree(p))
        _assert_same_line(plucker_to_tree(p), L)
    # integer points tie minors, so these vectors give contracted trees
    tied = 0
    for trial in range(30):
        n = 4 + trial % 6
        A = rand_support(rng, n)
        C = [ProjPoint((rng.randint(-3, 3), rng.randint(-3, 3), 0)) for _ in range(n - 2)]
        verdict, p = solve_minors(A, C)
        tied += not verdict.general
        _assert_same_line(plucker_to_tree(p), brute_plucker_to_tree(p))
    assert tied >= 5


def test_tree_to_plucker_matches_median_twin():
    """The one bottom-up pass against the twin that walks two paths per
    median: lines of each kind at n = 3..40, and the lines of tied pair
    vectors from integer configurations, which contract edges."""
    rng = random.Random(34)
    for n in range(3, 41):
        for make in (rand_line, coprime_line, mixed_line):
            for contract_p in (0.0, 0.3, 0.7):
                L = make(rng, n, contract_p=contract_p)
                assert tree_to_plucker(L) == median_tree_to_plucker(L)
    tied = 0
    for trial in range(30):
        n = 4 + trial % 7
        A = rand_support(rng, n)
        C = [ProjPoint((rng.randint(-3, 3), rng.randint(-3, 3), 0)) for _ in range(n - 2)]
        verdict, p = solve_minors(A, C)
        tied += not verdict.general
        L = plucker_to_tree(p)
        assert tree_to_plucker(L) == median_tree_to_plucker(L) == p
    assert tied >= 5


def test_round_trip_beyond_enumeration():
    # sizes where trying every leaf bipartition takes seconds or more
    rng = random.Random(30)
    for n in (12, 14, 18, 30):
        for contract_p in (0.0, 0.5):
            L = rand_line(rng, n, contract_p=contract_p)
            assert L.topology.is_trivalent() == (contract_p == 0)
            _assert_same_line(plucker_to_tree(tree_to_plucker(L)), L)


def test_plucker_to_tree_matches_polynomial_twin():
    """The insertion against the quartet-by-quartet split search, at sizes
    beyond the brute twin: valid vectors give the same line, and vectors
    with one entry perturbed give the same line or validate's error."""
    rng = random.Random(32)
    makers = (rand_line, coprime_line, mixed_line)
    vectors = []
    for n in range(4, 31):
        for trial in range(6 if n <= 12 else 2):
            contract_p = (0.0, 0.5)[trial % 2]
            L = makers[(n + trial // 2) % 3](rng, n, contract_p=contract_p)
            vectors.append(tree_to_plucker(L))
    # integer points tie minors, so these vectors give contracted trees
    tied = 0
    for n in range(4, 19):
        A = rand_support(rng, n, degree=None if n <= 10 else 5)
        C = [ProjPoint((rng.randint(-3, 3), rng.randint(-3, 3), 0)) for _ in range(n - 2)]
        verdict, p = solve_minors(A, C)
        tied += not verdict.general
        vectors.append(p)
    assert tied >= 12
    for p in vectors:
        _assert_same_line(plucker_to_tree(p), poly_plucker_to_tree(p))
    broken = 0
    for p in vectors[::3]:
        values = {tuple(sorted(k)): v for k, v in p.values.items()}
        values[rng.choice(sorted(values))] += Fraction(rng.choice((-1, 1)), rng.choice(COPRIME[:3]))
        bad = PlueckerVector(p.n, values)
        try:
            bad.validate()
        except PlueckerError as want:
            broken += 1
            with pytest.raises(PlueckerError) as got:
                plucker_to_tree(bad)
            assert str(got.value) == str(want)
        else:
            _assert_same_line(plucker_to_tree(bad), poly_plucker_to_tree(bad))
    assert broken >= 25


def test_direct_build_equals_the_embed_of_its_splits():
    """`plucker_to_tree` builds its line straight from the insertion tree;
    `poly_plucker_to_tree` still goes through `from_splits` and `embed`.
    Part for part they agree: node ids, D (the least scale), the rows in
    `embed`'s order, the branch table in its order, and the leaf masks
    the direct build fills in."""
    rng = random.Random(33)
    vectors = []
    for n in range(3, 31):
        for maker in (rand_line, coprime_line, mixed_line):
            for contract_p in (0.0, 0.3, 0.7):
                vectors.append(tree_to_plucker(maker(rng, n, contract_p=contract_p)))
    # integer points tie minors, so these vectors give contracted trees
    tied = 0
    for n in range(4, 19):
        for _ in range(2):
            A = rand_support(rng, n, degree=None if n <= 10 else 5)
            C = [ProjPoint((rng.randint(-3, 3), rng.randint(-3, 3), 0)) for _ in range(n - 2)]
            verdict, p = solve_minors(A, C)
            tied += not verdict.general
            vectors.append(p)
    assert tied >= 20
    for p in vectors:
        got, want = plucker_to_tree(p), poly_plucker_to_tree(p)
        assert got.topology.adj == want.topology.adj
        assert got.topology._below() == TreeTopology(p.n, got.topology.adj)._below()
        assert got.D == want.D
        assert list(got.rows.items()) == list(want.rows.items())
        assert list(got._branches.items()) == list(want._branches.items())


def _cherries_vector(delta):
    """Pair coordinates of the line with splits {2,3} and {4,5} at n = 6,
    with p_25 lowered by delta."""
    T = TreeTopology.from_splits(6, [frozenset({2, 3}), frozenset({4, 5})])
    lengths = {frozenset({2, 3}): 2, frozenset({4, 5}): 3}
    L = embed(T, lengths, T.node_of_leaf(1), (0, 1, 4, 2, 7, 5))
    values = {tuple(sorted(k)): v for k, v in tree_to_plucker(L).values.items()}
    values[2, 5] -= delta
    return L, PlueckerVector(6, values)


def test_pair_check_rejects_values_the_insertion_never_uses():
    """Lowering p_25 leaves every g(m, i) that the insertion takes as its
    maximum unchanged, so the tree it builds is the line's; only the check
    of the pair (2, 5) against the root's depth finds the fault.  (A failing
    vector always fails a quartet through leaf 1 first: those quartets are
    exactly the triples of g, and an ultrametric passes every quartet.)"""
    L, same = _cherries_vector(0)
    _assert_same_line(plucker_to_tree(same), L)
    _, bad = _cherries_vector(Fraction(1, 3))
    with pytest.raises(PlueckerError) as want:
        bad.validate()
    assert "quartet (1, 2, 3, 5)" in str(want.value)
    with pytest.raises(PlueckerError) as got:
        plucker_to_tree(bad)
    assert str(got.value) == str(want.value)


def test_failed_pair_check_that_validate_passes_is_internal(monkeypatch):
    _, bad = _cherries_vector(1)
    monkeypatch.setattr(PlueckerVector, "validate", lambda self: None)
    with pytest.raises(InternalError, match="pair check failed"):
        plucker_to_tree(bad)


def test_plucker_to_tree_smallest_sizes():
    # three leaves: a star whose vertex sits at x_1 = p_12 + p_13 - p_23
    p = PlueckerVector(3, {(1, 2): 1, (1, 3): 0, (2, 3): 5})
    L = plucker_to_tree(p)
    assert L.topology == TreeTopology.star(3) and not L.edges
    assert ProjPoint(L.coords_of(4)) == ProjPoint((-4, 1, 0))
    assert tree_to_plucker(L) == p
    with pytest.raises(ValueError, match="at least 3 leaves"):
        plucker_to_tree(PlueckerVector(2, {(1, 2): 0}))


def _circuit_ok(p, x, n):
    for i, j, k in combinations(range(1, n + 1), 3):
        vals = [p.get(j, k) + x[i - 1], p.get(i, k) + x[j - 1], p.get(i, j) + x[k - 1]]
        m = min(vals)
        if sum(1 for t in vals if t == m) < 2:
            return False
    return True


def test_circuit_membership():
    rng = random.Random(26)
    for _ in range(20):
        n = rng.randint(4, 6)
        L = rand_line(rng, n)
        p = tree_to_plucker(L)
        for v in L.topology.internal_nodes:
            assert _circuit_ok(p, L.coords[v], n)
        for a, b, side, ell in L.edges:
            q = L.coords[a]
            for lam in (Fraction(1, 3), Fraction(2, 3)):
                x = [qi + (lam * ell if i + 1 in side else 0) for i, qi in enumerate(q)]
                assert _circuit_ok(p, x, n)
        # off-line points fail
        off = list(L.coords[L.topology.internal_nodes[0]])
        off[0] += Fraction(1, 7)
        off[1] -= Fraction(1, 7)
        if not line_contains(L, ProjPoint(off)):
            assert not _circuit_ok(p, off, n)


def test_split_counts_and_partition():
    rng = random.Random(27)
    for _ in range(20):
        n = rng.randint(4, 8)
        T = rand_topology(rng, n)
        sp = T.splits()
        assert len(sp) == n - 3
        for _, side in sp:
            assert 2 <= len(side) <= n - 2 and n not in side


def test_topology_validation():
    with pytest.raises(ValueError):
        TreeTopology(4, {1: {5}, 2: {5}, 3: {5}, 4: {5}, 5: {1, 2, 3, 4, 6}, 6: {5}})  # 2-valent
    with pytest.raises(ValueError, match="incompatible splits"):
        TreeTopology.from_splits(6, [frozenset({1, 2, 3}), frozenset({3, 4})])


# a triangle 7-8-9 with leaves 1, 2, 3 hung from it, and a star 10 on 4, 5, 6:
# the right edge count and valences, in two pieces
UNCONNECTED6 = {
    1: {7}, 2: {8}, 3: {9}, 7: {1, 8, 9}, 8: {2, 7, 9}, 9: {3, 7, 8},
    4: {10}, 5: {10}, 6: {10}, 10: {4, 5, 6},
}


@pytest.mark.parametrize(
    "n, adj, message",
    [
        (4, {1: {5}, 2: {5}, 3: {5}, 5: {1, 2, 3}}, "missing leaf nodes"),
        (4, {1: {0}, 2: {0}, 3: {0}, 4: {0}, 0: {1, 2, 3, 4}}, "internal node id 0 is not above n = 4"),
        (4, {1: {5}, 2: {5}, 3: {5}, 4: {5}, 5: {1, 2, 3}}, "adjacency is not symmetric"),
        (
            4,
            {1: {5, 6}, 2: {5}, 3: {6}, 4: {6}, 5: {1, 2, 6}, 6: {1, 3, 4, 5}},
            "leaf 1 has valence 2",
        ),
        (
            4,
            {1: {5}, 2: {5}, 3: {5}, 4: {5}, 5: {1, 2, 3, 4, 6}, 6: {5}},
            "internal node 6 has valence 1 < 3",
        ),
        (
            4,
            {1: {5}, 2: {6}, 3: {7}, 4: {7}, 5: {1, 6, 7}, 6: {2, 5, 7}, 7: {3, 4, 5, 6}},
            "not a tree (wrong edge count)",
        ),
        (6, UNCONNECTED6, "not connected"),
    ],
)
def test_topology_validation_messages(n, adj, message):
    with pytest.raises(ValueError) as e:
        TreeTopology(n, adj)
    assert str(e.value) == message


def test_leaves_beyond_partitions_every_edge():
    full = frozenset(range(1, 7))
    for T in enumerate_types(6):
        for a in T.adj:
            for b in T.adj[a]:
                near, far = T.leaves_beyond(b, a), T.leaves_beyond(a, b)
                assert near and far and not near & far and near | far == full


def _relabelled(L, rng):
    """L on a copy of its topology whose internal nodes get other ids."""
    T, n = L.topology, L.n
    old = T.internal_nodes
    new = rng.sample(range(n + 1, n + 1 + 3 * len(old)), len(old))
    ids = dict(zip(old, new)) | {i: i for i in range(1, n + 1)}
    U = TreeTopology(n, {ids[v]: {ids[w] for w in nb} for v, nb in T.adj.items()})
    v = old[0]
    return embed(U, edge_lengths(L), ids[v], L.coords[v])


def _other_split(L, rng):
    """The trivalent L with one split swapped for another resolution of the
    4-valent node left by contracting it; every other length and the
    anchor at leaf 1's node stay the same."""
    T, n = L.topology, L.n
    lengths = edge_lengths(L)
    s = rng.choice(sorted(lengths, key=sorted))
    C = TreeTopology.from_splits(n, [t for t in lengths if t != s])
    (v,) = [v for v in C.internal_nodes if len(C.adj[v]) == 4]
    p1, p2, p3, p4 = C.leaf_partition(v)
    alt = next(u for u in (p1 | p2, p1 | p3) if u != s and frozenset(range(1, n + 1)) - u != s)
    U = TreeTopology.from_splits(n, [t for t in lengths if t != s] + [alt])
    lengths[alt if n not in alt else frozenset(range(1, n + 1)) - alt] = lengths.pop(s)
    a = T.node_of_leaf(1)
    return embed(U, lengths, U.node_of_leaf(1), L.coords[a])


def test_line_equality_and_hash():
    # equal lines: from another anchor, with other node ids, through JSON,
    # translated by (1/3, ..., 1/3); unequal: one split swapped, one
    # coordinate off by 1/(10^12 + 39), or translated by e_1 / 3
    rng = random.Random(30)
    tiny = Fraction(1, COPRIME[-1])
    for _ in range(40):
        n = rng.randint(4, 8)
        L = rand_line(rng, n, contract_p=rng.choice([0, 0.4]))
        T = L.topology
        v = rng.choice(T.internal_nodes)
        same = [
            embed(T, edge_lengths(L), v, L.coords[v]),
            _relabelled(L, rng),
            jsonio.line_from_json(jsonio.line_to_json(L), n),
            L.translate([Fraction(1, 3)] * n),
        ]
        for M in same:
            assert M == L and L == M and hash(M) == hash(L)
        i = rng.randrange(n)
        shifted = tuple(x + (tiny if k == i else 0) for k, x in enumerate(L.coords[v]))
        different = [
            embed(T, edge_lengths(L), v, shifted),
            L.translate([Fraction(1, 3)] + [0] * (n - 1)),
        ]
        if L.edges:
            lengths = edge_lengths(L)
            s = rng.choice(sorted(lengths, key=sorted))
            lengths[s] += tiny
            different.append(embed(T, lengths, v, L.coords[v]))
        if L.edges and T.is_trivalent():
            swapped = _other_split(L, rng)
            assert len(swapped.topology.split_set() ^ T.split_set()) == 2
            different.append(swapped)
        for M in different:
            assert M != L and L != M


def test_edge_rows_differ_by_e_I_modulo_ones():
    # across every edge (a, b) the rows differ by D * length * e_I plus a
    # constant vector, nonzero where `_placed` entered the edge from b: so
    # the minimum of b's row is not that of a's row moved along the edge
    rng = random.Random(91)
    lines = []
    for n in range(4, 10):
        for contract_p in (0, 0.4):
            lines += [rand_line(rng, n, contract_p=contract_p) for _ in range(3)]
    for n in (5, 6, 7):
        A = rand_support(rng, n)
        lines += [realize_type(A, T) for _, T in islice(compatible_types(A), 3)]
        lines += [stable_pencil(A, rand_config(rng, n)) for _ in range(3)]
    shifted = 0
    for L in lines:
        for a, b, side, ell in L.edges:
            lift = {y - x - (L.D * ell if i in side else 0) for i, (x, y) in enumerate(zip(L.rows[a], L.rows[b]), 1)}
            assert len(lift) == 1
            shifted += lift != {0}
    assert shifted > 40


def test_branch_views_are_pinned(SQ, TRI5, HEX6):
    # the views build the (a, b, frozenset, Fraction or None) tuples of the
    # table's masks and integer lengths, the same on a translate
    def first_realized(A):
        return realize_type(A, next(compatible_types(A))[1])

    want = {
        "SQ": [(5, 6, {1, 3}, 1), (5, 2, {2}, None), (5, 4, {4}, None), (6, 1, {1}, None), (6, 3, {3}, None)],
        "TRI5": [
            (6, 7, {1, 4}, Fraction(1, 8)),
            (6, 8, {3, 5}, Fraction(1, 8)),
            (6, 2, {2}, None),
            (7, 1, {1}, None),
            (7, 4, {4}, None),
            (8, 3, {3}, None),
            (8, 5, {5}, None),
        ],
        "HEX6": [
            (7, 8, {1, 4, 6}, Fraction(1, 16)),
            (7, 9, {3, 5}, Fraction(1, 16)),
            (8, 10, {4, 6}, Fraction(1, 16)),
            (7, 2, {2}, None),
            (8, 1, {1}, None),
            (9, 3, {3}, None),
            (9, 5, {5}, None),
            (10, 4, {4}, None),
            (10, 6, {6}, None),
        ],
    }
    lines = {"SQ": make_lsq(), "TRI5": first_realized(TRI5), "HEX6": first_realized(HEX6)}
    for name, L in lines.items():
        branches = [(a, b, frozenset(side), ell) for a, b, side, ell in want[name]]
        edges = [br for br in branches if br[3] is not None]
        for M in (L, L.translate([Fraction(k, 3) for k in range(L.n)])):
            assert M.branches == branches
            assert M.edges == edges
            assert M.rays == [br[:2] for br in branches[len(edges) :]]
            assert [M.edge(br[:2]) for br in branches] == branches
            assert all(type(side) is frozenset and type(ell) in (Fraction, type(None)) for _, _, side, ell in M.branches)
