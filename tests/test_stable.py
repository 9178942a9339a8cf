import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from conftest import (
    PRIMES,
    coprime_rational,
    edge_lengths,
    locus_draw,
    prime_rational,
    rand_config,
    rand_support,
)
from troppencil import stable
from troppencil.compat import compatible_types, realize_type
from troppencil.core import InternalError, ProjPoint, TropError
from troppencil.oracle import brute_tropdet
from troppencil.pencil import is_fixed
from troppencil.stable import (
    curves_through,
    is_general,
    minor_columns,
    minor_tropdet,
    plucker_of_config,
    solve_minors,
    stable_pencil,
    tropdet,
    value_matrix,
)
from troppencil.trees import TreeTopology, embed


@pytest.mark.parametrize("coords", [(2, 1, 7, 0), (1, 0)])
def test_configuration_points_must_lie_in_tp2(SQ, coords):
    # is_general read the first two coordinates of a point of TP^3 and
    # called (0, 0, 5, 0), (2, 1, 7, 0) general on SQ
    config = [ProjPoint((0, 0, 0)), ProjPoint(coords)]
    for query in (value_matrix, is_general, solve_minors, stable_pencil):
        with pytest.raises(ValueError) as info:
            query(SQ, config)
        assert str(info.value) == f"configuration point 1 has {len(coords)} coordinates, not 3"


def test_value_matrix_examples(SQ, TRI, CFG):
    assert value_matrix(SQ, CFG) == [[0, 0, 0, 0], [0, 2, 1, 3]]
    assert value_matrix(SQ, [ProjPoint((0, 0, 0)), ProjPoint((1, 1, 0))]) == [
        [0, 0, 0, 0],
        [0, 1, 1, 2],
    ]
    assert value_matrix(TRI, [ProjPoint((0, 0, 0))]) == [[0, 0, 0]]
    with pytest.raises(ValueError):
        value_matrix(SQ, [ProjPoint((0, 0, 0))])


def test_tropdet_examples():
    r = tropdet([[0, 0], [1, 1]])
    assert r.value == 1 and not r.unique
    r = tropdet([[0, 0], [1, 3]])
    assert r.value == 1 and r.unique
    r = tropdet([[Fraction(5, 2)]])
    assert r.value == Fraction(5, 2) and r.unique


def test_tropdet_against_enumeration():
    rng = random.Random(51)
    for _ in range(300):
        k = rng.randint(1, 5)
        if rng.random() < 0.5:
            M = [[Fraction(rng.randint(0, 3)) for _ in range(k)] for _ in range(k)]
        else:
            M = [
                [Fraction(rng.randint(-20, 20), rng.randint(1, 3)) for _ in range(k)]
                for _ in range(k)
            ]
        res = tropdet(M)
        best, mult = None, 0
        for perm in permutations(range(k)):
            s = sum(M[i][perm[i]] for i in range(k))
            if best is None or s < best:
                best, mult = s, 1
            elif s == best:
                mult += 1
        assert res.value == best
        assert res.unique == (mult == 1)
        assert sum(M[i][res.assignment[i]] for i in range(k)) == best


def test_is_general_examples(SQ, TRI, CFG):
    assert is_general(SQ, CFG).general
    verdict = is_general(SQ, [ProjPoint((0, 0, 0)), ProjPoint((1, 1, 0))])
    assert not verdict.general and verdict.singular_pair == (1, 4)
    assert is_general(TRI, [ProjPoint((7, -3, 0))]).general


def test_stable_pencil_fixture(SQ, CFG, LSQ):
    p = plucker_of_config(SQ, CFG)
    assert [p.get(i, j) for i, j in combinations(range(1, 5), 2)] == [1, 2, 1, 0, 0, 0]
    assert stable_pencil(SQ, CFG) == LSQ


def test_stable_pencil_triangle(TRI):
    P = ProjPoint((4, -1, 0))
    L = stable_pencil(TRI, [P])
    assert L.topology == TreeTopology.star(3)
    v = L.topology.internal_nodes[0]
    # the pencil of min-plus lines through P is the star at -P
    assert ProjPoint(L.coords[v]) == ProjPoint((-P[0], -P[1], 0))


def test_stable_pencil_degenerate_fixtures(SQ):
    L2 = stable_pencil(SQ, [ProjPoint((0, 0, 0)), ProjPoint((1, 1, 0))])
    assert L2.topology == TreeTopology.star(4)
    assert ProjPoint(L2.coords[L2.topology.internal_nodes[0]]) == ProjPoint((1, 0, 0, 0))
    Linf = stable_pencil(SQ, [ProjPoint((0, 0, 0)), ProjPoint((0, 1, 0))])
    assert Linf.topology == TreeTopology.from_splits(4, [frozenset({1, 2})])
    assert edge_lengths(Linf) == {frozenset({1, 2}): Fraction(1)}


def test_curves_through_examples(SQ, TRI, CFG, LSQ):
    assert curves_through(SQ, CFG, LSQ)
    star = embed(TreeTopology.star(3), {}, 4, (0, 0, 0))
    assert curves_through(TRI, [ProjPoint((0, 0, 0))], star)
    shifted = LSQ.translate((1, 0, 0, 0))
    assert not curves_through(SQ, CFG, shifted)


def test_plucker_validity_for_any_configuration():
    rng = random.Random(52)
    for _ in range(80):
        n = rng.randint(4, 6)
        A = rand_support(rng, n)
        if rng.random() < 0.5:
            C = [ProjPoint((rng.randint(-3, 3), rng.randint(-3, 3), 0)) for _ in range(n - 2)]
        else:
            C = rand_config(rng, n)
        plucker_of_config(A, C).validate()  # stable_pencil never errors
        stable_pencil(A, C)


def test_general_configurations_have_fixed_points():
    rng = random.Random(53)
    done = 0
    while done < 25:
        n = rng.randint(4, 6)
        A = rand_support(rng, n)
        C = rand_config(rng, n)
        if not is_general(A, C):
            continue
        done += 1
        L = stable_pencil(A, C)
        assert curves_through(A, C, L)
        for P in C:
            assert is_fixed(L, A, P)


def test_configurations_drawn_from_the_fixed_locus():
    """The general configurations whose stable pencil is L are the general
    (n - 2)-tuples of L's fixed locus.  Lines are realized types and
    stable pencils of integer configurations; every drawn point is fixed,
    every general draw has stable pencil L, and a general draw with one
    point moved off the locus has another pencil when it stays general."""
    rng = random.Random(72)
    draws = general = moved = 0
    for trial in range(300):
        n = rng.randint(5, 8)
        A = rand_support(rng, n, 3)
        if trial % 2:
            types = [T for _, T in compatible_types(A)]
            if not types:
                continue
            L = realize_type(A, rng.choice(types))
        else:
            L = stable_pencil(A, [ProjPoint((rng.randint(-3, 3), rng.randint(-3, 3), 0)) for _ in range(n - 2)])
        for _ in range(4):
            C = locus_draw(rng, L, A)
            if C is None:
                break
            draws += 1
            assert all(is_fixed(L, A, P) for P in C)
            if not is_general(A, C):
                continue
            general += 1
            assert stable_pencil(A, C) == L
            k = rng.randrange(n - 2)
            Q = ProjPoint((C[k][0] + Fraction(1, 7), C[k][1] + Fraction(1, 11), 0))
            C[k] = Q
            if not is_fixed(L, A, Q) and is_general(A, C):
                moved += 1
                assert stable_pencil(A, C) != L
    assert draws >= 1000 and general >= 300 and moved >= 300, (draws, general, moved)


def test_minor_tropdet_indices(SQ, CFG):
    M = value_matrix(SQ, CFG)
    res = minor_tropdet(M, 4, 1, 2)
    assert res.value == 1 and res.unique
    assert sorted(res.assignment) == [3, 4]


def _planted_tie(rng, k, near):
    """A k x k matrix whose optimum is a tie between two bijections that
    differ on one cycle, visible only after clearing denominators (like
    1/3 + 2/3 against 1); with `near`, one of them is worse by 1/(p q)."""
    sigma = list(range(k))
    rng.shuffle(sigma)
    cyc = rng.sample(range(k), rng.randint(2, k))  # rows rotated by tau
    tau = sigma[:]
    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
        tau[a] = sigma[b]
    cells = {(i, sigma[i]) for i in range(k)} | {(i, tau[i]) for i in range(k)}
    # off the two bijections every entry exceeds any sum along them
    M = [[10**9 + abs(prime_rational(rng)) for _ in range(k)] for _ in range(k)]
    for i, j in cells:
        M[i][j] = prime_rational(rng, PRIMES[:8]) / 1000
    gap = sum(M[i][sigma[i]] for i in cyc) - sum(M[i][tau[i]] for i in cyc)
    M[cyc[0]][tau[cyc[0]]] += gap
    if near:
        p, q = rng.sample(PRIMES, 2)
        M[cyc[-1]][tau[cyc[-1]]] += Fraction(rng.choice((-1, 1)), p * q)
    return M


def test_tropdet_scaled_denominators_against_brute():
    """Large prime denominators make the common denominator a big
    product; planted ties and near-ties check that scaling keeps every
    tie exact."""
    rng = random.Random(61)
    seen_tie = seen_near = 0
    for k in range(1, 9):
        for trial in range(16 if k < 7 else 4):
            style = trial % 4
            if k >= 2 and style in (1, 2):
                M = _planted_tie(rng, k, near=style == 2)
            elif style == 3:
                # few distinct values over coprime denominators: natural ties
                vals = [Fraction(a, p) for a in (1, 2) for p in (3, 5, 7)] + [Fraction(1)]
                M = [[rng.choice(vals) for _ in range(k)] for _ in range(k)]
            else:
                M = [[prime_rational(rng) for _ in range(k)] for _ in range(k)]
            res = tropdet(M)
            best, mult = brute_tropdet(M)
            assert isinstance(res.value, Fraction)
            assert res.value == best
            assert res.unique == (mult == 1)
            assert sum(M[i][res.assignment[i]] for i in range(k)) == best
            if k >= 2 and style == 1:
                assert mult >= 2
                seen_tie += 1
            if k >= 2 and style == 2:
                assert mult == 1
                seen_near += 1
    assert seen_tie and seen_near


def test_solve_minors_against_brute_minors():
    """Minor by minor against enumeration.  The value matrix is scaled to
    integers once, so mixed coprime denominators check that each optimum
    is divided by that one scale; integer grids tie minors."""
    rng = random.Random(62)
    singular_configs = 0
    for trial in range(48):
        n = 5 + trial % 4
        A = rand_support(rng, n)
        style = trial // 4 % 3
        if style == 0:
            C = [ProjPoint((rng.randint(-3, 3), rng.randint(-3, 3), 0)) for _ in range(n - 2)]
        elif style == 1:
            C = rand_config(rng, n)
        else:
            C = [ProjPoint((coprime_rational(rng), coprime_rational(rng), 0)) for _ in range(n - 2)]
        verdict, p = solve_minors(A, C)
        M = value_matrix(A, C)
        brute = {
            (i, j): brute_tropdet([[row[c - 1] for c in minor_columns(n, i, j)] for row in M])
            for i, j in combinations(A.indices(), 2)
        }
        # the Pluecker vector is normalized to p_{n-1,n} = 0
        ref = brute[(n - 1, n)][0]
        singular = None
        for (i, j), (best, mult) in brute.items():
            assert p.get(i, j) == best - ref
            if singular is None and mult > 1:
                singular = (i, j)
        assert verdict.general == (singular is None)
        assert verdict.singular_pair == singular
        assert is_general(A, C) == verdict
        singular_configs += singular is not None
    assert singular_configs >= 10  # the integer grids tie minors


def test_failed_optimality_check_is_internal_error():
    # column potentials (0, 0) with row potentials (0, 0) are feasible, but
    # the matching (1, 0) is not tight on them
    with pytest.raises(InternalError) as info:
        stable._zeros([[0, 1], [1, 0]], [0, 0], [0, 0, 0], [1, 0, -1], range(2))
    assert not isinstance(info.value, (ValueError, TropError))
    # a free column has no tightness test: row 1's reduced cost 1 there is
    # fine, but a reduced cost -1 is below its potential 0
    assert stable._zeros([[0, 0], [0, 1]], [0, 0], [0, 0, 0], [0, -1, -1], range(2)) == {
        0: [0, 1],
        1: [0],
    }
    with pytest.raises(InternalError) as info:
        stable._zeros([[0, 0], [-1, 0]], [0, 0], [0, 0, 0], [0, -1, -1], range(2))
    assert not isinstance(info.value, (ValueError, TropError))


def _minor_configs(rng, ns, degrees=lambda n: (3, 3, 4, 4) if n <= 10 else (4, 4)):
    """(A, C) per n in ns and per degree in `degrees(n)` (by default two
    degree-3 supports where n fits, n <= 10, and two degree-4 ones), each
    with small integer grid points (ties), generic rationals and mixed
    coprime denominators."""
    for n in ns:
        for degree in degrees(n):
            A = rand_support(rng, n, degree)
            yield A, [ProjPoint((rng.randint(-3, 3), rng.randint(-3, 3), 0)) for _ in range(n - 2)]
            yield A, rand_config(rng, n)
            yield A, [ProjPoint((coprime_rational(rng), coprime_rational(rng), 0)) for _ in range(n - 2)]


def _walk_against_twin(A, C) -> int:
    """The minor walk against `minor_tropdet` solving each minor alone from
    the rational value matrix: every value, every uniqueness flag (from
    the per-column step, on every column), the first singular pair.
    Returns the number of tied minors."""
    n = A.n
    M = value_matrix(A, C)
    twin = {(i, j): minor_tropdet(M, n, i, j) for i, j in combinations(A.indices(), 2)}
    D, N = stable._integer_rows(A, C)
    walk = list(stable._minors(N))
    values = {pair: total for minors, _ in walk for pair, total in minors.items()}
    flags = [flag for _, graph in walk for flag in stable._flags(*graph)]
    assert list(values) == [pair for pair, _ in flags] == list(twin)
    for pair, unique in flags:
        assert Fraction(values[pair], D) == twin[pair].value
        assert unique == twin[pair].unique
    singular = next((pair for pair, res in twin.items() if not res.unique), None)
    verdict, p = solve_minors(A, C)
    assert verdict.singular_pair == singular and is_general(A, C) == verdict
    ref = twin[(n - 1, n)].value
    assert all(p.get(i, j) == res.value - ref for (i, j), res in twin.items())
    return sum(not res.unique for res in twin.values())


def _column_count(graph):
    """The per-column path count of one erased column's graph: None when
    its column digraph has a cycle."""
    _, zeros, _, match = graph
    return stable._paths(stable._arcs(zeros, None, {}, match), (-1,))


def test_per_column_uniqueness_matches_per_minor_search():
    """At every erased column, the per-column flag of every minor, after
    the first singular pair too, equals the alternating-cycle search on
    that minor's own arcs and the per-pair twin; cyclic columns, a path
    count of 1 and one of 2 or more all occur."""
    rng = random.Random(71)
    fits = lambda n: [next(d for d in range(3, 8) if (d + 1) * (d + 2) // 2 >= n + 3)]
    configs = list(_minor_configs(rng, range(4, 16), lambda n: (3, 4) if n <= 10 else (4,)))
    configs += _minor_configs(rng, (18, 24, 30), fits)
    seen = {"cyclic": 0, "one": 0, "two": 0}
    for A, C in configs:
        M = value_matrix(A, C)
        for _, graph in stable._minors(stable._integer_rows(A, C)[1]):
            _, zeros, parent, match = graph
            count = _column_count(graph)
            for (a, b), unique in stable._flags(*graph):
                j = b - 1
                arcs = stable._arcs(zeros, j, stable._moved(parent, match, j), match)
                assert unique == (stable._paths(arcs, ()) is not None)
                assert unique == minor_tropdet(M, A.n, a, b).unique
                if count is None:
                    seen["cyclic"] += 1
                else:
                    seen["one" if count[match[j]] == 1 else "two"] += 1
    assert all(seen.values()), seen


def test_minor_walk_matches_per_pair_minors_beyond_brute_cap():
    """The walk against the per-pair twin at sizes enumeration cannot
    reach."""
    rng = random.Random(63)
    tied = sum(_walk_against_twin(A, C) for A, C in _minor_configs(rng, range(9, 16)))
    assert tied > 100  # the integer grids tie minors


def test_minor_walk_matches_per_pair_minors_at_scale():
    """The walk against the per-pair twin at n = 18, 24 and 30, one support
    of the least degree that fits n points, with each kind of points."""
    rng = random.Random(68)
    fits = lambda n: [next(d for d in range(3, 8) if (d + 1) * (d + 2) // 2 >= n + 3)]
    tied = sum(_walk_against_twin(A, C) for A, C in _minor_configs(rng, (18, 24, 30), fits))
    assert tied > 100  # the integer grids tie minors


def _early_singular(rng, ns):
    """(A, C, singular pair) per n in ns: integer grid points whose first
    singular pair comes before the last minor (n - 1, n)."""
    for n in ns:
        while True:
            A = rand_support(rng, n, 3)
            C = [ProjPoint((rng.randint(-3, 3), rng.randint(-3, 3), 0)) for _ in range(n - 2)]
            singular = is_general(A, C).singular_pair
            if singular not in (None, (n - 1, n)):
                yield A, C, singular
                break


def test_optimality_scan_covers_minors_after_the_first_singular_pair(monkeypatch):
    """A shortest-path tree corrupted for the last minor alone still raises
    InternalError in solve_minors, after its first singular pair;
    is_general stops at that pair and never reaches it."""
    tree = stable._tree
    for A, C, singular in _early_singular(random.Random(66), range(5, 11)):
        n = A.n

        def corrupted(columns, u, v, match, f, cols):
            dist, parent = tree(columns, u, v, match, f, cols)
            if list(cols) == [*range(n - 2), n - 1]:  # support column n - 1 erased: minor (n - 1, n)
                c = next(c for c in cols if c != f)
                dist[c] += 1  # the arc from c's row to parent[c] turns negative
            return dist, parent

        monkeypatch.setattr(stable, "_tree", corrupted)
        with pytest.raises(InternalError, match="potentials are not optimal"):
            solve_minors(A, C)
        assert is_general(A, C).singular_pair == singular
        monkeypatch.setattr(stable, "_tree", tree)


@pytest.mark.parametrize("delta", [-1, 1])
def test_tree_with_one_distance_off_by_one_raises(monkeypatch, delta):
    """One dist of one erased column's shortest-path tree moved by one, on
    a column some minor of that tree erases, raises InternalError: a dist
    too large makes a reduced cost negative in the scan, one too small
    leaves an arc of that minor's flipped path not tight."""
    tree = stable._tree
    rng = random.Random(69)
    for n in (5, 6, 7, 8):
        A = rand_support(rng, n, 3)
        grid = [ProjPoint((rng.randint(-3, 3), rng.randint(-3, 3), 0)) for _ in range(n - 2)]
        for C in (rand_config(rng, n), grid):
            N = stable._integer_rows(A, C)[1]
            for i in range(n - 2):
                for q in range(n - 2 - i):  # columns after i other than f, at least n - 2 - i

                    def mutant(columns, u, v, match, f, cols):
                        dist, parent = tree(columns, u, v, match, f, cols)
                        if i not in cols:
                            dist[[c for c in cols if c > i and c != f][q]] += delta
                        return dist, parent

                    monkeypatch.setattr(stable, "_tree", mutant)
                    with pytest.raises(InternalError, match="potentials are not optimal"):
                        list(stable._minors(N))
            monkeypatch.setattr(stable, "_tree", tree)


def test_cycle_search_stops_at_the_first_singular_pair(monkeypatch):
    """solve_minors and is_general run the per-column uniqueness search on
    the erased columns up to the one that holds the first singular pair,
    and on none after it."""
    rng = random.Random(67)
    cases = [(A, C) for A, C, _ in _early_singular(rng, range(5, 11))]
    cases += [(A, rand_config(rng, A.n)) for A, _ in cases]  # mostly general
    paths, columns = stable._paths, []

    def counted(succ, ends):
        if ends:  # the per-column count, to the free column's row -1
            columns.append(succ)
        return paths(succ, ends)

    monkeypatch.setattr(stable, "_paths", counted)
    general = 0
    for A, C in cases:
        singular = is_general(A, C).singular_pair
        general += singular is None
        want = A.n - 1 if singular is None else singular[0]  # erased columns searched
        assert len(columns) == want
        columns.clear()
        verdict, _ = solve_minors(A, C)
        assert verdict.singular_pair == singular and len(columns) == want
        columns.clear()
    assert 0 < general < len(cases)


def test_arcs_are_built_only_for_the_cycle_search(monkeypatch):
    """solve_minors builds a minor's own reduced-zero arcs only for the
    fallback minors of a cyclic column, up to the first singular pair, and
    one column digraph per erased column up to that pair's column.  The
    first cyclic column holds that pair, so the fallback runs on one
    column at most."""
    arcs, built = stable._arcs, []

    def counted(zeros, j, moved, match):
        built.append(j)
        return arcs(zeros, j, moved, match)

    fallbacks = 0
    for A, C, singular in _early_singular(random.Random(70), [*range(5, 11)] * 3):
        want = []
        for _, graph in stable._minors(stable._integer_rows(A, C)[1]):
            i, _, _, match = graph
            want.append(None)  # the column digraph
            if _column_count(graph) is None:  # only the pair's column can have a cycle
                assert i == singular[0] - 1
                want += [j for j in range(i + 1, singular[1]) if match[j] >= 0]
            if i == singular[0] - 1:
                break
        fallbacks += len(want) - want.count(None)
        monkeypatch.setattr(stable, "_arcs", counted)
        solve_minors(A, C)
        monkeypatch.setattr(stable, "_arcs", arcs)
        assert built == want
        built.clear()
    assert fallbacks >= 5  # columns holding the pair are often cyclic


def _check_optimal(M, u, v, match, cols):
    """The potentials are feasible on cols, tight on the matching, <= 0 on
    every column and 0 on the free ones; returns the matching's sum."""
    assert sorted(match[c] for c in cols if match[c] >= 0) == list(range(len(M)))
    rows = {match[c]: c for c in cols if match[c] >= 0}
    for r, row in enumerate(M):
        for c in cols:
            red = row[c] - u[r] - v[c]
            assert red >= 0 and (red == 0 or rows[r] != c)
    assert all(v[c] <= 0 for c in cols)
    assert all(v[c] == 0 for c in cols if match[c] < 0)
    return sum(M[r][c] for r, c in rows.items())


def _brute_rectangular(M, cols):
    return min(sum(row[c] for row, c in zip(M, p)) for p in permutations(cols, len(M)))


def test_rectangular_assignment_kernel():
    """One phase per row solves k x m problems (k <= m <= k + 3); erasing
    any column of a solved state and running one phase for the row it
    freed gives the optimum of the reduced matrix."""
    # among equal columns the first in index order wins
    assert stable._assignment([[0] * 5 for _ in range(3)])[2][:5] == [0, 1, 2, -1, -1]
    rng = random.Random(64)
    for trial in range(120):
        k = rng.randint(1, 6)
        m = rng.randint(k, k + 3)
        span = rng.choice((2, 40))  # small spans tie
        M = [[rng.randint(-span, span) for _ in range(m)] for _ in range(k)]
        u, v, match = stable._assignment(M)
        assert _check_optimal(M, u, v, match, range(m)) == _brute_rectangular(M, range(m))
        if m == k:
            continue
        for c in range(m):
            cols = [x for x in range(m) if x != c]
            state = stable._drop(M, u, v, match, c, cols)
            reduced = [row[:c] + row[c + 1 :] for row in M]
            want = _check_optimal(reduced, *stable._assignment(reduced), range(m - 1))
            assert _check_optimal(M, *state, cols) == want == _brute_rectangular(M, cols)


@pytest.mark.parametrize("n", [7, 10, 12])
def test_minor_walk_phase_count(monkeypatch, n):
    """One solve_minors takes at most one phase per row of the rectangular
    solve and one per first erased column, none per minor."""
    phases = 0
    phase = stable._phase

    def counted(*args):
        nonlocal phases
        phases += 1
        phase(*args)

    monkeypatch.setattr(stable, "_phase", counted)
    rng = random.Random(65 + n)
    A = rand_support(rng, n, 3 if n <= 10 else 4)
    solve_minors(A, rand_config(rng, n))
    assert 0 < phases <= (n - 2) + (n - 1)
