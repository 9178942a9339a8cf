"""Acceptance suite: the eight exit criteria, one printed line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines.  Every
comparison is exact rational equality; there are no tolerances anywhere.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import (
    component_count,
    neighborhood,
    plant_line,
    point_valence,
    rand_config,
    rand_line,
    rand_support,
    skeleton_bound,
)
from troppencil import plane
from troppencil.compat import (
    construct_configuration,
    count_compatible,
    enumerate_types,
    is_compatible,
    realize_type,
    support_graph,
    unique_matching,
    vertex_fixed_points,
)
from troppencil.core import ProjPoint, SupportSet, min_profile
from troppencil.oracle import brute_tropdet, perturbed_pencil, sampled_fixed
from troppencil.pencil import (
    LinePoint,
    coords_at,
    fixed_locus_pieces,
    is_fixed,
    pi_attachment,
    pi_set,
    skeleton_level,
)
from troppencil.stable import (
    curves_through,
    is_general,
    minor_tropdet,
    stable_pencil,
    tropdet,
    value_matrix,
)

SQ = SupportSet(2, ((0, 0, 2), (1, 0, 1), (0, 1, 1), (1, 1, 0)))
TRI5 = SupportSet.from_rs(2, [(0, 0), (1, 0), (2, 0), (0, 1), (0, 2)])
HEX6 = SupportSet.from_rs(2, [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2)])
FIXTURES = (SQ, TRI5, HEX6)


def report(num, ok, text):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num} failed: {text}"


@pytest.fixture(scope="module")
def realized_instances():
    """Every compatible type of the three fixtures, realized."""
    out = []
    for A in FIXTURES:
        for T in enumerate_types(A.n):
            if is_compatible(T, A):
                out.append((A, realize_type(A, T)))
    return out


def test_criterion_1_square_fixed_loci():
    t0 = time.time()
    L2 = stable_pencil(SQ, [ProjPoint((0, 0, 0)), ProjPoint((1, 1, 0))])
    pieces2 = fixed_locus_pieces(L2, SQ)
    two_points = pieces2 == [
        plane.PointGeom(Fraction(0), Fraction(0)),
        plane.PointGeom(Fraction(1), Fraction(1)),
    ]
    Linf = stable_pencil(SQ, [ProjPoint((0, 0, 0)), ProjPoint((0, 1, 0))])
    piecesinf = fixed_locus_pieces(Linf, SQ)
    segment = piecesinf == [
        plane.SegmentGeom((Fraction(0), Fraction(0)), (Fraction(0), Fraction(1)))
    ]
    elapsed = time.time() - t0
    report(
        1,
        two_points and segment and elapsed < 1.0,
        f"square-fixture loci are the two points and the segment ({elapsed:.2f}s)",
    )


def test_criterion_2_type_counts():
    t0 = time.time()
    ok = (
        len(enumerate_types(4)) == 3
        and count_compatible(SQ) == 2
        and len(enumerate_types(5)) == 15
        and count_compatible(TRI5) == 5
        and len(enumerate_types(6)) == 105
        and count_compatible(HEX6) == 14
    )
    elapsed = time.time() - t0
    report(2, ok and elapsed < 10.0, f"compatible-type counts 2/3, 5/15, 14/105 ({elapsed:.2f}s)")


def test_criterion_3_realization_round_trip(realized_instances):
    t0 = time.time()
    failures = []
    for A, L in realized_instances:
        C = construct_configuration(L, A)
        if not is_general(A, C):
            failures.append((A.n, "not general"))
        if stable_pencil(A, C) != L:
            failures.append((A.n, "stable pencil differs"))
    elapsed = time.time() - t0
    report(
        3,
        not failures and len(realized_instances) == 21 and elapsed < 60.0,
        f"21 realizations round-trip exactly ({elapsed:.1f}s) {failures or ''}",
    )


def test_criterion_4_forward_compatibility():
    rng = random.Random(1001)
    failures = 0
    for A in FIXTURES:
        for _ in range(200):
            C = rand_config(rng, A.n)
            L = stable_pencil(A, C)
            if not is_compatible(L, A):
                failures += 1
            if not curves_through(A, C, L):
                failures += 1
            if any(not is_fixed(L, A, P) for P in C):
                failures += 1
    report(4, failures == 0, f"600 random configurations, {failures} failures")


def test_criterion_5_oracle_equivalences():
    rng = random.Random(1002)
    bad = 0
    for _ in range(1000):
        k = rng.randint(1, 6)
        if rng.random() < 0.5:
            M = [[Fraction(rng.randint(0, 3)) for _ in range(k)] for _ in range(k)]
        else:
            M = [
                [Fraction(rng.randint(-20, 20), rng.randint(1, 3)) for _ in range(k)]
                for _ in range(k)
            ]
        value, mult = brute_tropdet(M)
        res = tropdet(M)
        if res.value != value or res.unique != (mult == 1):
            bad += 1
    for _ in range(1000):
        n = rng.randint(4, 6)
        A = rand_support(rng, n)
        if rng.random() < 0.4:
            C = rand_config(rng, n)
            L = stable_pencil(A, C)
            P = C[rng.randrange(len(C))] if rng.random() < 0.5 else ProjPoint(
                (rng.randint(-6, 6), rng.randint(-6, 6), 0)
            )
        else:
            L = rand_line(rng, n)
            P = ProjPoint(
                (Fraction(rng.randint(-8, 8), rng.randint(1, 3)),
                 Fraction(rng.randint(-8, 8), rng.randint(1, 3)), 0)
            )
        if is_fixed(L, A, P) != sampled_fixed(L, A, P):
            bad += 1
    for trial in range(200):
        n = rng.randint(4, 6)
        A = rand_support(rng, n)
        if rng.random() < 0.5:
            C = [ProjPoint((rng.randint(-3, 3), rng.randint(-3, 3), 0)) for _ in range(n - 2)]
        else:
            C = rand_config(rng, n)
        if perturbed_pencil(A, C, seed=trial) != stable_pencil(A, C):
            bad += 1
    report(5, bad == 0, f"2200 oracle comparisons, {bad} mismatches")


def test_criterion_6_skeleton_suite():
    rng = random.Random(1003)
    violations = 0
    for _ in range(500):
        n = rng.randint(4, 6)
        t = rng.randint(1, 3)
        G, p, I = plant_line(rng, n, t)
        if skeleton_level(G) < t:
            violations += 1
        if pi_attachment(G, I) != LinePoint("vertex", p):
            violations += 1
        attachments = set()
        for mask in range(1, 2 ** n):
            J = frozenset(i + 1 for i in range(n) if mask >> i & 1)
            S = pi_set(G, J)
            if component_count(S) > 1:
                violations += 1
            if S.is_empty():
                continue
            attachments.add(pi_attachment(G, J))
        if len(attachments) != 1:
            violations += 1
            continue
        pi = attachments.pop()
        lvl = skeleton_level(G)
        m = point_valence(G, pi)
        mult = min_profile(coords_at(G, pi)).multiplicity
        if mult < skeleton_bound(m, lvl):
            violations += 1
    report(6, violations == 0, f"500 planted lines, {violations} violations")


def test_criterion_7_stable_vertices_triple_minimum():
    rng = random.Random(1004)
    violations = 0
    for _ in range(200):
        n = rng.randint(4, 6)
        A = rand_support(rng, n)
        C = rand_config(rng, n)
        L = stable_pencil(A, C)
        M = value_matrix(A, C)
        for v in L.topology.internal_nodes:
            coords = L.coords[v]
            best = 0
            for row in M:
                vals = [coords[l - 1] + row[l - 1] for l in range(1, n + 1)]
                best = max(best, min_profile(vals).multiplicity)
            if best < 3:
                violations += 1
    report(7, violations == 0, f"200 stable pencils, {violations} vertices without a triple minimum")


def test_criterion_8_support_graph_suite(realized_instances):
    violations = []
    for A, L in realized_instances:
        n = A.n
        pv = vertex_fixed_points(L, A)
        M = value_matrix(A, list(pv.values()))
        rows = {v: k for k, v in enumerate(pv)}
        for v in L.topology.internal_nodes:
            G = support_graph(L, A, v)
            if len(G.edges) != 2 * n - 3:
                violations.append("G_v edge count")
            if G.component_count() != 1 or not G.is_forest():
                violations.append("G_v not a tree")
        for i, j in combinations(range(1, n + 1), 2):
            c = _path_point(L, i, j)
            G = support_graph(L, A, c)
            if G.component_count() != 2 or not G.is_forest():
                violations.append("G_c genus/components")
            rest = [l for l in range(1, n + 1) if l not in (i, j)]
            if n <= 6:
                for size in range(len(rest) + 1):
                    for B in combinations(rest, size):
                        if len(neighborhood(G, B)) < len(B):
                            violations.append("Hall condition")
            psi = unique_matching(G, (i, j))
            total = sum(M[rows[v]][psi[v] - 1] for v in psi)
            res = minor_tropdet(M, n, i, j)
            if total != res.value or not res.unique:
                violations.append("matching/tropdet mismatch")
    report(8, not violations, f"support-graph suite over 21 instances {violations or ''}")


def _path_point(L, i, j):
    topo = L.topology
    path = topo.path(topo.node_of_leaf(i), topo.node_of_leaf(j))
    internal = [(a, b) if a < b else (b, a) for a, b in zip(path, path[1:])]
    if internal:
        key = internal[len(internal) // 2]
        ell = next(e[3] for e in L.edges if (e[0], e[1]) == key)
        return LinePoint("edge", key, ell / 2)
    return LinePoint("ray", (topo.node_of_leaf(i), i), Fraction(1))
