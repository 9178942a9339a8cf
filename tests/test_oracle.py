import random
import re
from fractions import Fraction

import pytest

from conftest import (
    coprime_line,
    locus_contains,
    locus_points,
    make_lsq,
    plant_line,
    rand_config,
    rand_line,
    rand_proj_point,
    rand_rational,
    rand_support,
)
from troppencil import plane
from troppencil.core import ProjPoint, TropError
from troppencil.oracle import (
    EpsRational,
    brute_fixed_locus,
    brute_pi_attachment,
    brute_pi_set,
    brute_tropdet,
    perturbed_pencil,
    sampled_fixed,
)
from troppencil.pencil import (
    LinePoint,
    _argmins,
    _leaf_mask,
    _scaled_pi,
    fixed_locus,
    is_fixed,
    pi_attachment,
    pi_gamma,
    pi_gamma_location,
    pi_set,
    shifted_line,
    skeleton_level,
)
from troppencil.stable import is_general, stable_pencil, tropdet
from troppencil.trees import TreeTopology, embed


def test_eps_rational_ordering_and_ring():
    a = EpsRational(1, -2)
    b = EpsRational(1, 1)
    assert a < b and a != b and a <= a
    assert a < 2 and a > 0 and not (a > 1)  # lexicographic against plain numbers
    assert (a + b) == EpsRational(2, -1)
    assert (a - b) == EpsRational(0, -3)
    assert a * b == EpsRational(1, -1)  # second order truncated
    assert 3 * a == EpsRational(3, -6)
    assert max(a, b) == b and min(a, b) == a
    assert EpsRational(Fraction(1, 2)) == Fraction(1, 2)


def test_brute_tropdet_examples():
    assert brute_tropdet([[0, 0], [1, 1]]) == (1, 2)
    assert brute_tropdet([[0, 0], [1, 3]]) == (1, 1)
    assert brute_tropdet([[Fraction(5, 3)]]) == (Fraction(5, 3), 1)
    with pytest.raises(TropError):
        brute_tropdet([[0] * 9 for _ in range(9)])


def test_sampled_fixed_examples(SQ, TRI):
    L = make_lsq()
    assert sampled_fixed(L, SQ, ProjPoint((0, 0, 0)))
    assert not sampled_fixed(L, SQ, ProjPoint((5, 5, 0)))
    star = embed(TreeTopology.star(3), {}, 4, (0, 0, 0))
    assert sampled_fixed(star, TRI, ProjPoint((0, 0, 0)))


def test_tropdet_matches_brute_random():
    rng = random.Random(71)
    for _ in range(250):
        k = rng.randint(1, 6)
        if rng.random() < 0.5:
            M = [[Fraction(rng.randint(0, 3)) for _ in range(k)] for _ in range(k)]
        else:
            M = [
                [Fraction(rng.randint(-15, 15), rng.randint(1, 3)) for _ in range(k)]
                for _ in range(k)
            ]
        value, mult = brute_tropdet(M)
        res = tropdet(M)
        assert res.value == value and res.unique == (mult == 1)


def test_is_fixed_matches_sampled_random():
    rng = random.Random(72)
    for _ in range(250):
        n = rng.randint(4, 6)
        A = rand_support(rng, n)
        if rng.random() < 0.4:
            C = rand_config(rng, n)
            L = stable_pencil(A, C)
            P = C[rng.randrange(len(C))] if rng.random() < 0.6 else ProjPoint(
                (rng.randint(-6, 6), rng.randint(-6, 6), 0)
            )
        else:
            L = rand_line(rng, n)
            P = ProjPoint(
                (Fraction(rng.randint(-8, 8), rng.randint(1, 3)),
                 Fraction(rng.randint(-8, 8), rng.randint(1, 3)), 0)
            )
        assert is_fixed(L, A, P) == sampled_fixed(L, A, P)
    # lines over 5 and 7 and points over 11 and 13, so that a scale missing
    # a denominator shows; L - A.Q is fixed at P + Q iff L is fixed at P
    fixed = 0
    for m in range(80):
        n = 4 + m % 5
        A = rand_support(rng, n)
        L = coprime_line(rng, n, contract_p=0.4 * (m % 2))
        qx, qy = Fraction(rng.randint(-40, 40), 11), Fraction(rng.randint(-40, 40), 13)
        LQ = shifted_line(L, A, ProjPoint((-qx, -qy, 0)))
        points = locus_points(L, A)[:3] + [
            ProjPoint((Fraction(rng.randint(-60, 60), 11), Fraction(rng.randint(-60, 60), 13), 0))
            for _ in range(2)
        ]
        for P in points:
            want = sampled_fixed(L, A, P)
            assert is_fixed(L, A, P) == want
            PQ = ProjPoint((P[0] + qx, P[1] + qy, 0))
            assert is_fixed(LQ, A, PQ) == sampled_fixed(LQ, A, PQ) == want
            fixed += want
    assert fixed >= 100


def test_fixed_locus_matches_brute(SQ):
    # the integer candidate test keeps exactly the systems plane.solve keeps,
    # so the cells agree one by one and in order
    # (line, support, configuration points the locus must hold)
    cases = [(make_lsq(), SQ, ())]
    for Q in ((1, 1, 0), (0, 1, 0)):
        C = [ProjPoint((0, 0, 0)), ProjPoint(Q)]
        cases.append((stable_pencil(SQ, C), SQ, C))
    rng = random.Random(74)
    for n in range(4, 19):
        degree = 3 if n <= 10 else 5
        for contract_p in (0.0, 0.5):
            cases.append((rand_line(rng, n, contract_p=contract_p), rand_support(rng, n, degree), ()))
        A = rand_support(rng, n, degree)
        C = rand_config(rng, n)
        while not is_general(A, C):
            C = rand_config(rng, n)
        cases.append((stable_pencil(A, C), A, C))
        if n <= 9:
            for m in range(6):
                L = (coprime_line if m % 2 else rand_line)(rng, n, contract_p=0.4 * (m % 3))
                cases.append((L, rand_support(rng, n), ()))
    counts = {"vertex": 0, "edge": 0, "line": 0}
    for L, A, C in cases:
        cells = fixed_locus(L, A)
        assert cells == brute_fixed_locus(L, A)
        for cell in cells:
            counts[cell.witness[0]] += 1
            counts["line"] += not isinstance(cell.geometry, plane.PointGeom)
        assert all(locus_contains(cells, P) for P in C)
    assert counts["vertex"] >= 300 and counts["edge"] >= 60 and counts["line"] >= 20


def test_perturbed_pencil_fixtures(SQ, CFG, LSQ):
    assert perturbed_pencil(SQ, CFG) == LSQ  # perturbation unnecessary but harmless
    degallel = [ProjPoint((0, 0, 0)), ProjPoint((1, 1, 0))]
    assert perturbed_pencil(SQ, degallel) == stable_pencil(SQ, degallel)


def test_perturbed_pencil_triangle(TRI):
    star = perturbed_pencil(TRI, [ProjPoint((0, 0, 0))])
    assert star.topology == TreeTopology.star(3)
    assert ProjPoint(star.coords[star.topology.internal_nodes[0]]) == ProjPoint((0, 0, 0))


def test_perturbed_matches_stable_random():
    rng = random.Random(73)
    for trial in range(60):
        n = rng.randint(4, 6)
        A = rand_support(rng, n)
        if rng.random() < 0.5:
            C = [ProjPoint((rng.randint(-3, 3), rng.randint(-3, 3), 0)) for _ in range(n - 2)]
        else:
            C = rand_config(rng, n)
        Ls = stable_pencil(A, C)
        assert perturbed_pencil(A, C, seed=trial) == Ls
        assert perturbed_pencil(A, C, seed=trial + 5000) == Ls  # seed independent


def _crossing_argmins(G) -> list:
    """The argmin of G's coordinates at each vertex and at each point of a
    branch where a coordinate of the growing group meets one of the rest."""
    out = []
    coords = G.coords
    for q in coords.values():
        m = min(q)
        out.append(frozenset(i for i, x in enumerate(q, 1) if x == m))
    for a, _, side, ell in G.branches:
        q = coords[a]
        for t in {q[k - 1] - q[i - 1] for i in side for k in range(1, G.n + 1) if k not in side}:
            if 0 < t and (ell is None or t < ell):
                row = [x + t if i in side else x for i, x in enumerate(q, 1)]
                m = min(row)
                out.append(frozenset(i for i, x in enumerate(row, 1) if x == m))
    return out


def _argmin(row) -> frozenset:
    m = min(row)
    return frozenset(i for i, x in enumerate(row, 1) if x == m)


def _walk_cases(G, I, cases):
    """Tally the branches on which the mask walk for Pi(G, I) takes a short
    cut: M_a misses J; t* is read off the far end's argmin, of an edge
    whose rows differ by more than D * length * e_J; or a ray's start row
    has its own leaf as the sole minimum and is scanned."""
    for a, b, J, ell in G.branches:
        Ma = _argmin(G.rows[a])
        if not Ma & J:
            cases["J never minimal"] += 1
        elif Ma <= J and ell is None:
            cases["ray scan"] += 1
        elif Ma <= J and I - J and I & J <= Ma and I - J <= _argmin(G.rows[b]):
            lift = G.rows[b][0] - G.rows[a][0] - (G.D * ell if 1 in J else 0)
            cases["far end, nonzero constant"] += lift != 0


def _brute_gamma(G, imax):
    """pi_gamma_location's answer or error message, from skeleton_level and
    the gate walk on `Fraction` intervals."""
    if skeleton_level(G) < 2:
        return "line not in Pi_2"
    try:
        want = brute_pi_attachment(G, imax)
    except TropError as e:
        return str(e)
    return "no coordinate ever attains the minimum" if want is None else want


def _fraction_point(G, p) -> ProjPoint:
    """The line point p from G's `Fraction` coordinates: coords(a) + t * e_I
    on the branch (a, b) with I beyond b."""
    if p.kind == "vertex":
        return ProjPoint(G.coords[p.loc])
    a, _, side, _ = G.edge(p.loc)
    return ProjPoint([x + p.t * (i in side) for i, x in enumerate(G.coords[a], 1)])


def test_pi_attachment_matches_fraction_walk():
    # the mask walk against the SubtreeSet gate walk on Fraction
    # intervals: Pi(G, I), its attachment point and pi_gamma, or the same
    # error, on random, contracted and planted lines and their random and
    # fixed translates; I random, each crossing's argmin, imax, empty, full
    rng = random.Random(75)
    lines = []
    for m in range(70):
        n = 4 + m % 7
        contract_p = 0.4 * (m % 3 == 2)
        L = [rand_line, coprime_line][m % 2](rng, n, contract_p=contract_p)
        G = plant_line(rng, n, 1 + m % 3)[0]
        A = rand_support(rng, n)
        shifts = locus_points(L, A)[:2] + [rand_proj_point(rng)]
        lines += [L, G] + [shifted_line(L, A, P) for P in shifts]
    # a few deeper lines, drawn apart so the draws above stay as they are
    deep = random.Random(76)
    for n in (12, 16, 20, 24):
        L = [rand_line, coprime_line][n % 8 // 4](deep, n, contract_p=0.3)
        A = rand_support(deep, n, next(d for d in range(4, 7) if (d + 1) * (d + 2) // 2 >= n))
        shifts = locus_points(L, A)[:1] + [rand_proj_point(deep)]
        lines += [L, plant_line(deep, n, 2)[0]] + [shifted_line(L, A, P) for P in shifts]
    # and the other n from 3 to 24
    wide = random.Random(83)
    for n in [3] + [n for n in range(11, 25) if n % 4]:
        L = rand_line(wide, n, contract_p=0.4 * (n % 2))
        lines += [L.translate([rand_rational(wide, 6) for _ in range(n)]), plant_line(wide, n, 2)[0]]
        L = rand_line(wide, n, contract_p=0.3)
        A = rand_support(wide, n, next(d for d in range(2, 7) if (d + 1) * (d + 2) // 2 >= n + 2))
        lines += [shifted_line(L, A, P) for P in locus_points(L, A)[:2]]
    seen = {"none": 0, "vertex": 0, "edge": 0, "ray": 0, "error": 0}
    cases = dict.fromkeys(("J never minimal", "far end, nonzero constant", "ray scan"), 0)
    pairs = vertexless = gammas = 0
    for G in lines:
        n = G.n
        crossings = _crossing_argmins(G)
        subsets = [frozenset(rng.sample(range(1, n + 1), rng.randint(0, n))) for _ in range(2)]
        subsets += rng.sample(crossings, min(3, len(crossings)))
        imax = frozenset().union(*crossings[: len(G.rows)])
        subsets += [imax, frozenset(), frozenset(range(1, n + 1))]
        argmins = _argmins(G)
        want = _brute_gamma(G, imax)
        try:
            got = pi_gamma_location(G)
        except TropError as e:
            got = str(e)
        assert got == want
        if isinstance(want, LinePoint):
            gammas += 1
            assert pi_gamma(G) == _fraction_point(G, want)
        for I in subsets:
            _walk_cases(G, I, cases)
            pairs += 1
            S = brute_pi_set(G, I)
            assert pi_set(G, I) == S
            vertexless += bool(S.iv) and not S.vertices  # the gate needs no walk
            # the integer core itself clips as SubtreeSet does
            scaled = {k: (lo * G.D, None if hi is None else hi * G.D) for k, (lo, hi) in S.iv.items()}
            assert _scaled_pi(G, _leaf_mask(I, n), argmins) == (S.vertices, scaled)
            try:
                want = brute_pi_attachment(G, I)
            except TropError as e:
                with pytest.raises(TropError, match=re.escape(str(e))):
                    pi_attachment(G, I)
                seen["error"] += 1
                continue
            assert pi_attachment(G, I) == want
            seen["none" if want is None else want.kind] += 1
    assert pairs >= 3000 and vertexless > 0 and gammas >= 200
    assert min(cases.values()) >= 300, cases
    assert min(seen.values()) >= 30 and seen["edge"] + seen["ray"] >= 300, seen
