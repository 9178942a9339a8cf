"""Tropical determinants, generality of point configurations, and the
stable pencil through a configuration.

A configuration of n-2 plane points yields an (n-2) x n value matrix
M[k][l] = a_l . P_k.  Each pair {i, j} has a maximal minor (erase columns
i and j) whose tropical determinant is an assignment problem: minimize the
sum of one entry per row, one per remaining column.  The configuration is
general iff every minor's optimum is attained by a single bijection.

The assignment problem is solved by an exact potentials-based
augmenting-path search over Python integers.  `solve_minors` and
`is_general` clear the denominators of the points' coordinates once (D)
and form D times the value matrix in integers, which changes neither
argmin sets nor ties; every minor's square is cut from those integer
rows, and its optimum is divided by D once.  `tropdet` clears the
denominators of the square it is given and runs the same kernel.  The
rational matrix itself (`value_matrix`) is only for callers that read
its entries.  Uniqueness is certified on the reduced integer matrix:
after subtracting optimal row/column potentials the optimal bijections
are exactly the perfect matchings of the zero-entry bipartite graph, so
the optimum is unique iff that graph has no alternating cycle through
the matching found.

The tropical determinants of all pairs always satisfy the quartet
relations, so they are the pair coordinates of a line: the stable pencil
through the configuration, general or not.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .core import InternalError, SupportSet, clear_denominators, rat
from .pencil import is_fixed
from .trees import EmbeddedLine, PlueckerVector, plucker_to_tree


def value_matrix(A: SupportSet, config) -> list:
    """The (n-2) x n matrix with entries a_l . P_k, over the z = 0 chart."""
    D, N = _integer_rows(A, config)
    return [[Fraction(x, D) for x in row] for row in N]


@dataclass(frozen=True)
class TropdetResult:
    value: Fraction
    assignment: tuple  # column index per row, 0-based into the given matrix
    unique: bool


def tropdet(square) -> TropdetResult:
    """Minimum over bijections of the diagonal-sum, with a uniqueness flag."""
    k = len(square)
    if any(len(row) != k for row in square):
        raise ValueError("matrix is not square")
    D, flat = clear_denominators([rat(x) for row in square for x in row])
    return _tropdet([flat[i * k : (i + 1) * k] for i in range(k)], D)


def _tropdet(N, D: int) -> TropdetResult:
    """tropdet of N / D, for an integer square N and an integer D > 0."""
    assignment, u, v = _assignment(N)
    total = sum(row[c] for row, c in zip(N, assignment))
    return TropdetResult(Fraction(total, D), tuple(assignment), _is_unique(N, assignment, u, v))


def _assignment(M):
    """Exact Hungarian algorithm (potentials + augmenting paths) on an
    integer matrix."""
    k = len(M)
    u = [0] * (k + 1)
    v = [0] * (k + 1)
    match = [0] * (k + 1)  # match[j] = row assigned to column j (1-based)
    for i in range(1, k + 1):
        match[0] = i
        j0 = 0
        # row i's reduced costs: what the first scan would set, so no
        # infinite starting value is needed
        row = M[i - 1]
        minv = [0] + [row[j - 1] - u[i] - v[j] for j in range(1, k + 1)]
        way = [0] * (k + 1)
        used = [False] * (k + 1)
        while True:
            used[j0] = True
            i0, delta, j1 = match[j0], None, -1
            row, ui = M[i0 - 1], u[i0]
            for j in range(1, k + 1):
                if used[j]:
                    continue
                cur = row[j - 1] - ui - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if delta is None or minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(k + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    assignment = [0] * k
    for j in range(1, k + 1):
        assignment[match[j] - 1] = j - 1
    return assignment, u[1:], v[1:]


def _is_unique(M, assignment, u, v) -> bool:
    """No alternating cycle through the matching in the reduced-zero graph.

    Nodes 0..k-1 are the rows and k..2k-1 the columns; an unmatched zero
    entry (i, j) is an arc i -> k + j, a matched one k + j -> i.  The same
    scan checks that the potentials are dual-feasible and tight on the
    matching."""
    k = len(M)
    succ = [[] for _ in range(2 * k)]
    for i, row in enumerate(M):
        ui, mine = u[i], assignment[i]
        for j, x in enumerate(row):
            red = x - ui - v[j]
            if red < 0 or (j == mine and red != 0):
                raise InternalError("potentials are not optimal")
            if red == 0:
                if j == mine:
                    succ[k + j].append(i)
                else:
                    succ[i].append(k + j)
    color = [0] * (2 * k)  # 0 unseen, 1 on the current path, 2 done

    def has_cycle(node) -> bool:
        color[node] = 1
        for nxt in succ[node]:
            if color[nxt] == 1 or (color[nxt] == 0 and has_cycle(nxt)):
                return True
        color[node] = 2
        return False

    return not any(color[nd] == 0 and has_cycle(nd) for nd in range(2 * k))


def minor_columns(n: int, i: int, j: int) -> list:
    return [l for l in range(1, n + 1) if l not in (i, j)]


def minor_tropdet(M, n: int, i: int, j: int, *, D: int | None = None) -> TropdetResult:
    """tropdet of the maximal minor erasing support columns i and j;
    the assignment is reported in 1-based support indices.  M is the value
    matrix, or, with D given, D times it in integers (`_integer_rows`)."""
    cols = minor_columns(n, i, j)
    square = [[row[c - 1] for c in cols] for row in M]
    res = tropdet(square) if D is None else _tropdet(square, D)
    return TropdetResult(res.value, tuple(cols[c] for c in res.assignment), res.unique)


def _integer_rows(A: SupportSet, config) -> tuple:
    """(D, D * value_matrix) for D the lcm of the denominators of the
    points' x and y: in the z = 0 chart a_l . P = r_l x + s_l y, so each
    entry is r_l X + s_l Y on the cleared coordinates X = D x, Y = D y,
    and every minor's square comes out of the rows in integers."""
    config = list(config)
    if len(config) != A.n - 2:
        raise ValueError(f"need {A.n - 2} points, got {len(config)}")
    D, xy = clear_denominators([x for P in config for x in P.coords[:2]])
    return D, [[r * X + s * Y for r, s, _ in A.points] for X, Y in zip(xy[::2], xy[1::2])]


@dataclass(frozen=True)
class GeneralityVerdict:
    general: bool
    singular_pair: tuple | None

    def __bool__(self) -> bool:
        return self.general


def is_general(A: SupportSet, config) -> GeneralityVerdict:
    """General iff every maximal minor's tropical determinant is unique;
    reports the first singular pair otherwise."""
    D, N = _integer_rows(A, config)
    for i, j in combinations(A.indices(), 2):
        if not minor_tropdet(N, A.n, i, j, D=D).unique:
            return GeneralityVerdict(False, (i, j))
    return GeneralityVerdict(True, None)


def solve_minors(A: SupportSet, config) -> tuple:
    """(GeneralityVerdict, PlueckerVector) from one solve of every maximal
    minor; is_general alone stops at the first singular pair instead."""
    D, N = _integer_rows(A, config)
    values, singular = {}, None
    for i, j in combinations(A.indices(), 2):
        res = minor_tropdet(N, A.n, i, j, D=D)
        values[(i, j)] = res.value
        if singular is None and not res.unique:
            singular = (i, j)
    return GeneralityVerdict(singular is None, singular), PlueckerVector(A.n, values)


def plucker_of_config(A: SupportSet, config) -> PlueckerVector:
    """Pair coordinates of the stable pencil: p_ij = tropdet of minor (i, j)."""
    return solve_minors(A, config)[1]


def stable_pencil(A: SupportSet, config) -> EmbeddedLine:
    """The stable pencil through the configuration, as an embedded line.

    For a general configuration this is the honest set of curves through
    all the points; otherwise it is the perturbed limit.
    """
    return plucker_to_tree(plucker_of_config(A, config))


def curves_through(A: SupportSet, config, L: EmbeddedLine) -> bool:
    """True iff every curve of the pencil L passes through every point of
    the configuration, that is, iff each point is fixed for L."""
    return all(is_fixed(L, A, P) for P in config)
