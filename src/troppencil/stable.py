"""Tropical determinants, generality of point configurations, and the
stable pencil through a configuration.

A configuration of n-2 plane points yields an (n-2) x n value matrix
M[k][l] = a_l . P_k.  Each pair {i, j} has a maximal minor (erase columns
i and j) whose tropical determinant is an assignment problem: minimize the
sum of one entry per row, one per remaining column.  The configuration is
general iff every minor's optimum is attained by a single bijection.

The assignment problem is solved by an exact potentials-based
augmenting-path search over Python integers: `_phase` gives one row a
column along a shortest augmenting path and keeps the potentials
feasible and tight.  Its state (u, v, match) holds the row and column
potentials and the row of each column, with a virtual start column
last; `_assignment` returns it as the phases leave it, and `_drop`,
`_tree` and `_zeros` read it in that order.  `solve_minors` and
`is_general` clear the denominators of the points' coordinates once (D)
and form D times the value matrix in integers, which changes neither
argmin sets nor ties.
They solve the k x n rectangular problem once (k = n - 2, one phase per
row) and walk the minors from it (`_minors`): erasing a column keeps
every other reduced cost feasible, so one phase for the row it freed
restores optimality and leaves one column free.  One reverse
shortest-path tree to that column (`_tree`) then gives every minor
(i, j) of the state without column i: its optimal bijection flips the
tree path from j.  The walk takes at most k + (n - 1) phases and
O(n^3) work instead of k phases per minor.  `solve_minors` hands the
integer optima and D to the Pluecker vector as they are; it subtracts
minor (n - 1, n)'s optimum and divides out the common factor in
integers.
`tropdet` clears the denominators of the square it is given and runs one
phase per row; `minor_tropdet` cuts one minor's square and solves it
alone, the per-pair twin of the walk.  The rational matrix itself
(`value_matrix`) is only for callers that read its entries.

Every optimum is certified on the reduced integer entries of the
surviving columns: after subtracting optimal row/column potentials the
optimal bijections are exactly the perfect matchings of the zero-entry
bipartite graph.  The potentials shifted by the tree's distances are one
dual solution for every minor (i, .): one scan per i (`_zeros`) checks
them on all n - 1 columns and collects the reduced zeros, and one check
per tree arc makes every flipped path tight, so every minor's dual
solution is verified and its optimum is the dual objective; `tropdet`
checks its own with the same scan.  A minor is unique iff its zero graph
has no alternating cycle through the matching found.  For the minors
(i, .) that is one question about one column digraph per i: against the
state, each optimal bijection of minor (i, j) is a path from j to the
free column f plus disjoint cycles.  When that digraph is acyclic, one
path count (`_paths`, capped at 2) decides every minor (i, .) at once.
A cycle makes minor {i, f} singular, and only then does each minor of
that column search its own arcs (`_arcs`).  `_flags` runs only until the
first singular pair, since the verdict names that pair alone, while the
checks still cover every minor.  The first column with a cycle holds the
first singular pair, so the per-minor searches run on one column at
most, and the whole certificate takes O(n^3) work.

The tropical determinants of all pairs always satisfy the quartet
relations, so they are the pair coordinates of a line: the stable pencil
through the configuration, general or not.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import sub

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
    N = [flat[i * k : (i + 1) * k] for i in range(k)]
    u, v, match = _assignment(N)
    assignment = sorted(range(k), key=match.__getitem__)  # the column of each row
    total = sum(row[c] for row, c in zip(N, assignment))
    unique = _paths(_arcs(_zeros(list(zip(*N)), u, v, match, range(k)), None, {}, match), ()) is not None
    return TropdetResult(Fraction(total, D), tuple(assignment), unique)


def _phase(M, u, v, match, r, cols) -> None:
    """One augmenting phase of the Hungarian method: give row r a free
    column among `cols` along a shortest augmenting path.

    match[j] is the row of column j (-1 if free); the last entry of v and
    of match belongs to a virtual start column s.  The reduced costs
    M[i][j] - u[i] - v[j] must be >= 0 on `cols` and 0 on the matching.
    dist[j] is the reduced length of the shortest alternating path from
    row r to column j; columns are settled by increasing dist, the first
    in `cols` order among equals.  Once a free column is settled at
    distance L, each settled column j lowers v[j] by L - dist[j] and its
    row raises u by as much, which keeps every reduced cost >= 0 and makes
    the path tight; then the path is flipped.  A column that is not
    settled keeps its v."""
    s = len(v) - 1
    match[s] = r
    row, ur = M[r], u[r]
    dist = [x - y - ur for x, y in zip(row, v)]
    way = [s] * len(v)
    free, settled = list(cols), []
    while True:
        j0 = min(free, key=dist.__getitem__)
        free.remove(j0)
        i0 = match[j0]
        if i0 < 0:
            break
        settled.append(j0)
        row, base = M[i0], dist[j0] - u[i0]
        for j in free:
            d = row[j] - v[j] + base
            if d < dist[j]:
                dist[j] = d
                way[j] = j0
    L = dist[j0]
    u[r] += L
    for j in settled:
        u[match[j]] += L - dist[j]
        v[j] -= L - dist[j]
    while j0 != s:
        j1 = way[j0]
        match[j0] = match[j1]
        j0 = j1


def _assignment(M):
    """Optimal assignment of the rows of an integer k x m matrix (k <= m)
    to distinct columns: one phase per row over all columns.  Returns the
    state (u, v, match) of `_phase`, the virtual start column last in v
    and in match, with optimal potentials: v <= 0 everywhere and v = 0 on
    every unmatched column."""
    k, m = len(M), len(M[0]) if M else 0
    u, v, match = [0] * k, [0] * (m + 1), [-1] * (m + 1)
    for r in range(k):
        _phase(M, u, v, match, r, range(m))
    return u, v, match


def _zeros(columns, u, v, match, cols) -> dict:
    """{c: the rows with a reduced zero on column c} for each column c of
    `cols` that has a zero besides its own row's; checks on the way that
    the potentials are dual-feasible and tight on the matching.

    columns[c] is column c of an integer matrix and (u, v, match) a state
    of `_phase`: u and v the row and column potentials, match[c] the row
    matched to column c, or -1 for a free column, which has no tightness
    test."""
    zeros = {}
    for c in cols:
        t = list(map(sub, columns[c], u))  # reduced costs plus v[c]
        vc, mine = v[c], match[c]
        if min(t) < vc or (mine >= 0 and t[mine] != vc):
            raise InternalError("potentials are not optimal")
        if t.count(vc) > (mine >= 0):  # a zero besides its own row's: arcs or path ends
            zeros[c] = [r for r, x in enumerate(t) if x == vc]
    return zeros


def _paths(succ, ends) -> dict | None:
    """{x: the number of paths from x to `ends` over the arcs succ, capped
    at 2} for every vertex reached, or None when the arcs close a cycle.
    A vertex of `ends` counts 1 and has no arcs; any other vertex without
    arcs counts 0.  With no ends it only asks whether the arcs are
    acyclic: a cycle of `_arcs` is an alternating cycle through the
    matching, that is, a second optimal bijection."""
    count = dict.fromkeys(ends, 1)

    def visit(x) -> int:
        count[x] = -1  # on the current path
        total = 0
        for nxt in succ.get(x, ()):
            c = count.get(nxt)
            if c is None:
                c = visit(nxt)
            if c < 0:
                return -1
            total += c
        count[x] = total = min(total, 2)
        return total

    for x in succ:
        if x not in count and visit(x) < 0:
            return None
    return count


def _drop(M, u, v, match, c, cols) -> tuple:
    """The potentials and the matching with column c erased: copies in
    which the row c held, if any, gets a column of `cols` from one phase;
    the state itself if c was free."""
    r = match[c]
    if r < 0:
        return u, v, match
    u, v, match = u[:], v[:], match[:]
    match[c] = -1
    _phase(M, u, v, match, r, cols)
    return u, v, match


def _tree(columns, u, v, match, f, cols) -> tuple:
    """(dist, parent): a reverse shortest-path tree to the free column f
    over the reduced costs, by Dijkstra.

    The state (u, v, match) is optimal on the columns `cols`, all matched
    but f.  dist[c] is the reduced length of the cheapest alternating path
    that gives the row of column c another column and ends at f: row
    match[c] takes parent[c], whose row takes parent[parent[c]], and so on.
    dist[f] is 0; other columns of `cols` settle by increasing dist, the
    first in `cols` order among equals."""
    dist, parent = [0] * len(v), [f] * len(v)
    col, vf = columns[f], v[f]
    pending = {c: col[match[c]] - u[match[c]] - vf for c in cols if c != f}
    while pending:
        c0 = min(pending, key=pending.__getitem__)
        d0 = dist[c0] = pending.pop(c0)
        col, base = columns[c0], d0 - v[c0]
        for c, d in pending.items():
            r = match[c]
            x = col[r] - u[r] + base
            if x < d:
                pending[c] = x
                parent[c] = c0
    return dist, parent


def _minors(N):
    """Yield ({(i + 1, j + 1): optimum}, graph) per erased column i, for
    the maximal minors of the integer k x n matrix N that erase support
    columns i and j > i, in combinations order.

    N is solved once as a rectangular assignment problem.  Erasing column
    i keeps every other reduced cost >= 0, so one phase for the row it
    freed restores optimality (`_drop`) and leaves one free column f.
    Minor (i, j) is that state with column j erased: its optimal bijection
    is the state with the tree path from j to f flipped (`_tree`), and
    both come from one tree per i.  Shifting the potentials by dist (u of
    each row up by the dist of its column, v down by it) keeps them
    feasible and makes every tree arc tight, so one dual solution
    certifies every minor (i, .): one scan per i (`_zeros`) checks it on
    all n - 1 columns and collects each column's reduced zeros, and each
    tree arc is checked once, so every minor's flipped path is tight.  Its
    bijection then attains the dual objective, the sum of the shifted u
    and of the shifted v on every column but j.  graph = (i, zeros,
    parent, match) is what `_flags` reads for the uniqueness of the minors
    (i, .).  The walk takes at most k + (n - 1) phases and O(n^3)
    work."""
    n, columns = len(N[0]), list(zip(*N))
    u, v, match = _assignment(N)
    for i in range(n - 1):
        cols = [c for c in range(n) if c != i]
        ui, vi, mi = _drop(N, u, v, match, i, cols)
        f = next(c for c in cols if mi[c] < 0)
        dist, parent = _tree(columns, ui, vi, mi, f, cols)
        us, vs = ui[:], list(map(sub, vi, dist))
        for c in cols:
            if c != f:
                us[mi[c]] += dist[c]
        zeros = _zeros(columns, us, vs, mi, cols)
        for c in cols:  # the tree arcs: row mi[c] moves from c to parent[c]
            if c != f and mi[c] not in zeros.get(parent[c], ()):
                raise InternalError("potentials are not optimal")
        dual = sum(us) + sum(vs[c] for c in cols)
        yield {(i + 1, j + 1): dual - vs[j] for j in range(i + 1, n)}, (i, zeros, parent, mi)


def _flags(i, zeros, parent, match):
    """Yield ((i + 1, j + 1), unique) for the minors (i, j), j > i, of one
    erased column, from the graph `_minors` yields for it.

    The optimal bijections of minor (i, j) are the perfect matchings of
    the reduced zeros without column j.  Against the state, each is one
    path j ~> f of the column digraph (an arc c -> c' when the row of c
    has a reduced zero on c') flipped, plus vertex-disjoint cycles off
    that path.  `_arcs` with no erased column gives that digraph on the
    columns' rows, f's row being -1.  When it is acyclic, minor (i, j) is
    unique iff exactly one path leads from j to f, and one count
    (`_paths`) answers every j.  A cycle makes minor {i, f} singular, and
    each other minor of the column then searches its own arcs."""
    count = _paths(_arcs(zeros, None, {}, match), (-1,))
    for j in range(i + 1, len(match) - 1):
        if count is not None:
            unique = count[match[j]] == 1
        elif match[j] < 0:
            unique = False
        else:
            unique = _paths(_arcs(zeros, j, _moved(parent, match, j), match), ()) is not None
        yield (i + 1, j + 1), unique


def _moved(parent, match, j) -> dict:
    """{c: the row that takes column c} along the tree path from j to the
    free column: the flipped path of minor (i, j)."""
    moved, c = {}, j
    while match[c] >= 0:
        moved[parent[c]] = match[c]
        c = parent[c]
    return moved


def _arcs(zeros, j, moved, match) -> dict:
    """The arcs of the reduced-zero graph, as a successor list per row
    that has one: row r has an arc to the row of column c when its reduced
    cost on c is 0 and c is not its own column.  zeros[c] holds the rows
    with a reduced zero on column c (`_zeros`), j is an erased column
    (None for none), and the row of column c is moved[c] on a minor's
    flipped path and match[c] off it, -1 for a free column."""
    succ = {}
    for c, rows in zeros.items():
        if c != j:
            owner = moved.get(c, match[c])
            for r in rows:
                if r != owner:
                    succ.setdefault(r, []).append(owner)
    return succ


def minor_columns(n: int, i: int, j: int) -> list:
    return [l for l in range(1, n + 1) if l not in (i, j)]


def minor_tropdet(M, n: int, i: int, j: int) -> TropdetResult:
    """tropdet of the maximal minor of the value matrix M erasing support
    columns i and j, solved alone; the assignment is reported in 1-based
    support indices."""
    cols = minor_columns(n, i, j)
    res = tropdet([[row[c - 1] for c in cols] for row in M])
    return TropdetResult(res.value, tuple(cols[c] for c in res.assignment), res.unique)


def _integer_rows(A: SupportSet, config) -> tuple:
    """(D, D * value_matrix) for D the lcm of the denominators of the
    points' x and y: in the z = 0 chart a_l . P = r_l x + s_l y, so each
    entry is r_l X + s_l Y on the cleared coordinates X = D x, Y = D y,
    and every minor is solved on the rows in integers."""
    config = list(config)
    if len(config) != A.n - 2:
        raise ValueError(f"need {A.n - 2} points, got {len(config)}")
    for k, P in enumerate(config):
        if P.dim != 3:
            raise ValueError(f"configuration point {k} has {P.dim} coordinates, not 3")
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
    reports the first singular pair otherwise, and walks no column after
    the one that holds it."""
    walk = _minors(_integer_rows(A, config)[1])
    singular = next((pair for _, graph in walk for pair, unique in _flags(*graph) if not unique), None)
    return GeneralityVerdict(singular is None, singular)


def solve_minors(A: SupportSet, config) -> tuple:
    """(GeneralityVerdict, PlueckerVector) from one solve of every maximal
    minor; is_general alone stops at the first singular pair instead.
    Every minor's dual solution is checked, but the uniqueness search
    (`_flags`) stops at the first singular pair: later answers cannot
    change the verdict."""
    D, N = _integer_rows(A, config)
    totals, singular = {}, None
    for minors, graph in _minors(N):
        totals.update(minors)
        if singular is None:
            singular = next((pair for pair, unique in _flags(*graph) if not unique), None)
    return GeneralityVerdict(singular is None, singular), PlueckerVector._scaled(A.n, D, totals)


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
