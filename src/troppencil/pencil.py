"""Fixed loci of linear pencils and the hyperplane-skeleton machinery.

A point P of TP^2 is fixed for the pencil parameterized by a line L with
support A iff the translated line G = L + A.P lies inside Pi_2, the locus
where the coordinate minimum is attained at least twice.  That containment
is decided at the internal vertices of G (`skeleton_level`).

Everything here runs on the line's integer scale until output.
Multiplying every coordinate by the same D > 0 keeps each argmin, each
tie and each sign, and a line stores only its coordinates times some D
(`EmbeddedLine.rows`).  With E clearing P's denominators, A.P = S / E for
integers S, and L + A.P has the rows E * row + D * S on the scale D * E:
`shifted_line` builds that line, and `is_fixed` reads its rows one vertex
at a time without building it, counting each row's minima with `min` and
`count`.  Pi(G, I) and its attachment point are walked on integer
interval ends D times the branch parameter (`_scaled_pi`); only the t of
a returned `LinePoint` and the intervals of the public `pi_set` are
`Fraction`s.  A fixed-locus cell keeps its integer forms and D, and
`jsonio.cell_to_json` writes c / D straight from them.  Leaf sets are
int bitmasks, bit i for leaf i, read off the branch table and the
topology's side masks (`TreeTopology._mask_beyond`); no computation here
builds a `frozenset`.

A branch is a bounded edge or a ray, which is an edge whose far end lies
at infinity; the line keeps both in one table (`EmbeddedLine._branches`,
the leaves beyond each branch as a mask).  Along a branch in direction
e_J the coordinates split into a growing group J and a constant group,
so the J group holds the minimum up to the breakpoint t* where the two
group minima cross, and the other group from t* on.  `_scaled_pi` walks
the branches with that rule, each in O(1) from the argmin masks of the
vertices (`_argmins`, one pass over the rows); `skeleton_level` reads
only its consequences at the vertices, and `pi_gamma` reads them off the
same masks.

The locus itself is enumerated per witness point c of L: a vertex with
three leaves in pairwise distinct components of L - {c}, or an edge point
with a leaf pair on each side; each candidate yields two linear equalities
and some inequalities for P, solved exactly in the z = 0 chart.  Nearly
every candidate is infeasible, so each is decided on integers first: its
equalities meet in one point (nx, ny) / det, the value of every term
there times det is one integer, and comparing those values is exactly
the sign test `plane.solve` would make.  Only the survivors build their
forms and go to `plane.solve`.

Pi(G, I) denotes the subset of G where every coordinate in I attains the
global minimum; these subsets are closed connected subtrees, represented
below as vertex sets plus one closed parameter interval per branch, whose
upper end is None when it runs out to infinity along a ray.
A nonempty one is a point x plus every branch at x that holds no leaf of
I, and x is its gate: the first point of it met from any leaf of I; one
hang of the tree, from a vertex of the set, serves every gate, and the
walk stops at the second distinct gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm

from . import plane
from .core import ProjPoint, SupportSet, TropError, rat
from .trees import EmbeddedLine, _bits, _hang


def _scaled_shift(L: EmbeddedLine, A: SupportSet, P: ProjPoint) -> tuple:
    """(E, D * S) with A.P = S / E and D from L: E clears the denominators
    of P = (x, y, 0), and S_i = r_i * E x + s_i * E y is an integer."""
    if A.n != L.n:
        raise ValueError("support size and leaf count differ")
    if P.dim != 3:
        raise ValueError(f"P has {P.dim} coordinates, not 3")
    x, y, _ = P.coords
    dx, dy = x.denominator, y.denominator
    E = lcm(dx, dy)
    DEx, DEy = L.D * x.numerator * (E // dx), L.D * y.numerator * (E // dy)
    return E, [r * DEx + s * DEy for r, s, _ in A.points]


def shifted_line(L: EmbeddedLine, A: SupportSet, P: ProjPoint) -> EmbeddedLine:
    """The translate G = L + A.P, again a tropical line."""
    return L._shifted(*_scaled_shift(L, A, P))


# ---------------------------------------------------------------------------
# skeleton level


def _vertex_counts(topo, rows):
    """Per pair (v, row of a line's coordinates at v, times some D > 0),
    |M_v| - [M_v holds a leaf whose ray starts at v], M_v = argmin of the
    row; the scale changes no argmin.  Only the leaves next to v are
    looked up in the row."""
    n, adj = topo.n, topo.adj
    for v, row in rows:
        m = min(row)
        count = row.count(m)
        for w in adj[v]:
            if w <= n and row[w - 1] == m:
                count -= 1
                break
        yield count


def skeleton_level(G: EmbeddedLine) -> int:
    """The largest t with G contained in Pi_t (t = 1 always holds).

    With M_v the argmin of G's coordinates at the internal vertex v, it is
    max(1, min over v of |M_v| - [M_v holds a leaf whose ray starts at v]).
    Take a branch from v in direction e_J, with breakpoint t*.
    - On a bounded edge of length l, the growing group holds the minimum
      on (0, t*) with the argmin it has at v, the constant group holds it
      on (t*, l) with the argmin it has at the far end, and both hold it
      at t*; so each point of the edge has as many attainers as one of
      its ends, or more.
    - On leaf i's ray, the other coordinates hold the minimum beyond
      max(t*, 0): M_v - {i} when i is in M_v, else M_v.  (With M_v = {i},
      the floor of 1 is attained at v already.)
    """
    return max(1, min(_vertex_counts(G.topology, G.rows.items())))


def is_fixed(L: EmbeddedLine, A: SupportSet, P: ProjPoint) -> bool:
    """True iff every curve of the pencil L passes through P.

    That is skeleton_level(L + A.P) >= 2, read off the translate's rows
    one vertex at a time, with no translate built: the first vertex that
    fails the rule ends the test."""
    E, DS = _scaled_shift(L, A, P)
    return all(count >= 2 for count in _vertex_counts(L.topology, L._shifted_rows(E, DS)))


# ---------------------------------------------------------------------------
# points on a line and subtree subsets


@dataclass(frozen=True)
class LinePoint:
    """A point of an embedded line: a vertex, or the point at parameter
    t > 0 from the first node of a branch (a bounded edge or a ray) that
    is not one of its ends."""

    kind: str  # "vertex" | "edge" | "ray"
    loc: tuple  # node id, or the branch key (a, b)
    t: Fraction | None = None


def make_point(G: EmbeddedLine, key, t) -> LinePoint:
    """The point at parameter t along the branch key of G; its ends come
    back as vertices.  Raises KeyError when key is no branch of G."""
    a, b, _, ell = G._branches[key]
    t, ell = rat(t), G._length(ell)
    if t == 0:
        return LinePoint("vertex", a)
    if t == ell:
        return LinePoint("vertex", b)
    if t < 0 or ell is not None and t > ell:
        raise ValueError("branch parameter out of range")
    return LinePoint("ray" if ell is None else "edge", (a, b), t)


def coords_at(G: EmbeddedLine, p: LinePoint) -> tuple:
    """Coordinates of a line point, with last entry 0.  For t = a / b the
    point is (b * row + D * a on the branch's side) / (D * b) on the
    integer row of the branch's first node, so each entry is one
    `Fraction` of ints."""
    if p.kind == "vertex":
        row, side, a, b = G.rows[p.loc], 0, 0, 1
    else:
        node, _, side, _ = G._branches[p.loc]
        row, a, b = G.rows[node], p.t.numerator, p.t.denominator
    xs = [b * x + (G.D * a if side >> i & 1 else 0) for i, x in enumerate(row, 1)]
    last, den = xs[-1], G.D * b
    return tuple(Fraction(x - last, den) for x in xs)


def leaf_partition_at(G: EmbeddedLine, p: LinePoint) -> list:
    """Leaf sets of the components of G - {p}."""
    if p.kind == "vertex":
        return G.topology.leaf_partition(p.loc)
    side = G.edge(p.loc)[2]
    return [frozenset(range(1, G.n + 1)) - side, side]


class SubtreeSet:
    """A closed subset of an embedded line: vertices plus one closed
    parameter interval (lo, hi) per branch it meets, within [0, length] on
    an edge; hi is None when the interval is unbounded, on a ray."""

    __slots__ = ("line", "vertices", "iv")

    def __init__(self, line: EmbeddedLine, vertices=(), iv=None):
        self.line = line
        verts = set(vertices)
        self.iv = {}
        for key, (lo, hi) in (iv or {}).items():
            a, b, _, ell = line._branches[key]
            ell, lo = line._length(ell), max(lo, Fraction(0))
            if ell is not None:
                hi = ell if hi is None else min(hi, ell)
            if hi is not None and lo > hi:
                continue
            if lo == 0:
                verts.add(a)
            if ell is not None and hi == ell:
                verts.add(b)
            if (hi is None or hi > 0) and (ell is None or lo < ell):
                self.iv[(a, b)] = (lo, hi)  # a lone end point is just its vertex
        self.vertices = frozenset(verts)

    def is_empty(self) -> bool:
        return not self.vertices and not self.iv

    def key(self):
        return (self.vertices, tuple(sorted(self.iv.items())))

    def __eq__(self, other):
        return isinstance(other, SubtreeSet) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


def _argmins(G: EmbeddedLine) -> dict:
    """{v: (m_v, M_v)} per vertex: the minimum of v's row and its argmin
    as a leaf bitmask, bit i for leaf i."""
    out = {}
    for v, row in G.rows.items():
        m = min(row)
        i = row.index(m)
        M = 2 << i
        for _ in range(row.count(m) - 1):
            i = row.index(m, i + 1)
            M |= 2 << i
        out[v] = m, M
    return out


def _leaf_mask(I, n: int) -> int:
    """The bitmask of the leaves in I; ValueError for one outside 1..n."""
    mask = 0
    for i in frozenset(I):
        if not 1 <= i <= n:
            raise ValueError(f"leaf index {i} is outside 1..{n}")
        mask |= 1 << i
    return mask


def _scaled_pi(G: EmbeddedLine, I: int, argmins: dict) -> tuple:
    """Pi(G, I) on the line's scale, for the leaf mask I: (vertices,
    {branch key: (lo, hi)}) with lo and hi D times the interval ends,
    ints, hi None when the interval runs out along a ray; clipped as
    `SubtreeSet` clips.  argmins is `_argmins(G)`.

    The vertices are those v with I inside M_v.  Along branch (a, b) in
    direction e_J the group minima of a's row, the breakpoint t* and the
    length all come out D times too large, so the walk needs no division,
    and each branch costs O(1) from the argmin masks:
    - M_a and J disjoint: the J group is above the minimum at a and only
      grows, so the branch is all in Pi(G, I) iff I misses J and I lies
      in M_a, and else misses it.
    - Else J's minimum is m_a, attained on A_J = M_a & J.
      If M_a - J is not empty, the other group attains m_a there too:
      t* = 0 with A_0 = M_a - J.  On an edge, A_0 is the part of M_b off
      J, as the constant group keeps its argmin and holds the minimum at
      b iff t* <= D * length; then t* = q_i - m_a for any i in A_0 and
      q = rows[a].  When that part is empty, t* lies beyond the edge.
      rows[b] is a's row moved along the edge only up to a multiple of
      (1, ..., 1) (see `EmbeddedLine`), so m_b is never read.  Only a ray
      whose leaf is the sole minimum at a scans q for the other group.
    I needs I & J inside A_J and I - J inside A_0 to meet the branch at
    all; then the J group holds the minimum up to t* and the other group
    from t* on."""
    rows, unit = G.rows, G.D // G._table_D
    verts = {v for v, (_, M) in argmins.items() if not I & ~M}
    iv = {}
    for a, b, J, ell in G._branches.values():
        m, M = argmins[a]
        top = None if ell is None else unit * ell  # hi None: unbounded (rays)
        AJ = M & J
        if not AJ:
            if not I & J and not I & ~M:
                iv[(a, b)] = (0, top)
            continue
        A0 = M ^ AJ
        if A0:
            tstar = 0
        elif ell is not None:
            A0 = argmins[b][1] & ~J
            # q_i for the least i in A_0, at index i - 1; None: t* lies
            # beyond the edge
            tstar = rows[a][(A0 & -A0).bit_length() - 2] - m if A0 else None
        else:  # leaf b alone is minimal at a
            q = rows[a]
            mu0 = min([x for i, x in enumerate(q, 1) if i != b])
            A0 = sum([1 << i for i, x in enumerate(q, 1) if x == mu0])
            tstar = mu0 - m
        if I & ~(AJ | A0):
            continue
        lo, hi = 0, top
        if I & J and tstar is not None:  # the J group holds the minimum up to t*
            hi = tstar if hi is None else min(hi, tstar)
        if I & ~J:  # the rest holds it from t* on
            lo = tstar
        # an interval that reaches an end of the branch has I in the
        # argmin there, so that end is in verts already; a lone end point
        # is just its vertex
        if (hi is None or 0 < hi and lo <= hi) and (top is None or lo < top):
            iv[(a, b)] = (lo, hi)
    return verts, iv


def pi_set(G: EmbeddedLine, I) -> SubtreeSet:
    """Pi(G, I): points of G where every coordinate in I is a global min.

    The set of `_scaled_pi`, with each interval end divided by D."""
    D = G.D
    verts, iv = _scaled_pi(G, _leaf_mask(I, G.n), _argmins(G))
    return SubtreeSet(
        G, verts, {k: (Fraction(lo, D), hi if hi is None else Fraction(hi, D)) for k, (lo, hi) in iv.items()}
    )


def _spot(G: EmbeddedLine, key, T) -> tuple:
    """The point D * t = T of branch key as a gate: (node, None) at an
    end, else (key, T)."""
    a, b, _, ell = G._branches[key]
    if T == 0:
        return a, None
    if ell is not None and T == G.D // G._table_D * ell:
        return b, None
    return key, T


def _gate(G: EmbeddedLine, verts, iv: dict, I: int):
    """The one first point of the nonempty, connected S = (verts, iv) of
    `_scaled_pi` met coming in from every leaf i of I, as a `_spot`; None
    when two leaves meet S first at two points.  From leaf i that point is
    the top of S on ray i; else the lo end of S if S has no vertex, as S
    is then one point inside a branch or a ray's tail; else the first
    point of S on the parents up from v_i, the same for every leaf at
    v_i, with the tree hung from a vertex of S."""
    adj, parent, walked, gate = G.topology.adj, None, set(), None
    for i in _bits(I):
        v = adj[i][0]
        if (v, i) in iv:
            x = _spot(G, (v, i), iv[(v, i)][1])
        elif v in walked:
            continue
        elif not verts:  # I in both groups pins S to t*, or else S is a ray's tail
            key, (lo, _) = next(iter(iv.items()))
            x = _spot(G, key, lo)
        else:
            walked.add(v)
            if parent is None:
                parent = _hang(adj, min(verts))[0]
            while v not in verts:
                w = parent[v]
                key = (v, w) if v < w else (w, v)
                if key in iv:
                    x = _spot(G, key, iv[key][v > w])  # its end nearer v
                    break
                v = w
            else:
                x = v, None
        if gate is None:
            gate = x
        elif x != gate:
            return None
    return gate


def _attachment(G: EmbeddedLine, I: int, argmins: dict) -> LinePoint | None:
    """`pi_attachment` for the leaf mask I, with `_argmins(G)` given.

    The gate is a `_spot`, an integer pair; its sides are leaf masks,
    read off the topology at a vertex and off the branch table inside a
    branch, and their union free of I is the free leaves.  Only the
    answer becomes a `LinePoint`, with one `Fraction`."""
    verts, iv = _scaled_pi(G, I, argmins)
    if not verts and not iv:
        return None
    topo = G.topology
    if I:
        gate = _gate(G, verts, iv, I)
    else:  # every vertex is a gate
        gate = (next(iter(G.rows)), None) if len(G.rows) == 1 else None
    if gate is not None:
        loc, T = gate
        if T is None:
            sides = [topo._mask_beyond(loc, w) for w in topo.adj[loc]]
        else:
            J = G._branches[loc][2]
            sides = [J, ((1 << (G.n + 1)) - 2) ^ J]
        free = 0
        for side in sides:
            if not side & I:
                free |= side
        adj = topo.adj
        if all(iv.get((adj[j][0], j), (0, 0))[1] is None for j in _bits(free)):
            if T is None:
                return LinePoint("vertex", loc)
            kind = "ray" if G._branches[loc][3] is None else "edge"
            return LinePoint(kind, loc, Fraction(T, G.D))
    raise TropError(f"Pi(G, {_bits(I)}) has no unique attachment point")


def pi_attachment(G: EmbeddedLine, I) -> LinePoint | None:
    """The point x with Pi(G, I) = {x} plus the branches free of I-leaves;
    None when Pi(G, I) is empty.  Raises when no such point exists.

    x must be the gate from every leaf of I (every vertex when I is empty).
    A branch holding a leaf i of I then meets S = Pi(G, I), which is
    connected, only at x; an I-free branch lies in S iff its leaf rays run
    out to infinity inside S.  These two checks prove the shape.  The walk
    runs on `_scaled_pi`'s integer interval ends and leaf masks; only the
    t of the point returned is a `Fraction`."""
    return _attachment(G, _leaf_mask(I, G.n), _argmins(G))


def pi_gamma(G: EmbeddedLine) -> ProjPoint:
    """The distinguished point through which every nonempty Pi(G, I)
    attaches.  Requires G inside Pi_2."""
    return ProjPoint(coords_at(G, pi_gamma_location(G)))


def pi_gamma_location(G: EmbeddedLine) -> LinePoint:
    """Where `pi_gamma` lies, from one pass over the rows: the argmin masks
    M_v decide G inside Pi_2 by `skeleton_level`'s rule (|M_v| less a leaf
    of M_v next to v is at least 2 at every v), and their union is imax."""
    argmins, adj, n = _argmins(G), G.topology.adj, G.n
    imax = 0
    for v, (_, M) in argmins.items():
        size = M.bit_count()
        if size < 3 and (size < 2 or any(w <= n and M >> w & 1 for w in adj[v])):
            raise TropError("line not in Pi_2")
        imax |= M
    # Inside Pi_2 every coordinate that attains the minimum somewhere on G
    # attains it at a vertex (see skeleton_level): on a ray the other
    # coordinates take over at t* <= 0.
    p = _attachment(G, imax, argmins)
    if p is None:
        raise TropError("no coordinate ever attains the minimum")
    return p


# ---------------------------------------------------------------------------
# fixed locus enumeration


@dataclass(frozen=True, eq=False)
class FixedLocusCell:
    """One candidate cell of the fixed locus: the witness point of L, the
    support indices required to attain the minimum, and the exact linear
    description of the admissible P (closed).

    Like `EmbeddedLine.rows`, the forms are stored as integer triples D
    times the true affine forms, D the line's scale; `witness`,
    `equalities` and `inequalities` divide them by D when read, and
    `jsonio.cell_to_json` writes them from the integers.  Cells compare
    by what they describe, whatever their D."""

    site: tuple  # ("vertex", node) or ("edge", (a, b), D * t-form)
    indices: tuple
    eq_forms: tuple  # D * affine forms, = 0
    ineq_forms: tuple  # D * affine forms, >= 0
    geometry: object  # plane geometry, never None in fixed_locus output
    D: int

    def _unscaled(self, f) -> tuple:
        return tuple(Fraction(c, self.D) for c in f)

    @property
    def witness(self) -> tuple:
        """("vertex", node) or ("edge", (a, b), t-form)."""
        if self.site[0] == "vertex":
            return self.site
        return (*self.site[:2], self._unscaled(self.site[2]))

    @property
    def equalities(self) -> tuple:
        """The affine forms that vanish on the cell, as `Fraction`s."""
        return tuple(map(self._unscaled, self.eq_forms))

    @property
    def inequalities(self) -> tuple:
        """The affine forms that are >= 0 on the cell, as `Fraction`s."""
        return tuple(map(self._unscaled, self.ineq_forms))

    def _key(self) -> tuple:
        return (self.witness, self.indices, self.equalities, self.inequalities, self.geometry)

    def __eq__(self, other):
        return isinstance(other, FixedLocusCell) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def _term_forms(A: SupportSet, D: int, row) -> list:
    """Affine forms D * T_m(P) = D * (a_m . P) + row_m in the z = 0 chart,
    1-based, for row = D times a vertex's coordinates: all integers."""
    return [None] + [(D * r, D * s, X) for (r, s, _), X in zip(A.points, row)]


def _sub(f, g):
    return (f[0] - g[0], f[1] - g[1], f[2] - g[2])


def _dips(terms, nx, ny, det, floor) -> bool:
    """Whether some term (a, b, c) takes a value a * nx + b * ny + c * det
    below floor."""
    for a, b, c in terms:
        if a * nx + b * ny + c * det < floor:
            return True
    return False


def fixed_locus(L: EmbeddedLine, A: SupportSet) -> list:
    """All cells of {P : is_fixed(L, A, P)}, pruned to nonempty geometry.

    Two leaf pairs (i, j), (k, l) in two components of L - {v} at a vertex
    v need no loop of their own.  The component holding (i, j) has two
    leaves, so it is no single ray but lies across an internal edge e at
    v, and e's system at t = 0 (or at t = length when v is e's larger-id
    end) is exactly the vertex system.  Every equality is a difference of
    two terms of distinct support points, so both gradients are nonzero,
    as `plane.solve` requires.

    Each vertex's parts and each edge's two sides are read as leaf masks,
    off the topology (`_mask_beyond`) and the branch table, and listed
    leaf by leaf (`trees._bits`); the parts are disjoint, so ranking them
    by their lowest bits is ranking them by their least leaves, the
    order of the oracle's sorted sets.  The systems are solved on the
    integer forms D * T_m (see `L.rows`): every form is D times the true
    one, which moves no solution and flips no inequality.  A kept cell stores these
    integer forms and D (see `FixedLocusCell`); no `Fraction` is made
    until a caller reads its forms.

    Each candidate is decided on integers before any form is built.  When
    its two equalities meet in one point (nx, ny) / det with det > 0
    (`plane._meet`), term m takes the value val_m = a_m * nx + b_m * ny +
    c_m * det there, det times D * T_m, so the inequality T_m - T_i >= 0
    holds iff val_m >= val_i: exactly the sign `plane.solve` tests.  A
    vertex candidate (i, j, k) survives iff no term is below val_i; an
    edge candidate (i, j, k, l) iff no inside term is below val_i, no
    outside term below val_k, and val_k - val_i lies in [0, D * length *
    det].  Parallel equalities go on only when they are one line
    (`plane._coincide`).  Only survivors build their forms and call
    `plane.solve`, which gives each cell's geometry, and a point seen
    before is dropped before its cell is built; the candidates run in the
    order of `oracle.brute_fixed_locus`, which solves every one of them.

    Zero-dimensional duplicates are removed; boundary points of segment
    cells may still reappear as vertex cells, by design (cells are closed).
    """
    if A.n != L.n:
        raise ValueError("support size and leaf count differ")
    out, seen_points = [], set()
    topo = L.topology
    D, rows = L.D, L.rows
    meet, coincide = plane._meet, plane._coincide

    def keep(site, indices, eqs, ineqs):
        geom = plane.solve(eqs, ineqs)
        if geom is None:
            return
        if isinstance(geom, plane.PointGeom):
            if geom in seen_points:
                return
            seen_points.add(geom)
        out.append(FixedLocusCell(site, indices, eqs, ineqs, geom, D))

    for v in topo.internal_nodes:
        T = _term_forms(A, D, rows[v])
        terms = T[1:]
        # disjoint parts: in the order of their least leaves, their lowest bits
        sides = sorted((topo._mask_beyond(v, w) for w in topo.adj[v]), key=lambda m: m & -m)
        parts = [_bits(m) for m in sides]
        # three leaves in three distinct components
        for pa, pb, pc in combinations(parts, 3):
            for i in pa:
                ai, bi, ci = Ti = T[i]
                for j in pb:
                    f = _sub(Ti, T[j])
                    for k in pc:
                        g = _sub(T[j], T[k])
                        det, nx, ny = meet(f, g)
                        if det:
                            # term i is minimal at P
                            if _dips(terms, nx, ny, det, ai * nx + bi * ny + ci * det):
                                continue
                        elif not coincide(f, g):
                            continue
                        below = tuple(_sub(Tm, Ti) for Tm in terms)
                        keep(("vertex", v), (i, j, k), (f, g), below)
    full, unit = (1 << (L.n + 1)) - 2, D // L._table_D
    for a, b, side, ell in L._edge_table():
        T = _term_forms(A, D, rows[a])
        inside, outside = _bits(side), _bits(full ^ side)
        T_in, T_out = [T[m] for m in inside], [T[m] for m in outside]
        top = unit * ell
        pairs_out = [(k, l, T[k], _sub(T[k], T[l])) for k, l in combinations(outside, 2)]
        for i, j in combinations(inside, 2):
            ai, bi, ci = Ti = T[i]
            f = _sub(Ti, T[j])
            for k, l, Tk, g in pairs_out:
                det, nx, ny = meet(f, g)
                if det:
                    # term i is minimal inside, term k outside, and the
                    # witness lies on the edge: D * t = T_k - T_i in [0, D * length]
                    ak, bk, ck = Tk
                    vi = ai * nx + bi * ny + ci * det
                    vk = ak * nx + bk * ny + ck * det
                    if not 0 <= vk - vi <= top * det:
                        continue
                    if _dips(T_in, nx, ny, det, vi) or _dips(T_out, nx, ny, det, vk):
                        continue
                elif not coincide(f, g):
                    continue
                tform = _sub(Tk, Ti)  # D times the edge parameter of the witness point
                ineqs = (
                    tuple(_sub(Tm, Ti) for Tm in T_in)
                    + tuple(_sub(Tm, Tk) for Tm in T_out)
                    + (tform, _sub((0, 0, top), tform))
                )
                keep(("edge", (a, b), tform), (i, j, k, l), (f, g), ineqs)
    return out


def fixed_locus_pieces(L: EmbeddedLine, A: SupportSet) -> list:
    """The fixed locus collapsed to disjoint maximal geometric pieces."""
    return plane.canonical_pieces([c.geometry for c in fixed_locus(L, A)])
