"""Tropical lines in TP^(n-1) as labelled metric trees.

A line is an n-leaf tree: leaf i sits at infinity on a ray with direction
e_i, and an internal edge whose far side carries the leaf set I points in
direction e_I = sum_{i in I} e_i.  Crossing such an edge adds (lattice
length) * e_I to the vertex coordinates in TP^(n-1), that is, modulo the
all-ones vector: each vertex keeps a raw lift in R^n, and the lifts at
b and at a of an edge (a, b), a < b, I beyond b, differ by length * e_I
plus a multiple of (1, ..., 1), which is nonzero exactly where the
placing walk (`_placed`) crosses the edge from b to a.

The translation to and from tropical Pluecker vectors (the coordinates on
the space of lines) is derived from the circuit conditions: at the median
vertex m of leaves {i, j, k} the three quantities p_jk + m_i, p_ik + m_j,
p_ij + m_k coincide.  Reconstruction reads the tree off the Farris
transform at leaf 1, g(i, j) = p_ij - p_1i - p_1j for leaves i, j >= 2:
p satisfies every quartet relation iff g is an ultrametric (Bandelt,
"Recognition of tree metrics", 1990; Semple and Steel, "Phylogenetics",
2003, section 7.2), whose tree, hung from the vertex next to leaf 1, has
g(i, j) as the depth of the lowest node above i and j.  Leaves are
inserted one at a time, O(n) each, and then every pair is checked against
that depth, O(n^2) in all.  An edge's lattice length is the difference of
its ends' depths, and the vertex next to leaf 1 sits at x_l = p_1l,
x_1 = max_{i,j} (p_1i + p_1j - p_ij).  Ties produce zero-length edges,
which are contracted, so degenerate lines come out as trees with
higher-valence vertices.

A line stores its coordinates on one integer scale only, D > 0 and the
rows D * x_v in Python ints; a translate by S / E (S integers) has the rows
E * row + D * S on the scale D * E, the one formula that `translate`,
`pencil.shifted_line` and `pencil.is_fixed` read.  A pair vector likewise
keeps the least D > 0 and the symmetric int table D * p, which
`stable.solve_minors` and `tree_to_plucker` fill from their integers
directly.  `Fraction`s are built only where a caller asks for them
(`coords_of`, `PlueckerVector.get`, the branch views).  One walk hangs
every tree (`_hang`, breadth first from a root; `tree_to_plucker` reads
every median off one pass over it from leaf n) and one places every line
(`_placed`): from an anchor row and integer edge lengths it lays out the
rows, breadth first from the anchor, and the branch table, one leaf
bitmask and one integer length per branch, for `embed`,
`plucker_to_tree`, `compat`'s unit offsets and realized types, and the
JSON line decoder (`jsonio.line_from_json`).  Leaf sets stay bitmasks
(bit i for leaf i) on every computing path; `frozenset`s are built only
by the public views that return them (`leaves_beyond`, `leaf_partition`,
`splits`, `EmbeddedLine.branches`, `.edges`, `.edge`).

`plucker_to_tree` compares only sums of pair coordinates, which are
linear in p, so it inserts the leaves and checks the pairs on the table
D * p in Python integers.  The insertion tree already holds every node,
edge, leaf set and depth, so the line is placed from it directly, with
neither `TreeTopology.from_splits` nor `embed`: same node ids, rows and
branch table as `embed` would give, on the scale D, which is the least
one here too.  Every scalar that enters a line or a pair vector is an
exact rational: `embed`, `translate` and `PlueckerVector` coerce their
inputs with `core.rat` and refuse anything else.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, islice
from math import gcd

from .core import InternalError, ProjPoint, TropError, clear_denominators, rat


class PlueckerError(TropError):
    """Raised when a pair vector violates the quartet relation."""


def _hang(adj: dict, root: int) -> tuple:
    """(parent, order): `adj` hung from `root`, walked breadth first, with
    parent[root] = None; order holds only root's component."""
    parent, order = {root: None}, [root]
    for v in order:
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
                order.append(w)
    return parent, order


def _bits(mask: int) -> list:
    """The indices of the set bits of mask, ascending: the leaves of a
    leaf bitmask in order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class TreeTopology:
    """A leaf-labelled tree: leaves 1..n, internal node ids above n,
    every internal node of valence >= 3 (no 2-valent nodes).

    Neighbours are kept as sorted tuples, and leaf sets as int bitmasks
    (bit i for leaf i) worked out once, on first use; enumerations keep
    thousands of topologies alive, so both stay small."""

    __slots__ = ("n", "adj", "_below_masks")

    def __init__(self, n: int, adj: dict):
        self.n = n
        self.adj = {v: tuple(sorted(set(nb))) for v, nb in adj.items()}
        self._below_masks = None
        self._validate()

    @classmethod
    def _built(cls, n: int, adj: dict, below) -> "TreeTopology":
        """A tree its builder knows to be valid: `adj` holds sorted tuples
        already and `below` is the table `_below` would work out, or None
        to have it worked out on first use."""
        self = cls.__new__(cls)
        self.n, self.adj, self._below_masks = n, adj, below
        return self

    def _validate(self):
        nodes = set(self.adj)
        if set(range(1, self.n + 1)) - nodes:
            raise ValueError("missing leaf nodes")
        if min(nodes) < 1:
            raise ValueError(f"internal node id {min(nodes)} is not above n = {self.n}")
        deg_sum = 0
        for v, nb in self.adj.items():
            for w in nb:
                if v not in self.adj.get(w, ()):
                    raise ValueError("adjacency is not symmetric")
            deg_sum += len(nb)
            if self.is_leaf(v):
                if len(nb) != 1:
                    raise ValueError(f"leaf {v} has valence {len(nb)}")
            elif len(nb) < 3:
                raise ValueError(f"internal node {v} has valence {len(nb)} < 3")
        if deg_sum != 2 * (len(nodes) - 1):
            raise ValueError("not a tree (wrong edge count)")
        if len(_hang(self.adj, 1)[1]) != len(nodes):
            raise ValueError("not connected")

    def is_leaf(self, v: int) -> bool:
        return 1 <= v <= self.n

    @property
    def internal_nodes(self) -> list:
        return sorted(v for v in self.adj if not self.is_leaf(v))

    @property
    def internal_edges(self) -> list:
        """Internal edges as (a, b) with a < b."""
        out = []
        for v in self.internal_nodes:
            for w in self.adj[v]:
                if not self.is_leaf(w) and v < w:
                    out.append((v, w))
        return sorted(out)

    def is_trivalent(self) -> bool:
        return all(len(self.adj[v]) == 3 for v in self.internal_nodes)

    def node_of_leaf(self, i: int) -> int:
        (v,) = self.adj[i]
        return v

    def _below(self) -> dict:
        """Per internal node v, the leaves below v when the tree hangs from
        the node next to leaf 1.  Every edge separates the leaves below its
        lower end from the rest, so this one walk answers leaves_beyond."""
        if self._below_masks is None:
            parent, order = _hang(self.adj, self.node_of_leaf(1))
            below = {}
            for v in reversed(order):
                if not self.is_leaf(v):
                    below[v] = sum(below.get(w, 1 << w) for w in self.adj[v] if w != parent[v])
            self._below_masks = below
        return self._below_masks

    def _mask_beyond(self, a: int, b: int) -> int:
        below = self._below()
        ma, mb = below.get(a, 1 << a), below.get(b, 1 << b)
        # the lower end of the edge holds the smaller, nested leaf set
        return mb if mb < ma else ((1 << (self.n + 1)) - 2) ^ ma

    def _leaves(self, mask: int) -> frozenset:
        return frozenset(i for i in range(1, self.n + 1) if mask >> i & 1)

    def leaves_beyond(self, a: int, b: int) -> frozenset:
        """Leaves in the component of b after removing the edge (a, b)."""
        return self._leaves(self._mask_beyond(a, b))

    def leaf_partition(self, v: int) -> list:
        """Leaf sets of the components of the tree minus the node v."""
        return [self.leaves_beyond(v, w) for w in sorted(self.adj[v])]

    def path(self, a: int, b: int) -> list:
        """Node sequence from a to b: the parents up from a, with the tree
        hung from b.  The naive walk of `oracle`'s twins and the tests."""
        parent, out = _hang(self.adj, b)[0], [a]
        while out[-1] != b:
            out.append(parent[out[-1]])
        return out

    def _split_masks(self) -> dict:
        """Per internal edge (a, b), the bitmask of its side without leaf n."""
        out, full = {}, (1 << (self.n + 1)) - 2
        for a, b in self.internal_edges:
            m = self._mask_beyond(a, b)
            out[(a, b)] = full ^ m if m >> self.n & 1 else m
        return out

    def splits(self) -> list:
        """One (edge, I) per internal edge; I is the side without leaf n."""
        out = [(e, self._leaves(m)) for e, m in self._split_masks().items()]
        return sorted(out, key=lambda e: (len(e[1]), sorted(e[1])))

    def split_set(self) -> frozenset:
        return frozenset(self._leaves(m) for m in self._split_masks().values())

    def __eq__(self, other):
        return (
            isinstance(other, TreeTopology)
            and self.n == other.n
            and set(self._split_masks().values()) == set(other._split_masks().values())
        )

    def __hash__(self):
        return hash((self.n, frozenset(self._split_masks().values())))

    def __repr__(self):
        parts = ["{%s}" % ",".join(map(str, sorted(s))) for s in sorted(self.split_set(), key=sorted)]
        return f"TreeTopology(n={self.n}, splits=[{' '.join(parts)}])"

    @classmethod
    def star(cls, n: int) -> "TreeTopology":
        adj = {i: {n + 1} for i in range(1, n + 1)}
        adj[n + 1] = set(range(1, n + 1))
        return cls(n, adj)

    @classmethod
    def from_splits(cls, n: int, splits) -> "TreeTopology":
        """Build the unique tree whose internal edges realize the given
        splits (each a set of leaves not containing n, sizes 2..n-2)."""
        fam = []
        for s in splits:
            s = frozenset(s)
            if n in s:
                s = frozenset(range(1, n + 1)) - s
            if not 2 <= len(s) <= n - 2:
                raise ValueError(f"split {sorted(s)} has a side smaller than 2")
            if s not in fam:
                fam.append(s)
        for s1, s2 in combinations(fam, 2):
            if s1 & s2 and not (s1 <= s2 or s2 <= s1):
                raise ValueError(f"incompatible splits {sorted(s1)}, {sorted(s2)}")
        fam.sort(key=lambda s: (-len(s), sorted(s)))
        root = n + 1
        node_of = {}
        nxt = n + 2
        for s in fam:
            node_of[s] = nxt
            nxt += 1
        adj = {root: set()}
        for s in fam:
            sups = [t for t in fam if s < t]
            parent = node_of[min(sups, key=len)] if sups else root
            adj.setdefault(node_of[s], set()).add(parent)
            adj.setdefault(parent, set()).add(node_of[s])
        for leaf in range(1, n + 1):
            holders = [t for t in fam if leaf in t]
            parent = node_of[min(holders, key=len)] if holders else root
            adj[leaf] = {parent}
            adj[parent].add(leaf)
        return cls(n, adj)


class EmbeddedLine:
    """A tropical line: topology plus a raw coordinate lift per vertex.

    For every internal edge (a, b), coords(b) - coords(a) equals
    length * e_I modulo the all-ones vector, where I = leaves beyond b;
    lengths are positive.  A ray is an edge whose far end, the leaf, lies
    at infinity.  `_placed` builds a line and its one table of branches,
    keyed (a, b): the internal edges (a, b, I, length) with a < b, then
    the rays (node, leaf, {leaf}, None) in sorted order.  The table holds
    I as a leaf bitmask and the length as an int, `_table_D` times the
    length, `_table_D` being the scale of the line `_placed` built; a
    translate shares the table and its `_table_D`, and its own D is a
    multiple of it.  `branches`, `edges` and `edge` build the public
    (a, b, frozenset, `Fraction` or None) tuples when read.

    `rows` maps each internal vertex to D times its coordinates, a tuple of
    ints, for some D > 0, the least for lines from `embed` and from
    `plucker_to_tree`.  D times a length is an integer too: a length is a
    coordinate difference.
    """

    __slots__ = ("topology", "D", "rows", "_branches", "_table_D")

    def __init__(self, topology: TreeTopology, D: int, rows: dict, branches: dict, table_D: int):
        self.topology, self.D, self.rows = topology, D, rows
        self._branches, self._table_D = branches, table_D

    @property
    def n(self) -> int:
        return self.topology.n

    def _length(self, ell):
        """A stored branch length as a `Fraction`, None on a ray."""
        return None if ell is None else Fraction(ell, self._table_D)

    def _view(self, a: int, b: int, mask: int, ell) -> tuple:
        return (a, b, self.topology._leaves(mask), self._length(ell))

    def _edge_table(self):
        """The table's (a, b, leaf mask, int length) per internal edge,
        first in it: a tree has one edge less than nodes."""
        return islice(self._branches.values(), len(self.rows) - 1)

    @property
    def branches(self) -> list:
        """(a, b, leaves-beyond-b, length or None) per edge, then per ray."""
        return [self._view(*br) for br in self._branches.values()]

    @property
    def edges(self) -> list:
        """(a, b, leaves-beyond-b, length) per internal edge, a < b."""
        return [self._view(*br) for br in self._edge_table()]

    @property
    def rays(self) -> list:
        """(internal node, leaf) per unbounded edge."""
        return list(self._branches)[len(self.rows) - 1 :]

    def edge(self, key) -> tuple:
        """The branch key = (a, b): an internal edge (a < b) or a ray
        (node, leaf)."""
        return self._view(*self._branches[key])

    def coords_of(self, v: int) -> tuple:
        """The raw coordinates of the internal vertex v, as `Fraction`s."""
        return tuple(Fraction(x, self.D) for x in self.rows[v])

    @property
    def coords(self) -> dict:
        """{v: coords_of(v)} per internal vertex, built on each access."""
        return {v: self.coords_of(v) for v in self.rows}

    def _shifted_rows(self, E: int, DS):
        """(v, E * row + DS) per vertex, lazily: for DS = D * S, the rows of
        the translate by S / E (S integers, E > 0) on the scale D * E."""
        return ((v, tuple([E * x + h for x, h in zip(row, DS)])) for v, row in self.rows.items())

    def _shifted(self, E: int, DS) -> "EmbeddedLine":
        """The translate by S / E, sharing the topology and branch table."""
        rows = dict(self._shifted_rows(E, DS))
        return EmbeddedLine(self.topology, self.D * E, rows, self._branches, self._table_D)

    def translate(self, shift) -> "EmbeddedLine":
        """The line translated by a vector of TP^(n-1)."""
        shift = tuple(rat(s) for s in shift)
        if len(shift) != self.n:
            raise ValueError("shift must have one entry per leaf")
        E, S = clear_denominators(shift)
        return self._shifted(E, [self.D * s for s in S])

    def canonical_key(self):
        """Hashable invariant: equal keys iff equal lines (as subsets of
        TP^(n-1) with the same combinatorics).  Each vertex gives its leaf
        partition, as the sorted bitmasks of the sides, and its row minus
        its last entry, as `ProjPoint` normalizes coordinates; dividing
        the scale and those entries by their gcd makes the key scale-free."""
        topo, items = self.topology, []
        for v in topo.internal_nodes:
            row = self.rows[v]
            part = tuple(sorted(topo._mask_beyond(v, w) for w in topo.adj[v]))
            items.append((part, tuple(x - row[-1] for x in row)))
        g = gcd(self.D, *(x for _, d in items for x in d))
        return (self.n, self.D // g, tuple(sorted((p, tuple(x // g for x in d)) for p, d in items)))

    def __eq__(self, other):
        return isinstance(other, EmbeddedLine) and self.canonical_key() == other.canonical_key()

    def __hash__(self):
        return hash(self.canonical_key())

    def __repr__(self):
        vs = ", ".join(
            f"{v}:({','.join(str(c) for c in ProjPoint(cs).coords)})"
            for v, cs in sorted(self.coords.items())
        )
        return f"EmbeddedLine(n={self.n}, vertices {vs})"


def embed(topology: TreeTopology, lengths, anchor_node: int, anchor_coords) -> EmbeddedLine:
    """Place a topology in TP^(n-1) by propagating from an anchored node.

    `lengths` maps internal edges to positive lattice lengths; keys may be
    frozensets {a, b} of node ids or the split's leaf side (either side).
    D is the lcm of the denominators of the anchor and the lengths, and
    `_placed` lays the rows and the branch table out on it.
    """
    if anchor_node not in topology.adj or topology.is_leaf(anchor_node):
        raise ValueError(f"anchor node {anchor_node} is not an internal node")
    anchor = [rat(c) for c in anchor_coords]  # a ProjPoint iterates over its coordinates
    if len(anchor) != topology.n:
        raise ValueError("coordinate vectors must have one entry per leaf")

    def names(a, b):  # the leaf sides only when the node pair is not a key
        yield frozenset((a, b))
        yield topology.leaves_beyond(a, b)
        yield topology.leaves_beyond(b, a)

    def edge_length(a, b):
        for key in names(a, b):
            if key in lengths:
                ell = rat(lengths[key])
                if not ell > 0:
                    raise ValueError("non-positive length")
                return ell
        raise ValueError(f"no length given for edge ({a},{b})")

    keys = topology.internal_edges
    ells = [edge_length(a, b) for a, b in keys]
    D, ints = clear_denominators(anchor + ells)
    n = topology.n
    return _placed(topology, D, anchor_node, ints[:n], dict(zip(keys, ints[n:])))


def _placed(topology: TreeTopology, D: int, anchor: int, row, int_lengths) -> EmbeddedLine:
    """The line of `topology` on the scale D whose row at the internal node
    `anchor` is `row`, with D times its length int_lengths[a, b] on each
    internal edge (a, b), a < b; all of them ints.

    The tree hangs from the anchor (`_hang`); breadth first, each internal
    node b gets its parent a's row plus the length on the leaves beyond b,
    so rows come in that order.  When the parent has the larger id, the
    key is (b, a), its side the leaves beyond a, that mask's complement,
    and a's row minus b's is D * length on that side minus D * length *
    (1, ..., 1): the same point of TP^(n-1), another lift.  The branch
    table holds the edges by key, (a, b, mask of the leaves beyond b,
    D * length), then the rays by node, (node, leaf, mask of the leaf,
    None), on the scale D."""
    n, adj = topology.n, topology.adj
    parent, order = _hang(adj, anchor)
    rows, edges, full = {anchor: tuple(row)}, {}, (1 << (n + 1)) - 2
    for b in order[1:]:
        if b <= n:
            continue
        a = parent[b]
        key = (a, b) if a < b else (b, a)
        ell, m = int_lengths[key], topology._mask_beyond(a, b)
        rows[b] = tuple([x + ell if m >> i & 1 else x for i, x in enumerate(rows[a], 1)])
        edges[key] = (*key, m if a < b else full ^ m, ell)
    branches = dict(sorted(edges.items()))
    for v, i in sorted((adj[i][0], i) for i in range(1, n + 1)):
        branches[(v, i)] = (v, i, 1 << i, None)
    return EmbeddedLine(topology, D, rows, branches, D)


def line_contains(L: EmbeddedLine, c: ProjPoint) -> bool:
    """True iff c lies on a vertex, bounded edge or leaf ray of L."""
    if c.dim != L.n:
        raise ValueError("dimension mismatch")
    for v in L.topology.internal_nodes:
        if ProjPoint(L.coords_of(v)) == c:
            return True
    for a, _, side, ell in L.branches:
        t = _ray_parameter(L.coords_of(a), c.coords, side, L.n)
        if t is not None and 0 <= t and (ell is None or t <= ell):
            return True
    return False


def _ray_parameter(base, target, side, n):
    """Solve target == base + t * e_side in TP^(n-1); None if unsolvable."""
    delta = [t - b for b, t in zip(base, target)]
    on = {delta[i - 1] for i in side}
    off = {delta[i - 1] for i in range(1, n + 1) if i not in side}
    if len(on) != 1 or len(off) != 1:
        return None
    return next(iter(on)) - next(iter(off))


class PlueckerVector:
    """The (n choose 2) tropical pair coordinates of a line, kept on one
    integer scale as `EmbeddedLine` keeps its rows: the least D > 0 and the
    symmetric table of ints table[i][j] = D * p_ij (None off the pairs),
    normalized to p_{n-1,n} = 0.  `get` and `values` build `Fraction`s
    only when read."""

    __slots__ = ("n", "D", "table")

    def __init__(self, n: int, values: dict):
        vals = {}
        for key, v in values.items():
            ints = isinstance(key, (tuple, frozenset)) and all(isinstance(x, int) for x in key)
            ij = tuple(sorted(key)) if ints else ()
            if len(ij) != 2 or not 1 <= ij[0] < ij[1] <= n:
                raise ValueError(f"bad pair {key!r}")
            if ij in vals:
                raise ValueError(f"pair {ij} is given twice")
            vals[ij] = rat(v)
        if len(vals) != n * (n - 1) // 2:
            raise ValueError("need a value for every pair")
        D, ints = clear_denominators(list(vals.values()))
        self._fill(n, D, dict(zip(vals, ints)))

    @classmethod
    def _scaled(cls, n: int, D: int, pairs: dict) -> "PlueckerVector":
        """The vector with p_ij = pairs[i, j] / D for every i < j, the
        pairs ints and D > 0, on any scale."""
        self = cls.__new__(cls)
        self._fill(n, D, pairs)
        return self

    def _fill(self, n: int, D: int, pairs: dict):
        """Normalize D * p to p_{n-1,n} = 0 and divide out the gcd with D."""
        ref = pairs[n - 1, n]
        g = gcd(D, *(v - ref for v in pairs.values()))
        table = [[None] * (n + 1) for _ in range(n + 1)]
        for (i, j), v in pairs.items():
            table[i][j] = table[j][i] = (v - ref) // g
        self.n, self.D, self.table = n, D // g, tuple(map(tuple, table))

    def get(self, i: int, j: int) -> Fraction:
        if not (0 < i <= self.n and 0 < j <= self.n and i != j):  # no wrap-around of -1
            raise KeyError((i, j))
        return Fraction(self.table[i][j], self.D)

    @property
    def values(self) -> dict:
        """{frozenset({i, j}): p_ij} per pair, built on each access."""
        return {frozenset(ij): self.get(*ij) for ij in combinations(range(1, self.n + 1), 2)}

    def validate(self):
        """Check the quartet relation: the minimum of the three pairing
        sums is attained at least twice, for every quartet."""
        q = self.table
        for quartet in combinations(range(1, self.n + 1), 4):
            i, j, k, l = quartet
            sums = (q[i][j] + q[k][l], q[i][k] + q[j][l], q[i][l] + q[j][k])
            if sums.count(min(sums)) < 2:
                raise PlueckerError(f"not a Pluecker vector: quartet {quartet} fails")

    def __eq__(self, other):  # the table has n + 1 rows
        return isinstance(other, PlueckerVector) and (self.D, self.table) == (other.D, other.table)

    def __hash__(self):
        return hash((self.n, self.D, self.table))

    def __repr__(self):
        pairs = ", ".join(
            f"p{i}{j}={self.get(i, j)}" for i, j in combinations(range(1, self.n + 1), 2)
        )
        return f"PlueckerVector({pairs})"


def tree_to_plucker(L: EmbeddedLine) -> PlueckerVector:
    """Pair coordinates of a line, from the median relations
    p_jk + m_i = p_ik + m_j = p_ij + m_k at m = median(i, j, k), worked
    out D times too large on the line's rows, in ints on the scale D.
    Hung from leaf n (`_hang`), a node x above leaf i has x_i - x_n = r_i -
    r_n + its depth below r, the node next to n, so p_in = r_i - r_n up to
    the one constant that `_scaled` normalizes away, and one pass bottom-up
    reads p_ij at m = the lowest node above i and j."""
    n, adj, rows = L.n, L.topology.adj, L.rows
    parent, order = _hang(adj, n)
    r = rows[order[1]]
    p = {(i, n): r[i - 1] - r[n - 1] for i in range(1, n)}
    below = {i: [i] for i in range(1, n)}  # the leaves below each node
    for v in reversed(order):
        if v > n:
            m, below[v] = rows[v], []
            for c in adj[v]:
                if c != parent[v]:
                    for a in below[c]:
                        for b in below[v]:
                            p[a, b] = p[b, n] + m[a - 1] - m[n - 1]
                    below[v] += below[c]
    return PlueckerVector._scaled(n, L.D, p)


def plucker_to_tree(p: PlueckerVector) -> EmbeddedLine:
    """The embedded line with pair coordinates p (inverse of
    tree_to_plucker up to the choice of raw lift).

    Builds the tree of the ultrametric g (see the module docstring) on
    D * p: leaf m goes next to the placed leaf i with the largest g(m, i),
    at depth h = g(m, i), onto the first node up from i of depth <= h if
    that depth is h, else onto a new node of depth h on the edge below it.
    Then every pair must meet at its g; if one does not, p is not a
    Pluecker vector, and `validate` names its first failing quartet.  Each
    node below the root is an edge, of lattice length its depth minus its
    parent's, and the root's first coordinate is minus its depth.  The
    line is read off that tree as it stands (`_hung_line`), on the least
    scale D of p.  O(n^2) scalar operations in all.
    """
    n = p.n
    if n < 3:
        raise ValueError(f"a line needs at least 3 leaves, got n = {n}")
    D, q = p.D, p.table
    q1 = q[1]
    g = {
        i: {j: q[i][j] - q1[i] - q1[j] for j in range(2, n + 1) if j != i}
        for i in range(2, n + 1)
    }

    # internal nodes get ids n + 1, n + 2, ... as they are made; a leaf's
    # depth is infinite, so the walk up from a leaf starts at its parent
    root = n + 1
    depth, kids, parent = {root: g[2][3]}, {root: [2, 3]}, {2: root, 3: root, root: None}
    for m in range(4, n + 1):
        row = g[m]
        below = max(range(2, m), key=row.__getitem__)
        h = row[below]
        v = parent[below]
        while v is not None and depth[v] > h:
            below, v = v, parent[v]
        if v is not None and depth[v] == h:
            kids[v].append(m)
            parent[m] = v
            continue
        u = n + 1 + len(depth)
        depth[u], kids[u], parent[u] = h, [below, m], v
        parent[below] = parent[m] = u
        if v is None:
            root = u
        else:
            kids[v][kids[v].index(below)] = u

    # a and b below two different children of v must have g(a, b) = depth of v;
    # bottom-up, that reads each of the C(n - 1, 2) pairs once
    order = [root]
    for v in order:
        order += [c for c in kids[v] if c in kids]
    leaves = {}
    for v in reversed(order):
        d, seen = depth[v], []
        for c in kids[v]:
            group = leaves[c] if c in kids else [c]
            for a in group:
                ga = g[a]
                if any(ga[b] != d for b in seen):
                    p.validate()
                    raise InternalError("pair check failed on a vector that validate accepts")
            seen += group
        leaves[v] = seen
    return _hung_line(n, D, [-depth[root], *q1[2:]], order, depth, kids, parent, leaves)


def _hung_line(n, D, top, order, depth, kids, parent, leaves) -> EmbeddedLine:
    """The line of `plucker_to_tree`'s insertion tree, equal part for part
    to `embed(TreeTopology.from_splits(...), ...)` of its splits.

    The tree hangs from order[0], the node next to leaf 1, whose row is
    `top`; each other node's edge up has its depth gap as D times its
    length, and `_placed` lays the line out from order[0].  D is the least
    scale of the rows: they are integers on it, and any scale that makes
    them integers makes p integer too (`tree_to_plucker` reads p off the
    rows by integer sums), so it is a multiple of D.  Node ids follow
    `from_splits`: n + 1 next to leaf n, and n + 2 + the rank, by (-size,
    sorted leaves), of each edge's side without leaf n at that side's end."""
    mask = {v: sum(1 << a for a in leaves[v]) for v in order}
    sides = []  # (-size, side without leaf n, the node at its end)
    for v in order[1:]:
        if mask[v] >> n & 1:
            side = [i for i in range(1, n + 1) if not mask[v] >> i & 1]
            sides.append((-len(side), side, parent[v]))
        else:
            sides.append((-len(leaves[v]), sorted(leaves[v]), v))
    sides.sort()
    ids = {i: i for i in range(2, n + 1)}
    ids[parent[n]] = n + 1
    ids.update((end, n + 2 + rank) for rank, (_, _, end) in enumerate(sides))

    root = ids[order[0]]
    adj = {1: (root,), root: [1]}
    for v in order:
        a = ids[v]
        for c in kids[v]:
            adj[a].append(ids[c])
            adj[ids[c]] = [a] if c in kids else (a,)
        adj[a] = tuple(sorted(adj[a]))
    below = {ids[v]: mask[v] for v in order}
    below[root] = (1 << (n + 1)) - 2  # leaf 1 hangs from the root too
    gaps = {}
    for v in order[1:]:
        a, b = ids[parent[v]], ids[v]
        gaps[(a, b) if a < b else (b, a)] = depth[v] - depth[parent[v]]
    return _placed(TreeTopology._built(n, adj, below), D, root, top, gaps)
