"""Which tree shapes actually occur, and building configurations for them.

A tree is compatible with the support when every split quartet (ij|kl)
leaves conv(a_i, a_j) or conv(a_k, a_l) as a free hull edge.  Pencils
through configurations are always compatible; conversely, every trivalent
compatible type is realized by a general configuration, and the
construction is effective: realize the type with tiny edges inside one
secondary cone, then read one fixed point off each vertex via a rainbow
triangle.

Run:  python3 demos/04_compatible_types_and_realization.py
"""

from troppencil import (
    SupportSet,
    construct_configuration,
    count_compatible,
    enumerate_types,
    is_compatible,
    is_general,
    quartet_ok,
    realize_type,
    stable_pencil,
    support_graph,
    type_count,
    unique_matching,
)

SQ = SupportSet(2, ((0, 0, 2), (1, 0, 1), (0, 1, 1), (1, 1, 0)))
TRI5 = SupportSet.from_rs(2, [(0, 0), (1, 0), (2, 0), (0, 1), (0, 2)])
HEX6 = SupportSet.from_rs(2, [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2)])

# ---------------------------------------------------------------------------
# Quartets over the square: two pairings use hull edges, one is diagonal.

for pairs in [((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3))]:
    v = quartet_ok(SQ, *pairs[0], *pairs[1])
    print(f"pairs {pairs[0]} | {pairs[1]}: {'ok' if v.ok else 'blocked'} ({v.reason})")

# ---------------------------------------------------------------------------
# Counting compatible trivalent types.  With every support point on the
# hull boundary the count is 2n-4 choose n-2 over n-1.

for A, name in [(SQ, "square"), (TRI5, "five boundary points"), (HEX6, "all six degree-2 points")]:
    total = type_count(A.n)
    good = count_compatible(A)
    print(f"{name}: {good} compatible of {total} trivalent types")

# ---------------------------------------------------------------------------
# Realize every compatible square type and close the loop.

for idx, T in enumerate(enumerate_types(4)):
    verdict = is_compatible(T, SQ)
    print(f"\ntype {idx}: {T}  compatible: {verdict.ok}")
    if not verdict.ok:
        print("  witness quartet:", verdict.witness)
        continue
    L = realize_type(SQ, T)
    print("  realized line:", L)
    C = construct_configuration(L, SQ)
    print("  configuration:", [tuple(map(str, P)) for P in C])
    print("  general:", bool(is_general(SQ, C)))
    print("  stable pencil reproduces the line:", stable_pencil(SQ, C) == L)

# ---------------------------------------------------------------------------
# Why the constructed configuration is general: the bipartite graphs
# between vertices and support points are forests, so each maximal minor
# has one optimal assignment, found by stripping leaves.

T = enumerate_types(4)[1]  # the split {2,4} cherry -> {1,3}|{2,4} type
L = realize_type(SQ, T)
v = L.topology.internal_nodes[0]
G = support_graph(L, SQ, v)
print(f"\nsupport graph at vertex {v}: {sorted(G.edges)}")
print("edges:", len(G.edges), "(= 2n-3)  components:", G.component_count(), " forest:", G.is_forest())
psi = unique_matching(support_graph(L, SQ, v), (1, 2))
print("unique matching avoiding support points 1, 2:", psi)
