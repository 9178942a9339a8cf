"""Fixed loci: the points that every curve of a pencil passes through.

P is fixed for the pencil L exactly when the translated tree L + A.P sits
inside the locus Pi_2 where the smallest coordinate repeats.  That test
reads the argmin at each vertex of the translate: along an edge every
argmin is met at an end, so only a leaf ray whose coordinate ties for the
minimum at its vertex can lower the count.  The locus itself is
enumerated from the two witness patterns (three leaves in three branches
at a vertex, or two leaf pairs on the two sides of an edge point), each
giving a 2x2 exact linear system in the plane.

Run:  python3 demos/03_fixed_loci_and_skeletons.py
"""

from troppencil import (
    ProjPoint,
    SupportSet,
    fixed_locus,
    fixed_locus_pieces,
    is_fixed,
    pi_gamma,
    pi_set,
    shifted_line,
    skeleton_level,
    stable_pencil,
)
from troppencil.oracle import sampled_fixed

SQ = SupportSet(2, ((0, 0, 2), (1, 0, 1), (0, 1, 1), (1, 1, 0)))

configs = {
    "L from a general configuration": [(0, 0, 0), (2, 1, 0)],
    "L' from a degenerate one (star)": [(0, 0, 0), (1, 1, 0)],
    "L'' with a whole fixed segment": [(0, 0, 0), (0, 1, 0)],
}

for label, pts in configs.items():
    C = [ProjPoint(p) for p in pts]
    L = stable_pencil(SQ, C)
    print(f"\n=== {label}")
    print("pencil:", L)
    cells = fixed_locus(L, SQ)
    print(f"{len(cells)} nonempty cells; witnesses and index sets:")
    for cell in cells:
        print("   ", cell.witness[0], cell.indices, "->", cell.geometry)
    print("locus, collapsed to maximal pieces:", fixed_locus_pieces(L, SQ))
    for P in C:
        print(
        "   config point", tuple(map(str, P)), "is fixed:", is_fixed(L, SQ, P),
        "(oracle agrees:", sampled_fixed(L, SQ, P) == is_fixed(L, SQ, P), ")")

# This support set never has, say, 3 or 5 isolated fixed points: the count
# is always 1, 2 or infinite, as the three pencils above illustrate.

# ---------------------------------------------------------------------------
# The skeleton view.  Shift L by A.P for a fixed P: the shifted tree lies
# in Pi_2, and carries a distinguished point through which every nonempty
# set Pi(G, I) attaches.

C = [ProjPoint(p) for p in configs["L from a general configuration"]]
L = stable_pencil(SQ, C)
for P in C:
    G = shifted_line(L, SQ, P)
    print(
        f"\nshift by P = {tuple(map(str, P))}: skeleton level {skeleton_level(G)},",
        "attachment point", tuple(map(str, pi_gamma(G))),
    )

# Pi(G, I) for the unshifted tree (P = (0,0,0) leaves it in place): where
# do coordinates 2 and 3 both achieve the minimum?
S = pi_set(L, {2, 3})
print("\nPi(L, {2,3}) pieces:")
print("  vertices:", sorted(S.vertices))
print("  ray intervals:", {key: iv for key, iv in S.iv.items() if key in L.rays})
print("Pi(L, {1}) is empty:", pi_set(L, {1}).is_empty())
