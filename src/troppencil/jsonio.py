"""JSON (de)serialization for every wire format the CLI speaks.

Rationals travel as integers or strings "p/q" (emitted in lowest terms
with a positive denominator; read as `core.rational_from_json` states);
projective points as coordinate arrays (any representative accepted,
canonical emitted); trees as edge lists with null lengths on leaf edges
plus an anchored coordinate vector.  Each decoder raises MalformedInput
naming the field at fault, including when a field disagrees with the
size of the support.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd, lcm

from . import plane
from .core import ProjPoint, SupportSet, rational_from_json, rational_terms, rational_to_json
from .pencil import FixedLocusCell
from .subdivision import CurveGraph, RegularSubdivision
from .trees import EmbeddedLine, TreeTopology, _bits, _placed


class MalformedInput(Exception):
    """Structurally bad input: wrong JSON shape or malformed rationals.
    The messages raised here start with the path of the field at fault."""


def expect(obj, path: str, kind=None):
    """The field at the end of the dotted `path` of obj, checked to be
    present and, when `kind` is given, of that type; errors name the path."""
    key = path.rpartition(".")[2]
    if not isinstance(obj, dict) or key not in obj:
        raise MalformedInput(f"{path} is missing")
    val = obj[key]
    # bool is a subclass of int, but true and false are not numbers here
    if kind is not None and (not isinstance(val, kind) or isinstance(val, bool)):
        raise MalformedInput(f"{path} must be of type {kind.__name__}")
    return val


def _rational(obj, field: str, parse=rational_from_json):
    try:
        return parse(obj)
    except ValueError as e:
        raise MalformedInput(f"{field}: {e}") from e


def point_to_json(P: ProjPoint) -> list:
    return [rational_to_json(c) for c in P.coords]


def point_from_json(obj, field: str, dim: int) -> ProjPoint:
    """The projective point with `dim` coordinates in the named field."""
    if not isinstance(obj, list) or len(obj) != dim:
        raise MalformedInput(f"{field} must be a list of {dim} coordinates")
    return ProjPoint([_rational(c, field) for c in obj])


def support_from_json(obj) -> SupportSet:
    degree = expect(obj, "support.degree", int)
    pts = expect(obj, "support.points", list)
    if not all(
        isinstance(p, list) and len(p) == 3 and all(type(c) is int for c in p) for p in pts
    ):
        raise MalformedInput("support.points must be integer triples")
    try:
        return SupportSet(degree, tuple(tuple(p) for p in pts))
    except ValueError as e:
        raise MalformedInput(f"support: {e}") from e


def config_to_json(config) -> dict:
    return {"points": [point_to_json(P) for P in config]}


def config_from_json(obj, n: int) -> list:
    """The n - 2 points of TP^2 that a configuration for n support points has."""
    points = expect(obj, "configuration.points", list)
    if len(points) != n - 2:
        raise MalformedInput(f"configuration.points has {len(points)} points, not {n - 2}")
    return [point_from_json(p, f"configuration.points[{k}]", 3) for k, p in enumerate(points)]


def verdict_to_json(verdict) -> dict:
    """A generality verdict: the flag and the first tied pair, if any."""
    return {
        "general": verdict.general,
        "singular_pair": list(verdict.singular_pair) if verdict.singular_pair else None,
    }


def subdivision_to_json(S: RegularSubdivision) -> dict:
    return {"cells": [list(cell) for cell in S.cells]}


def curve_to_json(curve: CurveGraph) -> dict:
    return {
        "vertices": [
            {"coords": point_to_json(v.point), "cell": list(v.cell)}
            for v in curve.vertices
        ],
        "edges": [
            {"a": e.a, "b": e.b, "dual": list(e.dual)} for e in curve.edges
        ],
        "rays": [
            {"vertex": r.vertex, "direction": list(r.direction), "dual": list(r.dual)}
            for r in curve.rays
        ],
    }


def topology_to_json(T: TreeTopology) -> dict:
    return {
        "n": T.n,
        "edges": [{"a": v, "b": w} for v in sorted(T.adj) for w in T.adj[v] if v < w],
        "leaf_map": {str(i): T.node_of_leaf(i) for i in range(1, T.n + 1)},
    }


def topology_from_json(obj, n: int, field: str = "topology") -> TreeTopology:
    """The tree with n leaves in the named field.  Each edge may be listed
    once, in either orientation; a `leaf_map`, optional, must name the node
    that the edges attach each leaf to."""
    leaves = expect(obj, f"{field}.n", int)
    if leaves != n:
        raise MalformedInput(f"{field} has {leaves} leaves, the support has {n} points")
    adj = {}
    for k, e in enumerate(expect(obj, f"{field}.edges", list)):
        a, b = expect(e, f"{field}.edges[{k}].a", int), expect(e, f"{field}.edges[{k}].b", int)
        if b in adj.get(a, ()):
            raise MalformedInput(f"{field}.edges[{k}] repeats the edge ({a},{b})")
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    try:
        topo = TreeTopology(leaves, adj)
    except ValueError as e:
        raise MalformedInput(f"{field}: bad tree: {e}") from e
    want = {str(i): topo.node_of_leaf(i) for i in range(1, n + 1)}
    got = obj.get("leaf_map", want)
    if got != want or any(type(w) is not int for w in got.values()):
        raise MalformedInput(f"{field}.leaf_map must map each leaf to its node in {field}.edges")
    return topo


def line_to_json(L: EmbeddedLine) -> dict:
    """Canonical serialization: equal lines yield identical JSON.

    Internal nodes are relabelled by their leaf partitions (which identify
    a node uniquely within a tree), and the anchor carries the canonical
    projective representative, so the output does not depend on how the
    line was computed.
    """
    topo = L.topology

    def partition(v):  # the sorted leaf lists of the sides of v, sorted
        return sorted(_bits(topo._mask_beyond(v, w)) for w in topo.adj[v])

    order = sorted(topo.internal_nodes, key=partition)
    relabel = {v: topo.n + 1 + i for i, v in enumerate(order)}
    node = lambda v: v if topo.is_leaf(v) else relabel[v]

    pairs = sorted(tuple(sorted((node(v), node(w)))) for v in topo.adj for w in topo.adj[v] if v < w)
    edges = list(L._edge_table())
    ells = _scaled_form_to_json([ell for _, _, _, ell in edges], L._table_D)
    lengths = {tuple(sorted((node(a), node(b)))): ell for (a, b, _, _), ell in zip(edges, ells)}
    anchor = topo.node_of_leaf(1)
    row = L.rows[anchor]
    return {
        "n": topo.n,
        "edges": [{"a": a, "b": b, "length": lengths.get((a, b))} for a, b in pairs],
        "leaf_map": {str(i): node(topo.node_of_leaf(i)) for i in range(1, topo.n + 1)},
        "anchor": {
            "node": relabel[anchor],
            "coords": _scaled_form_to_json([x - row[-1] for x in row], L.D),
        },
    }


def line_from_json(obj, n: int) -> EmbeddedLine:
    """The embedded line with n leaves in the field "line".  Its anchor
    row and internal lengths are read as numerators and denominators in
    lowest terms (`rational_terms`) straight onto one integer scale, the
    least, and `trees._placed` lays the line out from them, as `embed`
    would."""
    topo = topology_from_json(obj, n, "line")
    lengths = {}
    for k, e in enumerate(obj["edges"]):  # checked by topology_from_json
        a, b = e["a"], e["b"]
        field = f"line.edges[{k}].length"
        if topo.is_leaf(a) or topo.is_leaf(b):
            if e.get("length") is not None:
                raise MalformedInput(f"{field} must be null on a leaf edge")
            continue
        if e.get("length") is None:
            raise MalformedInput(f"{field} is missing on the internal edge ({a},{b})")
        p, q = _rational(e["length"], field, rational_terms)
        if p <= 0:
            raise MalformedInput(f"{field} must be positive")
        lengths[(a, b) if a < b else (b, a)] = p, q
    anchor = expect(obj, "line.anchor", dict)
    node = expect(anchor, "line.anchor.node", int)
    if node not in topo.adj or topo.is_leaf(node):
        raise MalformedInput(f"line.anchor.node: anchor node {node} is not an internal node")
    coords = expect(anchor, "line.anchor.coords", list)
    if len(coords) != n:
        raise MalformedInput(f"line.anchor.coords must list {n} coordinates, one per leaf")
    terms = [_rational(c, "line.anchor.coords", rational_terms) for c in coords]
    terms += lengths.values()
    D = lcm(*(q for _, q in terms))
    ints = [p * (D // q) for p, q in terms]
    return _placed(topo, D, node, ints[:n], dict(zip(lengths, ints[n:])))


def plucker_to_json(p) -> dict:
    """Each pair coordinate, read from the vector's integer table over its
    scale D, under the key "i,j" in the order of the pairs."""
    pairs = list(combinations(range(1, p.n + 1), 2))
    values = _scaled_form_to_json([p.table[i][j] for i, j in pairs], p.D)
    return {f"{i},{j}": v for (i, j), v in zip(pairs, values)}


def geometry_to_json(g) -> dict:
    def pt(xy):
        return point_to_json(ProjPoint((xy[0], xy[1], 0)))

    if isinstance(g, plane.PointGeom):
        return {"kind": "point", "coords": pt((g.x, g.y))}
    if isinstance(g, plane.SegmentGeom):
        return {"kind": "segment", "start": pt(g.start), "end": pt(g.end)}
    if isinstance(g, plane.RayGeom):
        return {"kind": "ray", "origin": pt(g.origin), "direction": list(g.direction)}
    if isinstance(g, plane.LineGeom):
        return {"kind": "line", "origin": pt(g.origin), "direction": list(g.direction)}
    raise TypeError(f"unknown geometry {g!r}")


def _scaled_form_to_json(f, D: int) -> list:
    """Each c / D for the ints c of f, written as `rational_to_json` writes
    it: an int when D divides c, else "p/q" in lowest terms."""
    out = []
    for c in f:
        g = gcd(c, D)
        out.append(c // g if g == D else f"{c // g}/{D // g}")
    return out


def cell_to_json(cell: FixedLocusCell) -> dict:
    """A cell's forms, read from its integer forms and their scale D."""
    site, D = cell.site, cell.D
    if site[0] == "vertex":
        witness = {"kind": "vertex", "node": site[1]}
    else:
        witness = {"kind": "edge", "edge": list(site[1]), "t": _scaled_form_to_json(site[2], D)}
    return {
        "witness": witness,
        "indices": list(cell.indices),
        "eq": [_scaled_form_to_json(f, D) for f in cell.eq_forms],
        "ineq": [_scaled_form_to_json(f, D) for f in cell.ineq_forms],
        "geometry": geometry_to_json(cell.geometry),
    }
