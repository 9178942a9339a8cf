"""JSON (de)serialization for every wire format the CLI speaks.

Rationals travel as integers or strings "p/q" (lowest terms, positive
denominator); projective points as coordinate arrays (any representative
accepted, canonical emitted); trees as edge lists with null lengths on
leaf edges plus an anchored coordinate vector.
"""

from __future__ import annotations

from . import plane
from .core import ProjPoint, SupportSet, rational_from_json, rational_to_json
from .pencil import FixedLocusCell
from .subdivision import CurveGraph, RegularSubdivision
from .trees import EmbeddedLine, TreeTopology, embed


class MalformedInput(Exception):
    """Structurally bad input: wrong JSON shape or malformed rationals."""


def _expect(obj, key, kind=None):
    if not isinstance(obj, dict) or key not in obj:
        raise MalformedInput(f"missing field {key!r}")
    val = obj[key]
    # bool is a subclass of int, but true and false are not numbers here
    if kind is not None and (not isinstance(val, kind) or isinstance(val, bool)):
        raise MalformedInput(f"field {key!r} has wrong type")
    return val


def point_to_json(P: ProjPoint) -> list:
    return [rational_to_json(c) for c in P.coords]


def point_from_json(obj) -> ProjPoint:
    if not isinstance(obj, list) or len(obj) < 2:
        raise MalformedInput(f"bad projective point: {obj!r}")
    try:
        return ProjPoint([rational_from_json(c) for c in obj])
    except ValueError as e:
        raise MalformedInput(str(e)) from e


def _plane_point(obj, field: str) -> ProjPoint:
    """A point of TP^2 given in the named field: exactly 3 coordinates."""
    if not isinstance(obj, list) or len(obj) != 3:
        raise MalformedInput(f"{field} must be a list of 3 coordinates")
    return point_from_json(obj)


def support_from_json(obj) -> SupportSet:
    degree = _expect(obj, "degree", int)
    pts = _expect(obj, "points", list)
    if not all(isinstance(p, list) and len(p) == 3 for p in pts):
        raise MalformedInput("support points must be triples")
    if not all(isinstance(c, int) and not isinstance(c, bool) for p in pts for c in p):
        raise MalformedInput("support points must be integer triples")
    try:
        return SupportSet(degree, tuple(tuple(p) for p in pts))
    except ValueError as e:
        raise MalformedInput(f"support: {e}") from e


def config_to_json(config) -> dict:
    return {"points": [point_to_json(P) for P in config]}


def config_from_json(obj) -> list:
    points = _expect(obj, "points", list)
    return [_plane_point(p, f"configuration.points[{k}]") for k, p in enumerate(points)]


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
    edges = []
    for v in sorted(T.adj):
        for w in sorted(T.adj[v]):
            if v < w:
                edges.append({"a": v, "b": w})
    return {
        "n": T.n,
        "edges": edges,
        "leaf_map": {str(i): T.node_of_leaf(i) for i in range(1, T.n + 1)},
    }


def topology_from_json(obj) -> TreeTopology:
    n = _expect(obj, "n", int)
    adj = {}
    for e in _expect(obj, "edges", list):
        a, b = _expect(e, "a", int), _expect(e, "b", int)
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    try:
        return TreeTopology(n, adj)
    except ValueError as e:
        raise MalformedInput(f"bad tree: {e}") from e


def line_to_json(L: EmbeddedLine) -> dict:
    """Canonical serialization: equal lines yield identical JSON.

    Internal nodes are relabelled by their leaf partitions (which identify
    a node uniquely within a tree), and the anchor carries the canonical
    projective representative, so the output does not depend on how the
    line was computed.
    """
    topo = L.topology
    order = sorted(
        topo.internal_nodes,
        key=lambda v: sorted(tuple(sorted(s)) for s in topo.leaf_partition(v)),
    )
    relabel = {v: topo.n + 1 + i for i, v in enumerate(order)}
    node = lambda v: v if topo.is_leaf(v) else relabel[v]

    edges = []
    for v in sorted(topo.adj):
        for w in topo.adj[v]:
            a, b = sorted((node(v), node(w)))
            if (a, b) not in {(e["a"], e["b"]) for e in edges}:
                edges.append({"a": a, "b": b})
    edges.sort(key=lambda e: (e["a"], e["b"]))
    lengths = {
        tuple(sorted((node(a), node(b)))): ell for a, b, _, ell in L.edges
    }
    for e in edges:
        ell = lengths.get((e["a"], e["b"]))
        e["length"] = None if ell is None else rational_to_json(ell)
    anchor = topo.node_of_leaf(1)
    return {
        "n": topo.n,
        "edges": edges,
        "leaf_map": {str(i): node(topo.node_of_leaf(i)) for i in range(1, topo.n + 1)},
        "anchor": {
            "node": relabel[anchor],
            "coords": point_to_json(ProjPoint(L.coords[anchor])),
        },
    }


def line_from_json(obj) -> EmbeddedLine:
    topo = topology_from_json(obj)
    lengths = {}
    for e in _expect(obj, "edges", list):
        a, b = e["a"], e["b"]
        if topo.is_leaf(a) or topo.is_leaf(b):
            continue
        if e.get("length") is None:
            raise MalformedInput(f"internal edge ({a},{b}) needs a length")
        try:
            lengths[frozenset((a, b))] = rational_from_json(e["length"])
        except ValueError as err:
            raise MalformedInput(str(err)) from err
    anchor = _expect(obj, "anchor", dict)
    node = _expect(anchor, "node", int)
    try:
        coords = [rational_from_json(c) for c in _expect(anchor, "coords", list)]
        return embed(topo, lengths, node, tuple(coords))
    except ValueError as e:
        raise MalformedInput(str(e)) from e


def plucker_to_json(p) -> dict:
    out = {}
    for key in sorted(p.values, key=sorted):
        i, j = sorted(key)
        out[f"{i},{j}"] = rational_to_json(p.values[key])
    return out


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


def _form_to_json(f) -> list:
    return [rational_to_json(c) for c in f]


def cell_to_json(cell: FixedLocusCell) -> dict:
    kind = cell.witness[0]
    if kind == "vertex":
        witness = {"kind": "vertex", "node": cell.witness[1]}
    else:
        witness = {
            "kind": "edge",
            "edge": list(cell.witness[1]),
            "t": _form_to_json(cell.witness[2]),
        }
    return {
        "witness": witness,
        "indices": list(cell.indices),
        "eq": [_form_to_json(f) for f in cell.equalities],
        "ineq": [_form_to_json(f) for f in cell.inequalities],
        "geometry": geometry_to_json(cell.geometry),
    }
