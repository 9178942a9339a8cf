import gc
import importlib.util
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from conftest import (
    coprime_line,
    coprime_rational,
    make_lsq,
    mixed_line,
    rand_config,
    rand_line,
    rand_support,
    run_in_process,
)
from troppencil import cli, compat, jsonio, pencil, stable
from troppencil.core import ProjPoint, rational_from_json, rational_to_json
from troppencil.oracle import brute_fixed_locus, brute_plucker_to_tree, brute_tropdet
from troppencil.trees import PlueckerVector, TreeTopology, embed

SQ_JSON = {"degree": 2, "points": [[0, 0, 2], [1, 0, 1], [0, 1, 1], [1, 1, 0]]}
TRI_JSON = {"degree": 1, "points": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
# 11 points of the quartic's triangle: more leaves than enumerate-types lists
QUARTIC11_RS = [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (0, 1), (1, 1), (2, 1), (0, 2), (1, 2), (0, 3)]
QUARTIC11_JSON = {"degree": 4, "points": [[r, s, 4 - r - s] for r, s in QUARTIC11_RS]}

# the CLI subprocess imports the same troppencil as the tests
SRC = str(Path(jsonio.__file__).resolve().parents[1])
ENV = dict(
    os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
)


def run_cli(command, payload, *flags):
    proc = subprocess.run(
        [sys.executable, "-m", "troppencil.cli", command, *flags],
        input=json.dumps(payload),
        capture_output=True,
        text=True,
        env=ENV,
    )
    # no input, however bad, may end in a Python traceback
    assert "Traceback" not in proc.stderr, proc.stderr
    try:
        out = json.loads(proc.stdout)
    except json.JSONDecodeError:
        out = proc.stdout
    return proc.returncode, out


def test_curve_command(tmp_path):
    svg = tmp_path / "curve.svg"
    code, out = run_cli(
        "curve", {"support": SQ_JSON, "c": [1, 0, 0, 0]}, "--svg", str(svg)
    )
    assert code == 0
    assert len(out["vertices"]) == 2 and len(out["rays"]) == 4
    assert svg.read_text().startswith("<svg")


def test_curve_draws_only_when_asked(tmp_path):
    # a coordinate beyond float range is exact here, but cannot be drawn
    payload = {"support": SQ_JSON, "c": [0, 0, 0, "1" + "0" * 400]}
    code, out = run_cli("curve", payload)
    assert code == 0 and len(out["vertices"]) == 2
    svg = tmp_path / "curve.svg"
    code, out = run_cli("curve", payload, "--svg", str(svg))
    assert code == 1 and "too large to draw" in out["error"]
    assert not svg.exists()


def test_curve_malformed_rational():
    code, out = run_cli("curve", {"support": SQ_JSON, "c": [0.5, 0, 0, 0]})
    assert code == 2 and "error" in out


def test_subdivision_command():
    code, out = run_cli("subdivision", {"support": SQ_JSON, "c": [3, 1, 2, 1]})
    assert code == 0
    assert out == {"cells": [[1, 2, 3], [2, 3, 4]]}


def test_check_general_command():
    code, out = run_cli(
        "check-general",
        {"support": SQ_JSON, "configuration": {"points": [[0, 0, 0], [2, 1, 0]]}},
    )
    assert code == 0 and out == {"general": True, "singular_pair": None}
    code, out = run_cli(
        "check-general",
        {"support": SQ_JSON, "configuration": {"points": [[0, 0, 0], [1, 1, 0]]}},
    )
    assert code == 0 and out == {"general": False, "singular_pair": [1, 4]}
    code, out = run_cli(
        "check-general",
        {"support": SQ_JSON, "configuration": {"points": [[0, 0, 0]]}},
    )
    assert code == 2 and "configuration.points" in out["error"]


def test_stable_pencil_fixed_locus_pipeline(tmp_path):
    code, out = run_cli(
        "stable-pencil",
        {"support": SQ_JSON, "configuration": {"points": [[0, 0, 0], [1, 1, 0]]}},
        "--oracle",
    )
    assert code == 0
    assert out["general"] is False
    assert out["plucker"]["1,2"] == 1 and out["plucker"]["3,4"] == 0
    code2, locus = run_cli("fixed-locus", {"support": SQ_JSON, "line": out["line"]})
    assert code2 == 0
    assert locus["pieces"] == [
        {"kind": "point", "coords": [0, 0, 0]},
        {"kind": "point", "coords": [1, 1, 0]},
    ]


def test_fixed_locus_segment():
    code, out = run_cli(
        "stable-pencil",
        {"support": SQ_JSON, "configuration": {"points": [[0, 0, 0], [0, 1, 0]]}},
    )
    assert code == 0
    code2, locus = run_cli("fixed-locus", {"support": SQ_JSON, "line": out["line"]})
    assert locus["pieces"] == [
        {"kind": "segment", "start": [0, 0, 0], "end": [0, 1, 0]}
    ]


def test_fixed_locus_rational_segment_spans():
    # a segment spanning (0, 5/6) once raised "zero vector has no primitive
    # form"; one spanning (3/2, 3) was cut short at a wrong end point
    def line(edges, node, coords):
        edges = [{"a": a, "b": b, "length": ell} for a, b, ell in edges]
        return {"n": 5, "edges": edges, "anchor": {"node": node, "coords": coords}}

    support = {"degree": 3, "points": [[1, 1, 1], [0, 0, 3], [2, 1, 0], [2, 0, 1], [0, 2, 1]]}
    L = line(
        [(1, 6, None), (2, 7, None), (3, 8, None), (4, 7, None), (5, 8, None),
         (6, 7, "4/3"), (6, 8, 2)],
        8,
        [-4, 2, -5, -4, "-5/2"],
    )
    code, locus = run_cli("fixed-locus", {"support": support, "line": L})
    assert code == 0
    assert {"kind": "segment", "start": [3, "7/2", 0], "end": [3, "13/3", 0]} in locus["pieces"]

    support = {"degree": 3, "points": [[0, 1, 2], [2, 0, 1], [0, 2, 1], [2, 1, 0], [1, 0, 2]]}
    L = line(
        [(1, 6, None), (2, 6, None), (3, 8, None), (4, 7, None), (5, 8, None),
         (6, 7, 3), (7, 8, 8)],
        6,
        [-9, -4, 0, 5, 5],
    )
    code, locus = run_cli("fixed-locus", {"support": support, "line": L})
    assert code == 0
    assert locus["pieces"] == [
        {"kind": "point", "coords": [9, 23, 0]},
        {"kind": "segment", "start": ["-17/2", -12, 0], "end": [-7, -9, 0]},
    ]


def test_is_fixed_command():
    line = jsonio.line_to_json(make_lsq())
    code, out = run_cli(
        "is-fixed", {"support": SQ_JSON, "line": line, "point": [0, 0, 0]}, "--oracle"
    )
    assert code == 0 and out == {"fixed": True}
    code, out = run_cli(
        "is-fixed", {"support": SQ_JSON, "line": line, "point": [5, 5, 0]}, "--oracle"
    )
    assert code == 0 and out == {"fixed": False}


def test_construct_config_command():
    line = jsonio.line_to_json(make_lsq())
    code, out = run_cli("construct-config", {"support": SQ_JSON, "line": line})
    assert code == 0
    pts = {tuple(p) for p in out["points"]}
    assert pts == {(0, 0, 0), (2, 1, 0)}
    # equal heights at a vertex lift the square flat: a hypothesis error
    T = TreeTopology.from_splits(4, [frozenset({1, 2})])
    flat = embed(T, {frozenset({1, 2}): 1}, T.node_of_leaf(1), (0, 0, 0, 0))
    code, out = run_cli("construct-config", {"support": SQ_JSON, "line": jsonio.line_to_json(flat)})
    assert code == 1 and re.fullmatch(
        r"hypotheses violated: subdivision at vertex \d+ is not strict-maximal", out["error"]
    )


def test_enumerate_types_command():
    code, out = run_cli("enumerate-types", {"support": SQ_JSON})
    assert code == 0
    assert out["total"] == 3 and out["compatible"] == 2
    assert len(out["types"]) == 3


def test_realize_type_command():
    code, types = run_cli("enumerate-types", {"support": SQ_JSON})
    good = next(i for i, t in enumerate(types["types"]) if t["compatible"])
    code, out = run_cli("realize-type", {"support": SQ_JSON, "type_id": good})
    assert code == 0
    L = jsonio.line_from_json(out, 4)
    # the realized line reproduces the requested topology
    wanted = jsonio.topology_from_json(types["types"][good], 4)
    assert L.topology == wanted
    # and feeding it back through construct-config round-trips (determinism)
    code2, out2 = run_cli("construct-config", {"support": SQ_JSON, "line": out})
    assert code2 == 0
    bad = next(i for i, t in enumerate(types["types"]) if not t["compatible"])
    code3, err = run_cli("realize-type", {"support": SQ_JSON, "type_id": bad})
    assert code3 == 1 and "not compatible" in err["error"]


def test_realize_type_id_out_of_range():
    for bad in (3, 1000, -1):
        code, out = run_cli("realize-type", {"support": SQ_JSON, "type_id": bad})
        assert code == 1 and out == {"error": "type_id out of range"}


def test_realize_type_beyond_enumeration():
    A = jsonio.support_from_json(QUARTIC11_JSON)
    type_id, T = next(compat.compatible_types(A))
    assert type_id == 161049 and compat.type_by_id(11, type_id) == T
    code, out = run_cli("realize-type", {"support": QUARTIC11_JSON, "type_id": type_id})
    assert code == 0
    assert jsonio.line_from_json(out, A.n).topology == T


def test_enumerate_types_states_its_limit():
    code, out = run_cli("enumerate-types", {"support": QUARTIC11_JSON})
    assert code == 1 and out == {"error": "type enumeration capped at n = 10"}


def test_stable_pencil_oracle_states_its_limit():
    # the pencil itself is cheap at n = 11; only the enumerating twin is refused
    points = [[x, 2 * x - 5, 0] for x in range(9)]
    payload = {"support": QUARTIC11_JSON, "configuration": {"points": points}}
    code, out = run_cli("stable-pencil", payload)
    assert code == 0 and out["line"]["n"] == 11
    code, out = run_cli("stable-pencil", payload, "--oracle")
    assert code == 1 and out == {"error": "oracle stable pencil capped at n = 10, got n = 11"}


def test_integer_fields_reject_booleans():
    # bool is an int in Python, so true would pass as 1
    code, out = run_cli("realize-type", {"support": SQ_JSON, "type_id": True})
    assert code == 2 and "type_id" in out["error"]
    support = dict(SQ_JSON, degree=True)
    code, out = run_cli("realize-type", {"support": support, "type_id": 0})
    assert code == 2 and "degree" in out["error"]


@pytest.mark.parametrize("point", [[2, 1], [2, 1, 0, 0]])
def test_configuration_point_needs_three_coordinates(point):
    config = {"points": [[0, 0, 0], point]}
    code, out = run_cli("stable-pencil", {"support": SQ_JSON, "configuration": config})
    assert code == 2 and "configuration.points[1]" in out["error"]
    line = jsonio.line_to_json(make_lsq())
    code, out = run_cli("is-fixed", {"support": SQ_JSON, "line": line, "point": point})
    assert code == 2 and out["error"].startswith("point ")


@pytest.mark.parametrize("length", [0, "-1/2"])
def test_line_edge_length_must_be_positive(length):
    line = jsonio.line_to_json(make_lsq())
    k = next(k for k, e in enumerate(line["edges"]) if e["length"] is not None)
    line["edges"][k]["length"] = length
    code, out = run_cli("fixed-locus", {"support": SQ_JSON, "line": line})
    assert code == 2 and out == {"error": f"line.edges[{k}].length must be positive"}


@pytest.mark.parametrize("length", ["abc", -1, 1])
def test_line_leaf_edge_length_must_be_null(length):
    line = jsonio.line_to_json(make_lsq())
    k = next(k for k, e in enumerate(line["edges"]) if (e["a"], e["b"]) == (1, 5))
    line["edges"][k]["length"] = length
    code, out = run_cli("fixed-locus", {"support": SQ_JSON, "line": line})
    assert code == 2 and out["error"].startswith(f"line.edges[{k}].length")


def test_line_internal_edge_needs_a_length():
    line = jsonio.line_to_json(make_lsq())
    k = next(k for k, e in enumerate(line["edges"]) if e["length"] is not None)
    line["edges"][k]["length"] = None
    code, out = run_cli("fixed-locus", {"support": SQ_JSON, "line": line})
    assert code == 2 and out["error"].startswith(f"line.edges[{k}].length")


@pytest.mark.parametrize("ids", [(0, -3), (5, 0)])
def test_line_internal_node_ids_are_above_n(ids):
    # internal ids 0 or below once crashed the commands that read a line
    line = jsonio.line_to_json(make_lsq())
    relabel = dict(zip((5, 6), ids))
    for e in line["edges"]:
        e["a"], e["b"] = relabel.get(e["a"], e["a"]), relabel.get(e["b"], e["b"])
    line["leaf_map"] = {k: relabel.get(v, v) for k, v in line["leaf_map"].items()}
    line["anchor"]["node"] = relabel[line["anchor"]["node"]]
    for command in ("fixed-locus", "construct-config", "compat-check"):
        code, out = run_cli(command, {"support": SQ_JSON, "line": line})
        assert code == 2 and out["error"].startswith("line: bad tree: internal node id")


def test_topology_in_two_pieces_is_not_connected():
    # a triangle 7-8-9 holding leaves 1, 2, 3 and a star 10 on 4, 5, 6
    conic = {"degree": 2, "points": [[r, s, 2 - r - s] for r in range(3) for s in range(3 - r)]}
    pairs = [(1, 7), (2, 8), (3, 9), (7, 8), (8, 9), (7, 9), (4, 10), (5, 10), (6, 10)]
    topology = {"n": 6, "edges": [{"a": a, "b": b} for a, b in pairs]}
    code, out = run_cli("compat-check", {"support": conic, "topology": topology})
    assert code == 2 and out["error"] == "topology: bad tree: not connected"


@pytest.mark.parametrize("node", [9, 0, 2])
def test_line_anchor_must_be_internal_node(node):
    # the star on 4 leaves has one internal node, 5
    star = jsonio.topology_to_json(TreeTopology.star(4))
    line = dict(star, anchor={"node": node, "coords": [0, 0, 0, 0]})
    code, out = run_cli("fixed-locus", {"support": SQ_JSON, "line": line})
    assert code == 2 and f"anchor node {node}" in out["error"]
    assert out["error"].startswith("line.anchor.node")


@pytest.mark.parametrize("coords", [[0, 0, 0], [0, 0, 0, 0, 0]])
def test_line_anchor_needs_one_coordinate_per_leaf(coords):
    star = jsonio.topology_to_json(TreeTopology.star(4))
    line = dict(star, anchor={"node": 5, "coords": coords})
    code, out = run_cli("fixed-locus", {"support": SQ_JSON, "line": line})
    assert code == 2 and out["error"].startswith("line.anchor.coords")


def test_compat_check_command():
    line = jsonio.line_to_json(make_lsq())
    code, out = run_cli("compat-check", {"support": SQ_JSON, "line": line})
    assert code == 0 and out == {"compatible": True, "witness": None}
    topo = jsonio.topology_to_json(TreeTopology.from_splits(4, [frozenset({1, 4})]))
    code, out = run_cli("compat-check", {"support": SQ_JSON, "topology": topo})
    assert code == 0 and out["compatible"] is False and set(out["witness"]) == {1, 2, 3, 4}


def test_json_round_trip_determinism():
    line = jsonio.line_to_json(make_lsq())
    assert jsonio.line_to_json(jsonio.line_from_json(line, 4)) == line
    code1, out1 = run_cli(
        "stable-pencil",
        {"support": SQ_JSON, "configuration": {"points": [[0, 0, 0], [2, 1, 0]]}},
    )
    code2, out2 = run_cli(
        "stable-pencil",
        {"support": SQ_JSON, "configuration": {"points": [[0, 0, 0], [2, 1, 0]]}},
    )
    assert out1 == out2
    assert jsonio.line_from_json(out1["line"], 4) == make_lsq()


def test_stable_pencil_payload_matches_brute_twins():
    """stable-pencil through cli.main against the enumerating twins:
    `plucker` is the brute minors normalized to p_{n-1,n} = 0, and `line`
    is the brute reconstruction of that vector.  Rational points mix
    coprime denominators; integer-grid points tie minors."""
    rng = random.Random(72)
    for n in range(5, 10):
        for grid in (False, True):
            A = rand_support(rng, n)
            if grid:
                cells = [(x, y) for x in range(-3, 4) for y in range(-3, 4)]
                pts = [[x, y, 0] for x, y in rng.sample(cells, n - 2)]
            else:
                pts = [[str(coprime_rational(rng)), str(coprime_rational(rng)), 0] for _ in range(n - 2)]
            payload = {"support": {"degree": A.degree, "points": A.points}, "configuration": {"points": pts}}
            code, out, _ = run_in_process(["stable-pencil"], json.dumps(payload))
            assert code == 0
            out = json.loads(out)
            M = stable.value_matrix(A, [ProjPoint([Fraction(c) for c in P]) for P in pts])
            best = {
                (i, j): brute_tropdet([[row[c - 1] for c in stable.minor_columns(n, i, j)] for row in M])[0]
                for i, j in combinations(A.indices(), 2)
            }
            ref = best[(n - 1, n)]
            assert out["plucker"] == {f"{i},{j}": rational_to_json(v - ref) for (i, j), v in best.items()}
            assert out["line"] == jsonio.line_to_json(brute_plucker_to_tree(PlueckerVector(n, best)))


def test_forward_commands_match_golden_output():
    """stable-pencil and check-general byte for byte against a committed
    record of their stdout and exit code: 27 seeded requests, three per
    n = 4..12 (degree-3 supports up to n = 10, degree-4 beyond), with
    integer-grid points in [-3, 3]^2, generic rationals over 1..3 and
    coordinates over the pairwise coprime denominators of COPRIME."""
    cases = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())
    assert len(cases) == 54
    for k, case in enumerate(cases):
        code, out, _ = run_in_process([case["command"]], case["input"])
        assert (code, out) == (case["exit"], case["stdout"]), f"case {k}: {case['command']}"


def _fixed_locus_cases() -> list:
    return json.loads((Path(__file__).parent / "data" / "fixed_locus_golden.json").read_text())


def test_fixed_locus_commands_match_golden_output():
    """fixed-locus and is-fixed byte for byte against a committed record of
    their stdout and exit code: 41 seeded requests on two random lines per
    n = 4..10, one trivalent and one with contracted edges, anchors over
    denominators 1..3 and lengths over 1..3, each line asked at a point of
    its locus (the contracted one also at a random point), plus a segment
    from a stable pencil of the square and a ray from three collinear
    support points."""
    cases = _fixed_locus_cases()
    assert len(cases) == 41
    for k, case in enumerate(cases):
        code, out, _ = run_in_process([case["command"]], case["input"])
        assert (code, out) == (case["exit"], case["stdout"]), f"case {k}: {case['command']}"


def test_reverse_commands_match_golden_output():
    """realize-type --seed s and construct-config byte for byte against a
    committed record of their stdout and exit code: every compatible type
    of SQ, TRI5 and HEX6, up to two types on each of three seeded cubic
    supports per n = 4..9, each realized line fed back to
    construct-config, an incompatible type and an id out of range;
    construct-config on 12 stable pencils of general configurations whose
    vertices induce different triangulations, on 3 whose vertices are not
    all strict-maximal, and on one line each that is not trivalent,
    incompatible, or flat over the square."""
    cases = json.loads((Path(__file__).parent / "data" / "reverse_golden.json").read_text())
    assert len(cases) == 134
    for k, case in enumerate(cases):
        code, out, _ = run_in_process(case["args"], case["input"])
        assert (code, out) == (case["exit"], case["stdout"]), f"case {k}: {case['args']}"


def test_other_commands_match_golden_output():
    """curve, subdivision (no flag, --mode strict, --mode lenient),
    enumerate-types and compat-check byte for byte against a committed
    record of their stdout and exit code: the square and triangle
    fixtures and two seeded supports per n = 3..8, each with random
    rational heights and with squared-distance heights; enumerate-types
    on the square and on seeded supports at n = 3..6; compat-check with a
    line and with a topology, compatible and not, at n = 4..8; and twelve
    exit-1 and exit-2 error payloads."""
    cases = json.loads((Path(__file__).parent / "data" / "curve_types_golden.json").read_text())
    assert len(cases) == 152
    for k, case in enumerate(cases):
        code, out, _ = run_in_process(case["args"], case["input"])
        assert (code, out) == (case["exit"], case["stdout"]), f"case {k}: {case['args']}"


def test_forward_compatibility_reproducer_stands():
    # ROADMAP item 1 is open: the paper's forward theorem says the stable
    # pencil of a general configuration is compatible, and on this support,
    # whose a3 lies inside the hull of the others, it is not.  These lines
    # pin today's answers; mending the item changes them.
    support = {"degree": 3, "points": [[0, 0, 3], [0, 1, 2], [1, 1, 1], [2, 0, 1], [1, 2, 0]]}
    config = {"points": [[11, "-11/2", 0], ["-55/6", "-35/6", 0], [9, "7/2", 0]]}
    code, out = run_cli("check-general", {"support": support, "configuration": config})
    assert code == 0 and out["general"] is True
    code, out = run_cli("stable-pencil", {"support": support, "configuration": config})
    assert code == 0
    request = {"support": support, "line": out["line"]}
    code, out = run_cli("compat-check", request)
    assert code == 0 and out == {"compatible": False, "witness": [1, 3, 2, 4]}
    code, out = run_cli("construct-config", request)
    assert code == 1 and out == {"error": "hypotheses violated: incompatible, quartet (1, 3, 2, 4)"}


def _orient(a, b, c) -> int:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _interior_points(A) -> set:
    """The support indices whose point lies strictly inside a triangle of
    three other support points."""
    pts = dict(zip(A.indices(), (p[:2] for p in A.points)))
    inside = set()
    for k, p in pts.items():
        others = [q for l, q in pts.items() if l != k]
        for tri in combinations(others, 3):
            turns = [_orient(a, b, p) for a, b in zip(tri, tri[1:] + tri[:1])]
            if min(turns) > 0 or max(turns) < 0:
                inside.add(k)
    return inside


def _strictly_convex(A) -> bool:
    """Every support point is a vertex of the convex hull, none on an edge."""
    pts = sorted(p[:2] for p in A.points)

    def chain(ps):
        hull = []
        for p in ps:
            while len(hull) >= 2 and _orient(hull[-2], hull[-1], p) <= 0:
                hull.pop()
            hull.append(p)
        return hull[:-1]

    return len(chain(pts) + chain(pts[::-1])) == len(pts)


def test_forward_compatibility_off_the_fixtures():
    # ROADMAP item 1 is open: beside the reproducer above, these lines pin
    # today's forward behaviour on random supports.  A seeded support with
    # a point strictly inside a triangle of others has a general
    # configuration whose stable pencil `is_compatible` rejects, with that
    # point in the witness; on a support in strictly convex position every
    # general configuration's stable pencil passes.  Mending the item may
    # change the first half.
    rng = random.Random(73)
    A = next(A for A in iter(lambda: rand_support(rng, 5, 3), None) if _interior_points(A))
    for _ in range(200):
        C = rand_config(rng, 5)
        if stable.is_general(A, C) and not (verdict := compat.is_compatible(stable.stable_pencil(A, C), A)):
            break
    else:
        pytest.fail("no general configuration with an incompatible stable pencil")
    assert set(verdict.witness) & _interior_points(A)
    A = next(A for A in iter(lambda: rand_support(rng, 5, 3), None) if _strictly_convex(A))
    general = 0
    for _ in range(100):
        C = rand_config(rng, 5)
        if stable.is_general(A, C):
            general += 1
            assert compat.is_compatible(stable.stable_pencil(A, C), A)
    assert general >= 50


def test_cli_import_loads_no_oracle_or_svg():
    # the reference twins and the drawing code load only when a flag asks
    probe = "import sys, troppencil.cli; print(sorted(m for m in sys.modules if m.startswith('troppencil')))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=ENV)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout
    assert "troppencil.cli" in loaded
    assert "troppencil.oracle" not in loaded and "troppencil.svg" not in loaded


def _payloads(monkeypatch, requests):
    """The success payloads `cli.main` hands its writer for (argv, text)
    requests, and the error payloads it prints."""
    seen, write = [], cli._write

    def record(args, payload):
        seen.append(payload)
        write(args, payload)

    monkeypatch.setattr(cli, "_write", record)
    for argv, text in requests:
        code, out, _ = run_in_process(argv, text)
        if code:
            seen.append(json.loads(out))
    return seen


def _golden_requests():
    data = Path(__file__).parent / "data"
    for name in ("cli_golden", "fixed_locus_golden", "reverse_golden", "curve_types_golden"):
        for case in json.loads((data / f"{name}.json").read_text()):
            yield case.get("args", [case.get("command")]), case["input"]


def _random_requests(rng):
    """Seeded requests for each of the ten subcommands at n = 3..7."""
    rat = rational_to_json
    for n in range(3, 8):
        A = rand_support(rng, n)
        support = {"degree": A.degree, "points": A.points}
        c = [rat(coprime_rational(rng)) for _ in range(n)]
        yield ["curve"], json.dumps({"support": support, "c": c})
        yield ["subdivision", "--mode", rng.choice(("strict", "lenient"))], json.dumps({"support": support, "c": c})
        config = {"points": [[rat(coprime_rational(rng)), rat(coprime_rational(rng)), 0] for _ in range(n - 2)]}
        yield ["check-general"], json.dumps({"support": support, "configuration": config})
        yield ["stable-pencil"], json.dumps({"support": support, "configuration": config})
        if n >= 4:
            L = rand_line(rng, n, contract_p=0.3)
            line = jsonio.line_to_json(L)
            yield ["fixed-locus"], json.dumps({"support": support, "line": line})
            point = [rat(coprime_rational(rng)), rat(coprime_rational(rng)), 0]
            yield ["is-fixed"], json.dumps({"support": support, "line": line, "point": point})
            yield ["construct-config"], json.dumps({"support": support, "line": line})
            yield ["compat-check"], json.dumps({"support": support, "line": line})
            topology = jsonio.topology_to_json(L.topology)
            yield ["compat-check"], json.dumps({"support": support, "topology": topology})
        yield ["enumerate-types"], json.dumps({"support": support})
        ids = [k for k, _ in compat.compatible_types(A)]
        for type_id in (rng.choice(ids), rng.randrange(compat.type_count(n))):
            yield ["realize-type"], json.dumps({"support": support, "type_id": type_id})


def test_writer_matches_json_dumps_on_cli_payloads(monkeypatch):
    # json.dumps(indent=2) is the twin: every payload of the golden inputs
    # and of seeded requests to all ten subcommands, errors included
    rng = random.Random(29)
    requests = list(_golden_requests()) + list(_random_requests(rng))
    assert {argv[0] for argv, _ in requests} == set(READS)
    payloads = _payloads(monkeypatch, requests)
    assert len(payloads) == len(requests)
    for p in payloads:
        assert cli._json_text(p) == json.dumps(p, indent=2)


WRITER_EDGES = [
    {},
    [],
    (),
    {"a": {}, "b": [], "c": [{}, [[]], ()], "d": {"e": {"f": []}}},
    [[], [[], [{}]]],
    ["", 'say "hi"', "back\\slash", "tab\tnew\nline\x00\x1f\x7f", "é", "∞", "\U0001d11e", "\ud800"],
    {'key "quoted"': 1, "k\\": 2, "\n": 3, "é": "∞"},
    [True, 1, False, 0, None, -1, 10**40, -(10**40)],
    {"t": (1, (2, (3,)), ()), "n": None},
    0,
    "plain",
    None,
    True,
]


@pytest.mark.parametrize("value", WRITER_EDGES, ids=range(len(WRITER_EDGES)))
def test_writer_matches_json_dumps_on_edge_shapes(value):
    assert cli._json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [1.5, {1, 2}, Fraction(1, 2), {"a": [0.0]}, {1: 2}])
def test_writer_refuses_other_values(value):
    with pytest.raises(TypeError):
        cli._json_text(value)


def test_writer_raises_as_json_dumps_past_the_digit_limit(monkeypatch):
    big = {"x": [10**5000]}
    with pytest.raises(ValueError) as twin:
        json.dumps(big, indent=2)
    with pytest.raises(ValueError) as ours:
        cli._json_text(big)
    assert str(ours.value) == str(twin.value)
    # the CLI reports it as a bug, with nothing of the payload before it
    monkeypatch.setattr(cli, "_COMMANDS", dict(cli._COMMANDS, curve=(lambda args, obj, A: big, ("--svg",))))
    code, out, _ = run_in_process(["curve"], json.dumps({"support": SQ_JSON, "c": [0] * 4}))
    assert code == 3 and out == json.dumps({"error": f"ValueError: {twin.value}"}) + "\n"


def test_enumerate_types_holds_one_topology_at_a_time(monkeypatch):
    # the walk hands out each type and drops it before the next
    walk, alive = compat.iter_types, []

    def live():
        gc.collect()
        return sum(type(o) is TreeTopology for o in gc.get_objects())

    def counted(n):
        for T in walk(n):
            yield T
            del T  # the caller asks for the next type: count what it holds
            alive.append(live())

    before = live()
    monkeypatch.setattr(compat, "iter_types", counted)
    support = {"degree": 2, "points": [[0, 0, 2], [1, 0, 1], [2, 0, 0], [0, 1, 1], [0, 2, 0]]}
    code, out, _ = run_in_process(["enumerate-types"], json.dumps({"support": support}))
    assert code == 0 and len(json.loads(out)["types"]) == len(alive) == 15
    assert max(alive) <= before + 1


def _lines_in(obj):
    """Every object with "edges" and "anchor" inside a JSON value."""
    if isinstance(obj, dict):
        if "edges" in obj and "anchor" in obj:
            yield obj
        for v in obj.values():
            yield from _lines_in(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _lines_in(v)


def _embedded(obj):
    """`embed` of the topology, lengths and anchor written in a line's JSON."""
    n = obj["n"]
    topo = jsonio.topology_from_json(obj, n, "line")
    lengths = {
        frozenset((e["a"], e["b"])): rational_from_json(e["length"])
        for e in obj["edges"]
        if e["length"] is not None
    }
    anchor = obj["anchor"]
    return embed(topo, lengths, anchor["node"], [rational_from_json(c) for c in anchor["coords"]])


def test_line_decoder_places_lines_as_embed_does():
    # random, contracted and coprime-denominator lines at n = 3..12, and
    # every line in the inputs and outputs of the golden records
    rng, objs = random.Random(28), []
    for n in range(3, 13):
        for make in (rand_line, coprime_line, mixed_line):
            for contract_p in (0, 0.4):
                objs.append(jsonio.line_to_json(make(rng, n, contract_p=contract_p)))
    for name in ("cli_golden", "fixed_locus_golden", "reverse_golden"):
        for case in json.loads((Path(__file__).parent / "data" / f"{name}.json").read_text()):
            if case["exit"] == 0:
                objs += _lines_in(json.loads(case["input"]))
                objs += _lines_in(json.loads(case["stdout"]))
    assert len(objs) > 200
    for obj in objs:
        L, M = jsonio.line_from_json(obj, obj["n"]), _embedded(obj)
        assert L.topology.adj == M.topology.adj and L.D == M.D
        assert list(L.rows.items()) == list(M.rows.items())
        assert list(L._branches.items()) == list(M._branches.items())


def test_fixed_locus_cells_written_from_integers(monkeypatch):
    # cell_to_json reads a cell's integer forms: the Fraction views are
    # never built on the CLI path, and the cells are the brute ones
    def refuse(self, f):
        raise AssertionError("a kept cell built Fractions")

    cases = [c for c in _fixed_locus_cases() if c["command"] == "fixed-locus"]
    for case in cases:
        obj = json.loads(case["input"])
        A = jsonio.support_from_json(obj["support"])
        L = jsonio.line_from_json(obj["line"], A.n)
        assert pencil.fixed_locus(L, A) == brute_fixed_locus(L, A)
    monkeypatch.setattr(pencil.FixedLocusCell, "_unscaled", refuse)
    for case in cases:
        code, out, _ = run_in_process(["fixed-locus"], case["input"])
        assert (code, out) == (case["exit"], case["stdout"])


def test_bad_json_is_exit_2():
    proc = subprocess.run(
        [sys.executable, "-m", "troppencil.cli", "subdivision"],
        input="{not json",
        capture_output=True,
        text=True,
        env=ENV,
    )
    assert proc.returncode == 2


def test_internal_error_is_exit_3(monkeypatch, tmp_path, capsys):
    # potentials raised by 1 on every row break dual feasibility, which the
    # uniqueness certificate checks before it trusts them
    solve = stable._assignment

    def broken(M):
        u, v, match = solve(M)
        return [x + 1 for x in u], v, match

    monkeypatch.setattr(stable, "_assignment", broken)
    request = tmp_path / "in.json"
    request.write_text(
        json.dumps({"support": SQ_JSON, "configuration": {"points": [[0, 0, 0], [2, 1, 0]]}})
    )
    code = cli.main(["check-general", "--input", str(request)])
    out, err = capsys.readouterr()
    assert code == 3
    assert json.loads(out) == {"error": "potentials are not optimal"}
    assert "Traceback" not in err


def test_any_other_exception_is_exit_3(monkeypatch):
    # a stray ValueError is a bug, not a domain error
    def broken(A, c):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "regular_subdivision", broken)
    code, out, err = run_in_process(["subdivision"], json.dumps({"support": SQ_JSON, "c": [0] * 4}))
    assert code == 3 and json.loads(out) == {"error": "ValueError: boom"}
    assert "Traceback" not in err


# the flags each subcommand reads besides --input and --output
READS = {
    "curve": {"--svg"},
    "subdivision": {"--mode"},
    "check-general": set(),
    "stable-pencil": {"--oracle", "--seed"},
    "fixed-locus": {"--svg"},
    "is-fixed": {"--oracle"},
    "construct-config": set(),
    "enumerate-types": set(),
    "realize-type": {"--seed"},
    "compat-check": set(),
}
FLAG_ARGV = {"--svg": ["--svg", "x.svg"], "--oracle": ["--oracle"], "--seed": ["--seed", "5"],
             "--mode": ["--mode", "strict"]}


def test_each_subcommand_takes_only_its_own_flags(capsys):
    for command, reads in READS.items():
        for flag, argv in FLAG_ARGV.items():
            if flag in reads:
                cli.build_parser().parse_args([command, "--input", "-", "--output", "-", *argv])
                continue
            with pytest.raises(SystemExit) as exit_:
                cli.main([command, *argv])
            assert exit_.value.code == 2
            assert f"unrecognized arguments: {argv[0]}" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--output", "--svg"])
def test_unwritable_file_is_exit_2(flag, tmp_path):
    path = tmp_path / "no such directory" / "out"
    code, out = run_cli("curve", {"support": SQ_JSON, "c": [1, 0, 0, 0]}, flag, str(path))
    assert code == 2 and out["error"].startswith(f"{flag}: cannot write")


def test_empty_file_flags_mean_the_defaults():
    # "" reads stdin, writes stdout and draws nothing, as "-" and no --svg do
    payload = {"support": SQ_JSON, "c": [1, 0, 0, 0]}
    empty = run_cli("curve", payload, "--input", "", "--output", "", "--svg", "")
    assert empty == run_cli("curve", payload) and empty[0] == 0


LINE5 = jsonio.line_to_json(rand_line(random.Random(5), 5))
TOPOLOGY5 = jsonio.topology_to_json(TreeTopology.star(5))


@pytest.mark.parametrize(
    "command, payload, field",
    [
        ("curve", {"support": SQ_JSON, "c": [0, 0, 0]}, "c"),
        ("subdivision", {"support": SQ_JSON, "c": [0, 0, 0, 0, 0]}, "c"),
        ("stable-pencil", {"support": SQ_JSON, "configuration": {"points": [[0, 0, 0]] * 3}},
         "configuration.points"),
        ("fixed-locus", {"support": SQ_JSON, "line": LINE5}, "line"),
        ("is-fixed", {"support": SQ_JSON, "line": LINE5, "point": [0, 0, 0]}, "line"),
        ("construct-config", {"support": SQ_JSON, "line": LINE5}, "line"),
        ("compat-check", {"support": SQ_JSON, "line": LINE5}, "line"),
        ("compat-check", {"support": SQ_JSON, "topology": TOPOLOGY5}, "topology"),
    ],
)
def test_fields_must_agree_with_the_support(command, payload, field):
    code, out, err = run_in_process([command], json.dumps(payload))
    assert code == 2 and json.loads(out)["error"].startswith(f"{field} "), out
    assert "Traceback" not in err


def test_oversized_numbers_are_exit_2():
    # an integer past int()'s digit limit: the field that holds it is named
    text = '{"support": %s, "c": [0, 0, 0, %s]}' % (json.dumps(SQ_JSON), "9" * 5000)
    code, out, _ = run_in_process(["subdivision"], text)
    assert code == 2 and json.loads(out)["error"].startswith("c: malformed rational")
    text = '{"support": %s, "type_id": %s}' % (json.dumps(SQ_JSON), "9" * 5000)
    code, out, _ = run_in_process(["realize-type"], text)
    assert code == 2 and json.loads(out)["error"] == "type_id must be of type int"
    # 10^(10^7) in 10 bytes: refused before any arithmetic
    start = time.perf_counter()
    text = json.dumps({"support": SQ_JSON, "c": [0, 0, 0, "1e10000000"]})
    code, out, _ = run_in_process(["subdivision"], text)
    assert code == 2 and json.loads(out)["error"].startswith("c: malformed rational")
    assert time.perf_counter() - start < 1


LSQ_LINE = jsonio.line_to_json(make_lsq())  # edges[4] is the internal edge


@pytest.mark.parametrize(
    "bad, shown",
    [("1/0", "'1/0'"), ("1.5", "'1.5'"), (True, "True"), ("7" * 5000, "'777777777777...7777777777777'")],
)
@pytest.mark.parametrize("field", ["line.edges[4].length", "line.anchor.coords"])
def test_line_rationals_are_refused_with_their_field(bad, shown, field):
    # the texts the line decoder gave when it parsed each entry into a Fraction
    line = json.loads(json.dumps(LSQ_LINE))
    if field == "line.anchor.coords":
        line["anchor"]["coords"][2] = bad
    else:
        line["edges"][4]["length"] = bad
    code, out, _ = run_in_process(["construct-config"], json.dumps({"support": SQ_JSON, "line": line}))
    assert code == 2 and json.loads(out) == {"error": f"{field}: malformed rational: {shown}"}


def test_closed_stdout_ends_quietly():
    # 945 trivalent types on 7 points: far more output than a pipe buffers
    support = {
        "degree": 3,
        "points": [[0, 0, 3], [1, 0, 2], [2, 0, 1], [3, 0, 0], [0, 1, 2], [1, 1, 1], [0, 2, 1]],
    }
    proc = subprocess.Popen(
        [sys.executable, "-m", "troppencil.cli", "enumerate-types"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=ENV,
    )
    proc.stdin.write(json.dumps({"support": support}))
    proc.stdin.close()
    assert proc.stdout.readline() == "{\n"
    proc.stdout.close()  # the reader goes away, as `| head -1` does
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


def test_bench_smoke():
    # the benchmark's tracer spans library functions by name, and the smoke
    # run checks each traced count against a profiler's and the metric names
    # against BENCHMARK.json; it writes no bytecode next to the benchmark
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=root,
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "smoke passed" in proc.stdout


def test_bench_traced_names_resolve():
    # a renamed library function must fail here, not only in a traced run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for table in (tracing.SPANNED, tracing.COUNTED):
        for layer, funcs in table.items():
            home = importlib.import_module(f"troppencil.{layer}")
            for qual in funcs:
                owner, _, attr = qual.rpartition(".")
                # the tracer wraps a method through its class __dict__
                space = vars(getattr(home, owner)) if owner else vars(home)
                assert callable(space.get(attr)), f"{layer}.{qual}"


@pytest.mark.parametrize(
    "support",
    [
        {"degree": 1, "points": [[1, 0, 0], [0, 1, 0], [1, 0, 0]]},  # duplicate
        {"degree": 2, "points": [[2, 0, 0], [1, 1, 0], [0, 2, 0]]},  # collinear
        {"degree": 2, "points": [[1, 0, 0], [0, 1, 1], [0, 0, 2]]},  # wrong degree
    ],
)
def test_curve_rejects_bad_support(support):
    code, out = run_cli("curve", {"support": support, "c": [0, 0, 0]})
    assert code == 2 and out["error"].startswith("support: ")


DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # the demos use the public names; run them where their files may land
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, capture_output=True, text=True, env=ENV
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # the demos are deterministic; their output is pinned byte for byte
    golden = demo.parents[1] / "tests" / "data" / "demo_golden" / f"{demo.stem}.txt"
    assert proc.stdout == golden.read_text()


def test_point_round_trip():
    P = ProjPoint((2, 1, 0))
    assert jsonio.point_from_json(jsonio.point_to_json(P), "point", 3) == P
    # any representative is accepted on input
    assert jsonio.point_from_json([3, 2, 1], "point", 3) == P
    with pytest.raises(jsonio.MalformedInput):
        jsonio.point_from_json([0.5, 1, 0], "point", 3)
