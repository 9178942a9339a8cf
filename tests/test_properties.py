"""Seeded, bounded property tests: hypothesis draws the inputs, but with
derandomize=True and no example database every run sees the same few
examples, so the suite stays deterministic and fast."""

import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PRIMES, coprime_line, locus_points, rand_line, rand_support, run_in_process
from troppencil import ProjPoint, jsonio
from troppencil.compat import compatible_types, realize_type, type_by_id, type_count
from troppencil.pencil import is_fixed, shifted_line, skeleton_level

BOUNDED = settings(derandomize=True, database=None, max_examples=25, deadline=None)


@BOUNDED
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 14), contract_p=st.sampled_from([0.0, 0.4]))
def test_line_json_round_trip(seed, n, contract_p):
    L = rand_line(random.Random(seed), n, contract_p=contract_p)
    assert jsonio.line_from_json(jsonio.line_to_json(L), n) == L


@BOUNDED
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(4, 8),
    contract_p=st.sampled_from([0.0, 0.4]),
    coprime=st.booleans(),
)
def test_is_fixed_reads_the_translate(seed, n, contract_p, coprime):
    # is_fixed reads the translate's rows lazily, skeleton_level the built
    # translate.  The random points have denominators 11 and 13; the locus
    # points, where most answers are True, have the line's.
    rng = random.Random(seed)
    L = (coprime_line if coprime else rand_line)(rng, n, contract_p=contract_p)
    A = rand_support(rng, n)
    points = locus_points(L, A)[:4] + [
        ProjPoint((Fraction(rng.randint(-60, 60), 11), Fraction(rng.randint(-60, 60), 13), 0))
        for _ in range(4)
    ]
    for P in points:
        assert is_fixed(L, A, P) == (skeleton_level(shifted_line(L, A, P)) >= 2)


@st.composite
def type_ids(draw):
    n = draw(st.integers(3, 14))
    return n, draw(st.integers(0, type_count(n) - 1))


@BOUNDED
@given(type_ids())
def test_decoded_type_is_trivalent(nk):
    n, k = nk
    T = type_by_id(n, k)
    assert T.n == n and T.is_trivalent()
    assert sorted(v for v in T.adj if T.is_leaf(v)) == list(range(1, n + 1))
    assert len(T.internal_nodes) == n - 2


# ---------------------------------------------------------------------------
# random JSON through the CLI

JUNK = st.sampled_from([None, True, 1.5, "x", "1/0", "", [], {}, [1, 2], {"a": 1}])
RATIONALS = st.one_of(
    st.integers(-(10**6), 10**6),
    st.builds("{}/{}".format, st.integers(-(10**6), 10**6), st.sampled_from(PRIMES)),
)
# Each structural fault -> the field its error must name.  The other
# faults ("random line", "as topology", "any type id", ...) build
# well-formed input that the domain may refuse (exit 1).
SUPPORT_FAULTS = ["duplicate point", "short point", "non-number point", "bad degree"]
HEIGHT_FAULTS = ["short heights", "long heights", "non-number height", "heights not a list"]
CONFIG_FAULTS = ["other point count", "bad configuration point", "configuration not an object"]
LINE_FAULTS = ["other leaf count", "bad length", "bad edge", "repeated edge", "wrong leaf map",
               "bad anchor", "line not an object", "leaf length"]
FIELD_OF = dict.fromkeys(SUPPORT_FAULTS, "support")
FIELD_OF.update(dict.fromkeys(HEIGHT_FAULTS, "c"))
FIELD_OF.update(dict.fromkeys(CONFIG_FAULTS, "configuration"))
FIELD_OF.update(dict.fromkeys(LINE_FAULTS, "line"))
FIELD_OF.update({"type id not an int": "type_id", "bad point": "point",
                 "other leaf count topology": "topology"})
FAULTS = {
    "subdivision": HEIGHT_FAULTS,
    "curve": HEIGHT_FAULTS,
    "check-general": CONFIG_FAULTS,
    "stable-pencil": CONFIG_FAULTS,
    "fixed-locus": LINE_FAULTS + ["random line"],
    "is-fixed": LINE_FAULTS + ["random line", "bad point"],
    "construct-config": LINE_FAULTS + ["random line"],
    "compat-check": LINE_FAULTS + ["random line", "as topology", "other leaf count topology"],
    "enumerate-types": [],
    "realize-type": ["any type id", "type id out of range", "type id not an int"],
}
# the field each command reads besides the support
FIELD = {"subdivision": "c", "curve": "c", "check-general": "configuration",
         "stable-pencil": "configuration", "realize-type": "type_id"}


def _support_json(A, fault, draw):
    obj = {"degree": A.degree, "points": [list(p) for p in A.points]}
    if fault == "duplicate point":
        obj["points"].append(list(obj["points"][-1]))
    elif fault == "short point":
        obj["points"][0] = obj["points"][0][:2]
    elif fault == "non-number point":
        obj["points"][-1][draw(st.integers(0, 2))] = draw(JUNK)
    elif fault == "bad degree":
        obj["degree"] = draw(st.one_of(JUNK, st.integers(-1, 5).filter(lambda d: d != A.degree)))
    return obj


def _heights(A, fault, draw):
    size = A.n + {"short heights": -1, "long heights": 1}.get(fault, 0)
    hs = draw(st.lists(RATIONALS, min_size=size, max_size=size))
    if fault == "non-number height":
        hs[draw(st.integers(0, size - 1))] = draw(JUNK)
    return draw(JUNK) if fault == "heights not a list" else hs


def _plane_point(draw, fault):
    """Three rationals, or with fault a junk value, a wrong length or one
    junk coordinate."""
    P = draw(st.lists(RATIONALS, min_size=3, max_size=3))
    if not fault:
        return P
    kind = draw(st.sampled_from(["junk", "short", "long", "junk coordinate"]))
    if kind == "junk":
        return draw(JUNK)
    if kind == "junk coordinate":
        P[draw(st.integers(0, 2))] = draw(JUNK)
        return P
    return P[:2] if kind == "short" else P + [0]


def _configuration(A, fault, draw):
    if fault == "configuration not an object":
        return draw(JUNK)
    count = A.n - 2
    if fault == "other point count":
        count = draw(st.integers(0, A.n).filter(lambda k: k != A.n - 2))
    points = [_plane_point(draw, False) for _ in range(count)]
    if fault == "bad configuration point":
        points[draw(st.integers(0, count - 1))] = _plane_point(draw, True)
    return {"points": points}


def _type_id(A, fault, draw):
    if fault == "any type id":
        return draw(st.integers(0, type_count(A.n) - 1))
    if fault == "type id out of range":
        return draw(st.one_of(st.integers(-5, -1), st.integers(type_count(A.n), 10**30)))
    if fault == "type id not an int":
        return draw(JUNK)
    return draw(st.sampled_from([k for k, _ in compatible_types(A)]))


def _line(A, fault, draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if fault not in LINE_FAULTS + ["random line", "other leaf count topology"]:
        _, T = next(compatible_types(A))
        return jsonio.line_to_json(realize_type(A, T, seed=rng.randrange(4)))
    if fault == "line not an object":
        return draw(JUNK)
    obj = jsonio.line_to_json(rand_line(rng, A.n + fault.startswith("other leaf count")))
    if fault == "bad length":  # the first internal edge
        next(e for e in obj["edges"] if e["length"] is not None)["length"] = draw(JUNK)
    elif fault == "bad edge":
        obj["edges"][0] = draw(JUNK)
    elif fault == "repeated edge":  # in either orientation, with another length
        e = dict(draw(st.sampled_from(obj["edges"])))
        if draw(st.booleans()):
            e["a"], e["b"] = e["b"], e["a"]
        if e["length"] is not None:
            e["length"] = draw(st.integers(1, 9))
        obj["edges"].insert(draw(st.integers(0, len(obj["edges"]))), e)
    elif fault == "wrong leaf map":
        leaf = str(draw(st.integers(1, A.n)))
        nodes = {e[k] for e in obj["edges"] for k in "ab"} - {obj["leaf_map"][leaf]}
        obj["leaf_map"][leaf] = draw(st.one_of(JUNK, st.sampled_from(sorted(nodes))))
    elif fault == "leaf length":  # any non-null value on a leaf edge
        next(e for e in obj["edges"] if e["length"] is None)["length"] = draw(
            st.one_of(JUNK.filter(lambda x: x is not None), RATIONALS)
        )
    elif fault == "bad anchor":
        obj["anchor"]["coords"] = draw(
            st.one_of(JUNK, st.lists(RATIONALS, max_size=A.n + 1).filter(lambda xs: len(xs) != A.n))
        )
    return obj


@st.composite
def cli_payloads(draw, command, fault):
    """(field, payload): a payload for `command` on a random support of
    4..8 points (4..6 for enumerate-types, whose output lists every type)
    with the given fault, and the field its error must name, or None when
    the payload is well formed."""
    top = 6 if command == "enumerate-types" else 8
    A = rand_support(random.Random(draw(st.integers(0, 2**32 - 1))), draw(st.integers(4, top)))
    obj = {"support": _support_json(A, fault, draw)}
    if FIELD.get(command) == "c":
        obj["c"] = _heights(A, fault, draw)
    elif FIELD.get(command) == "configuration":
        obj["configuration"] = _configuration(A, fault, draw)
    elif command == "realize-type":
        obj["type_id"] = _type_id(A, fault, draw)
    elif command != "enumerate-types":
        key = "topology" if fault in ("as topology", "other leaf count topology") else "line"
        obj[key] = _line(A, fault, draw)
    if command == "is-fixed":
        obj["point"] = _plane_point(draw, fault == "bad point")
    if fault == "missing field":
        key = draw(st.sampled_from(sorted(obj)))
        del obj[key]
        # with no line, compat-check reads a topology
        return "topology" if (command, key) == ("compat-check", "line") else key, obj
    if fault == "not an object":
        return "support", draw(JUNK)
    return FIELD_OF.get(fault), obj


def _run_payload(command, fault, field, payload):
    """Run `command` on the payload: a structural fault must exit 2 with
    the message starting with its field, anything else 0 or 1."""
    code, out, err = run_in_process([command], json.dumps(payload))
    assert "Traceback" not in err, err
    result = json.loads(out)
    if field:
        assert code == 2, (fault, result)
        assert re.match(rf"{re.escape(field)}\b", result["error"]), (fault, result)
    else:
        assert code in (0, 1), (fault, result)
        assert (code == 0) == ("error" not in result)


@pytest.mark.parametrize("command", sorted(FAULTS))
@settings(BOUNDED, max_examples=6)
@given(data=st.data())
def test_cli_random_json(command, data):
    # every fault in turn, so each one is drawn in every example
    for fault in ["missing field", "not an object", *SUPPORT_FAULTS, *FAULTS[command]]:
        _run_payload(command, fault, *data.draw(cli_payloads(command, fault)))


@pytest.mark.parametrize("command", sorted(FAULTS))
@settings(BOUNDED, max_examples=30)
@given(data=st.data())
def test_cli_random_wellformed_json(command, data):
    _run_payload(command, None, *data.draw(cli_payloads(command, None)))
