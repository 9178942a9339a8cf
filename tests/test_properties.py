"""Seeded, bounded property tests: hypothesis draws the inputs, but with
derandomize=True and no example database every run sees the same few
examples, so the suite stays deterministic and fast."""

import io
import json
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PRIMES, rand_line, rand_support
from troppencil import cli, jsonio
from troppencil.compat import compatible_types, realize_type, type_by_id, type_count

BOUNDED = settings(derandomize=True, database=None, max_examples=25, deadline=None)


@BOUNDED
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 14), contract_p=st.sampled_from([0.0, 0.4]))
def test_line_json_round_trip(seed, n, contract_p):
    L = rand_line(random.Random(seed), n, contract_p=contract_p)
    assert jsonio.line_from_json(jsonio.line_to_json(L)) == L


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
# one fault per case, or none in half the cases
COMMON_FAULTS = ["duplicate point", "short point", "non-number point", "bad degree",
                 "missing field", "not an object"]
FAULTS = {
    "subdivision": ["short heights", "long heights", "non-number height", "heights not a list"],
    "realize-type": ["any type id", "type id out of range", "type id not an int"],
    "construct-config": ["random line", "other leaf count", "bad length", "bad edge",
                         "bad anchor", "line not an object"],
}
FAULTS["curve"] = FAULTS["subdivision"]


def _support_json(A, fault, draw):
    obj = {"degree": A.degree, "points": [list(p) for p in A.points]}
    if fault == "duplicate point":
        obj["points"].append(list(obj["points"][-1]))
    elif fault == "short point":
        obj["points"][0] = obj["points"][0][:2]
    elif fault == "non-number point":
        obj["points"][-1][draw(st.integers(0, 2))] = draw(JUNK)
    elif fault == "bad degree":
        obj["degree"] = draw(st.one_of(JUNK, st.integers(-1, 5)))
    return obj


def _heights(A, fault, draw):
    size = A.n + {"short heights": -1, "long heights": 1}.get(fault, 0)
    hs = draw(st.lists(RATIONALS, min_size=size, max_size=size))
    if fault == "non-number height":
        hs[draw(st.integers(0, size - 1))] = draw(JUNK)
    return draw(JUNK) if fault == "heights not a list" else hs


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
    if fault not in FAULTS["construct-config"]:
        _, T = next(compatible_types(A))
        return jsonio.line_to_json(realize_type(A, T, seed=rng.randrange(4)))
    if fault == "line not an object":
        return draw(JUNK)
    obj = jsonio.line_to_json(rand_line(rng, A.n + (fault == "other leaf count")))
    if fault == "bad length":  # the first internal edge
        next(e for e in obj["edges"] if e["length"] is not None)["length"] = draw(JUNK)
    elif fault == "bad edge":
        obj["edges"][0] = draw(JUNK)
    elif fault == "bad anchor":
        obj["anchor"]["coords"] = draw(st.one_of(JUNK, st.lists(RATIONALS, max_size=4)))
    return obj


@st.composite
def cli_payloads(draw, command):
    """A payload for `command` on a random support of 4..8 points: well
    formed, or with one fault."""
    faults = COMMON_FAULTS + FAULTS[command]
    fault = draw(st.sampled_from([None] * len(faults) + faults))
    A = rand_support(random.Random(draw(st.integers(0, 2**32 - 1))), draw(st.integers(4, 8)))
    obj = {"support": _support_json(A, fault, draw)}
    if command in ("subdivision", "curve"):
        obj["c"] = _heights(A, fault, draw)
    elif command == "realize-type":
        obj["type_id"] = _type_id(A, fault, draw)
    else:
        obj["line"] = _line(A, fault, draw)
    if fault == "missing field":
        del obj[draw(st.sampled_from(sorted(obj)))]
    return draw(JUNK) if fault == "not an object" else obj


def run_in_process(argv, payload):
    """`cli.main(argv)` with the payload on stdin: (exit code, stdout,
    stderr).  Any exception that escapes `main` fails the caller, just as
    a traceback fails `test_cli.run_cli`."""
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin = io.StringIO(json.dumps(payload))
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    try:
        code = cli.main(argv)
        return code, sys.stdout.getvalue(), sys.stderr.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved


@pytest.mark.parametrize("command", ["subdivision", "curve", "realize-type", "construct-config"])
@settings(BOUNDED, max_examples=60)
@given(data=st.data())
def test_cli_random_json(command, data):
    payload = data.draw(cli_payloads(command))
    code, out, err = run_in_process([command], payload)
    assert "Traceback" not in err, err
    assert code in (0, 1, 2)
    result = json.loads(out)
    assert (code == 0) == ("error" not in result)
