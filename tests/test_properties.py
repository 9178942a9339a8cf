"""Seeded, bounded property tests: hypothesis draws the inputs, but with
derandomize=True and no example database every run sees the same few
examples, so the suite stays deterministic and fast."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_line
from troppencil import jsonio
from troppencil.compat import type_by_id, type_count

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
