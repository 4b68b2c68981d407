"""Text formats: from_text(to_text(x)) == x, and rejections of bad input."""

import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qbh.bh import BhMatrix, bh_from_text, bh_to_text
from qbh.construct import StabilizerCode, stab_from_text, stab_to_text
from qbh.errors import QbhError
from qbh.gf import _is_irreducible, field_make
from qbh.lincode import code_from_text, code_make, code_to_text
from qbh.pauli import PauliElement

# Every small field under every monic irreducible modulus, so the
# 'modulus' lines of the formats carry more than the default.  Every
# linear modulus x + a is drawn too: the code and stabilizer formats
# write no modulus at degree 1, and field_make maps each to the one
# prime field per p.
FIELDS = [field_make(p, 1) for p in (2, 3, 5, 7)] + [
    field_make(p, t, m + (1,))
    for p, t in [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)]
    for m in itertools.product(range(p), repeat=t)
    if _is_irreducible(m + (1,), p)
]

fields = st.sampled_from(FIELDS)


def vectors(f, n):
    return st.tuples(*[st.integers(0, f.order - 1)] * n)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_code_round_trip(data):
    f = data.draw(fields)
    n = data.draw(st.integers(1, 5))
    rows = data.draw(st.lists(vectors(f, n), min_size=1, max_size=n))
    assume(any(any(r) for r in rows))
    c = code_make(f, rows)
    assert code_from_text(code_to_text(c)) == c


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bh_matrix_round_trip(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    order = data.draw(st.integers(1, 6))
    rows = data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=order, max_size=order),
                              min_size=order, max_size=order))
    labels = st.none() | st.permutations(range(order))
    row_labels, col_labels = data.draw(labels), data.draw(labels)
    m = BhMatrix(order, p, rows, row_labels=row_labels, col_labels=col_labels)
    back = bh_from_text(bh_to_text(m))
    assert back == m
    assert (back.row_labels, back.col_labels) == (m.row_labels, m.col_labels)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_stabilizer_export_round_trip(data):
    f = data.draw(fields)
    n, k, m, s = (data.draw(st.integers(1, 3)) for _ in range(4))
    parts = vectors(f, n * m)
    pairs = data.draw(st.lists(st.tuples(parts, parts), max_size=4))
    gens = [PauliElement(f, 0, a, b) for a, b in pairs]
    delta = data.draw(st.none() | st.integers(1, n * m))
    sc = StabilizerCode(f, n, k, m, s, gens, delta=delta)
    back = stab_from_text(stab_to_text(sc))
    assert back.field == f
    assert (back.n, back.k, back.m, back.s, back.delta) == (n, k, m, s, delta)
    assert back.generators == sc.generators


@pytest.mark.parametrize("parse,text", [
    (code_from_text, "2 2 1 1\nmodulus: 0 1 1\n1\n"),  # reducible modulus x^2 + x
    (code_from_text, "2 1 3 1\n1 2 1\n"),  # entry 2 outside GF(2)
    (bh_from_text, "2 2\n0 0\n"),  # one row of two
    (stab_from_text, "2 1 1 1 2 1 2 1 -\n0 4 | 0 0\n"),  # entry 4 outside GF(2)
    (stab_from_text, "2 1 1 1 2 1 2 1 -\n0 0 | 0 0 | 1\n"),  # two separators
    (stab_from_text, "2 1 1 1 2 1 2 1 0\n0 0 | 1 1\n"),  # delta 0
    (stab_from_text, "2 1 1 1 2 1 2 1 3\n0 0 | 1 1\n"),  # delta N + 1
    (stab_from_text, "2 1 1 1 2 1 2 1 -7\n0 0 | 1 1\n"),  # delta -7
    (stab_from_text, "2 1 -2 1 -2 1 4 1 -\n0 0 0 0 | 1 1 0 0\n"),  # N = nm with n, m < 0
], ids=["field", "code", "bh", "stab", "stab-two-pipes", "stab-delta-0",
        "stab-delta-N+1", "stab-delta-negative", "stab-negative-lengths"])
def test_each_format_rejects_bad_input(parse, text):
    with pytest.raises((ValueError, QbhError)):
        parse(text)


@pytest.mark.parametrize("head", ["2 1 -2 1 -2 1 4 1 -", "2 1 0 1 3 1 0 1 -",
                                  "2 1 3 -1 3 -1 9 1 -", "2 1 3 1 3 -1 9 -1 -"])
def test_stab_header_rejects_negative_or_empty_sizes(head):
    with pytest.raises(ValueError, match=r"header needs n, m >= 1 and k, s >= 0: \["):
        stab_from_text(head + "\n")


def test_stab_header_accepts_n_and_k_one():
    sc = stab_from_text("2 1 1 1 2 1 2 1 -\n0 0 | 1 1\n")
    assert (sc.n, sc.k, sc.m, sc.s) == (1, 1, 2, 1)


def test_stab_line_with_two_separators_is_quoted():
    with pytest.raises(ValueError, match=r"exactly one a\|b separator: '0 0 \| 0 0 \| 1'"):
        stab_from_text("2 1 1 1 2 1 2 1 -\n0 0 | 0 0 | 1\n")
