"""Classical linear codes: construction, duals, distances, wire format."""

import pytest

from qbh.errors import (
    BudgetExceeded,
    LengthMismatch,
    ZeroCode,
)
from qbh.gf import field_make
from qbh.lincode import (
    code_make,
    code_from_text,
    code_to_text,
    contains,
    dual,
    encode,
    fp_basis,
    iter_codewords,
    min_distance,
    weight,
)

import oracles

F2 = field_make(2, 1)
F3 = field_make(3, 1)
F4 = field_make(2, 2)
F5 = field_make(5, 1)
F9 = field_make(3, 2)

HAMMING_7_4 = [
    (1, 0, 0, 0, 1, 1, 0),
    (0, 1, 0, 0, 1, 0, 1),
    (0, 0, 1, 0, 0, 1, 1),
    (0, 0, 0, 1, 1, 1, 1),
]


def test_weight():
    assert weight((0, 0, 0)) == 0
    assert weight((1, 0, 2)) == 2


def test_repetition_codes():
    c = code_make(F2, [(1, 1, 1)])
    assert (c.n, c.k) == (3, 1)
    assert set(iter_codewords(c)) == {(0, 0, 0), (1, 1, 1)}
    c3 = code_make(F3, [(1, 1, 1)])
    assert set(iter_codewords(c3)) == {(0, 0, 0), (1, 1, 1), (2, 2, 2)}


def test_rank_drop():
    c = code_make(F2, [(1, 1, 0), (0, 1, 1), (1, 0, 1)])
    assert c.k == 2
    assert c.size == 4


def test_code_make_rejects_zero_span():
    with pytest.raises(ZeroCode):
        code_make(F2, [(0, 0, 0)])
    with pytest.raises(ZeroCode):
        code_make(F2, [])


def test_code_make_rejects_ragged_and_out_of_range():
    with pytest.raises(LengthMismatch):
        code_make(F2, [(1, 1), (1, 1, 1)])
    with pytest.raises(ValueError):
        code_make(F2, [(0, 2)])


def test_dual_of_binary_repetition():
    c = code_make(F2, [(1, 1, 1)])
    d = dual(c)
    assert set(iter_codewords(d)) == {(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)}


def test_dual_of_full_space_is_zero_code():
    full = code_make(F2, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    d = dual(full)
    assert d.k == 0
    assert contains(d, (0, 0, 0))
    assert not contains(d, (1, 0, 0))


def test_dual_of_zero_code_is_full_space():
    d = dual(dual(code_make(F4, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])))
    assert d.k == 3 and d.size == 4 ** 3
    assert contains(d, (1, 2, 3))


def test_dual_of_ternary_repetition():
    c = code_make(F3, [(1, 1, 1)])
    d = dual(c)
    ws = set(iter_codewords(d))
    assert len(ws) == 9
    assert all(sum(w) % 3 == 0 for w in ws)


@pytest.mark.parametrize("field,rows", [
    (F2, [(1, 1, 1)]),
    (F2, [(1, 1, 0, 1), (0, 1, 1, 1)]),
    (F3, [(1, 0, 2), (0, 1, 1)]),
    (F4, [(1, 2, 3)]),
])
def test_dual_matches_bruteforce_and_is_involutive(field, rows):
    c = code_make(field, rows)
    d = dual(c)
    want = oracles.oracle_dual_set(field, c.n, tuple(iter_codewords(c)))
    assert set(iter_codewords(d)) == want
    assert set(iter_codewords(dual(d))) == set(iter_codewords(c))


def test_encode_message_roundtrip():
    # the echelon generator carries the message in the pivot coordinates
    c = code_make(F4, [(1, 0, 2), (0, 1, 3)])
    for w in iter_codewords(c):
        assert encode(c, tuple(w[j] for j in c.pivots)) == w
    assert not contains(c, (1, 0, 1))
    with pytest.raises(LengthMismatch):
        encode(c, (1,))


def test_contains():
    c = code_make(F2, [(1, 1, 0), (0, 0, 1)])
    assert contains(c, (1, 1, 1))
    assert not contains(c, (1, 0, 0))
    assert not contains(c, (1, 1))


def test_min_distance_examples():
    assert min_distance(code_make(F2, [(1, 1, 1)])) == 3
    even = code_make(F2, [(1, 1, 0), (0, 1, 1)])
    assert min_distance(even) == 2
    assert min_distance(code_make(F2, HAMMING_7_4)) == 3


@pytest.mark.parametrize("field,rows", [
    (F2, HAMMING_7_4),
    (F3, [(1, 0, 1, 2), (0, 1, 2, 2)]),
    (F4, [(1, 0, 2), (0, 1, 3)]),
    (F4, [(1, 2, 3, 1)]),
    (F5, [(1, 0, 2, 3, 4), (0, 1, 4, 4, 1)]),
    (F5, [(1, 1, 1, 1, 1, 1)]),
    (F9, [(1, 0, 3, 5, 1), (0, 1, 7, 2, 4)]),
    (F9, [(1, 0, 0), (0, 1, 5)]),
])
def test_min_distance_matches_oracle(field, rows):
    c = code_make(field, rows)
    assert min_distance(c) == oracles.oracle_min_distance(field, list(c.gen))


def test_min_distance_budget():
    c = code_make(F2, HAMMING_7_4)
    with pytest.raises(BudgetExceeded, match=r"^codeword walk words: 16 requested,"
                       r" limit 8; raise it with --budget$"):
        min_distance(c, budget=8)


def test_codeword_count():
    c = code_make(F4, [(1, 0, 2), (0, 1, 3)])
    assert len(set(iter_codewords(c))) == 16
    assert c.size == 16


def test_fp_basis_prime_field_is_generator():
    c = code_make(F2, [(1, 1, 0), (0, 1, 1)])
    assert fp_basis(c) == [tuple(r) for r in c.gen]


def test_fp_basis_extension_field_spans_code():
    c = code_make(F4, [(1, 0, 2), (0, 1, 3)])
    basis = fp_basis(c)
    assert len(basis) == 2 * c.k
    # F_2-combinations of the basis enumerate the full codeword set
    import itertools
    span = set()
    for coeffs in itertools.product((0, 1), repeat=len(basis)):
        w = (0,) * c.n
        for cf, row in zip(coeffs, basis):
            if cf:
                w = tuple(F4.add(x, y) for x, y in zip(w, row))
        span.add(w)
    assert span == set(iter_codewords(c))


def test_text_roundtrip_prime_field():
    c = code_make(F3, [(1, 0, 2), (0, 1, 1)])
    c2 = code_from_text(code_to_text(c))
    assert c2 == c


def test_text_roundtrip_extension_field_keeps_modulus():
    c = code_make(F4, [(1, 2, 3)])
    text = code_to_text(c)
    assert "modulus:" in text
    c2 = code_from_text(text)
    assert c2 == c
    assert c2.field is F4


def test_text_skips_indented_comments():
    c = code_from_text("2 1 3 1\n  # c\n1 1 1\n")
    assert c.gen == ((1, 1, 1),)


def test_text_rejects_garbage():
    with pytest.raises(Exception):
        code_from_text("not a header\n")
