"""Classical linear codes: construction, duals, distances, wire format."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbh import lincode
from qbh.errors import (
    BudgetExceeded,
    LengthMismatch,
    ZeroCode,
)
from qbh.gf import _block_rows, _lane_width, _vec_lanes, field_make
from qbh.lincode import (
    _min_weight_outside,
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


@pytest.mark.parametrize("field,rows", [
    (F2, [(1, 1, 0, 1), (0, 1, 1, 1)]),
    (F3, [(1, 0, 2), (0, 1, 1)]),
    (F4, [(1, 2, 3)]),
    (field_make(3, 2), [(1, 4, 7), (0, 1, 5)]),
    (F5, [(1, 2, 3, 4, 0)]),
])
def test_contains_is_a_zero_syndrome_on_every_word(field, rows):
    # the parity rows are read off the RREF generator; every vector of F_q^n
    # is checked against the enumerated code, and entries outside the field
    # or words of another length lie outside it
    c = code_make(field, rows)
    words = oracles.oracle_codewords(field, c.gen)
    for x in itertools.product(range(field.order), repeat=c.n):
        assert contains(c, x) == (x in words)
    parity = c._parity
    assert len(parity) == c.n - c.k and contains(c, (0,) * c.n) and c._parity is parity
    for bad in ((field.order,) + (0,) * (c.n - 1), (0,) * (c.n - 1) + (-1,), (0,) * (c.n + 1)):
        assert not contains(c, bad)


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


def independent_rows(data, field, length, dim, unit):
    """dim F_p-independent vectors over ``field`` of the given length, in a
    permuted systematic form on their digits: each row has digit 1 at its
    own pivot and 0 at the others'.  With ``unit`` the last row is its
    pivot digit alone, a vector of weight 1."""
    digits = length * field.degree
    pivots = data.draw(st.permutations(range(digits)), label="digit order")[:dim]
    entry = st.integers(0, field.p - 1)
    rows = []
    for i, j in enumerate(pivots):
        digs = data.draw(st.lists(entry, min_size=digits, max_size=digits), label="digits")
        if unit and i == dim - 1:
            digs = [0] * digits
        for k in pivots:
            digs[k] = 0
        digs[j] = 1
        rows.append(field.vec_from_digits(digs))
    return rows


def check_walk(data, p, dim, s, unit, spare):
    """The walk against the enumeration oracle on dim drawn rows, the
    first s of them excluded, over GF(p) or GF(p^2), folded or not, with
    up to ``spare`` coordinates beyond the fewest that fit the rows."""
    r = data.draw(st.sampled_from([1, 2]), label="r")
    fold = data.draw(st.booleans(), label="fold")
    per = r * (2 if fold else 1)  # digits per coordinate of the weight
    least = max(1, -(-dim // per))
    n = data.draw(st.integers(least, least + spare), label="n")
    field = field_make(p, r)
    rows = independent_rows(data, field, n * (2 if fold else 1), dim, unit)
    want = oracles.min_weight_outside(field, n, rows[:s], rows[s:], fold)
    if unit:
        assert want == 1
    packed = [_vec_lanes(field, row) for row in rows]
    half = n * r * _lane_width(p) if fold else 0
    assert _min_weight_outside(p, packed[:s], packed[s:], n, r, half) == want


@settings(max_examples=60, deadline=None)
@given(data=st.data(), p=st.sampled_from([2, 3, 5, 7]))
def test_min_weight_walk_in_one_block_matches_enumeration(data, p):
    dim = data.draw(st.integers(0, _block_rows(p, 6)), label="dim")
    s = data.draw(st.integers(0, dim), label="|S|")
    # up to 40 more coordinates: slots of more than one machine word
    check_walk(data, p, dim, s, dim > 0 and data.draw(st.booleans(), label="unit"), 40)


# (p, dim, |S|, unit): past one block of 4096 elements, with |S| below
# and above its b rows, or with no rest, and with ``unit`` a weight-1 row
# last, so that the walk stops early in a later block.
BLOCK_SHAPES = [
    (2, 13, 3, False), (2, 14, 13, False), (2, 13, 13, False), (3, 8, 2, False),
    (3, 9, 8, False), (5, 6, 1, False), (7, 5, 2, False), (2, 13, 3, True), (7, 5, 2, True),
]


@pytest.mark.parametrize("p, dim, s, unit", BLOCK_SHAPES)
@settings(max_examples=2, deadline=None)
@given(data=st.data())
def test_min_weight_walk_past_one_block_matches_enumeration(p, dim, s, unit, data):
    assert p ** dim > 4096
    check_walk(data, p, dim, s, unit, 2)


# (p, N, dim, |S|): slots of 512 bits at p = 2, N = 300 and of 384 bits
# at p = 3, N = 120, where 4096 elements would take the whole span.
WIDE_SHAPES = [(2, 300, 10, 0), (2, 300, 10, 9), (3, 120, 7, 2)]


@pytest.mark.parametrize("p, n, dim, s", WIDE_SHAPES)
def test_min_weight_walk_holds_at_most_2_18_bits_per_block(p, n, dim, s, monkeypatch):
    field, rng = field_make(p, 1), random.Random(f"{p},{n},{dim}")
    rows = [tuple(int(i == j) for j in range(dim)) + tuple(rng.randrange(p) for _ in range(n - dim))
            for i in range(dim)]
    offsets, real = [], lincode._gray_span

    def walk_rest(p, rest, *args):
        offsets.append(len(rest))
        return real(p, rest, *args)

    monkeypatch.setattr(lincode, "_gray_span", walk_rest)
    packed = [_vec_lanes(field, row) for row in rows]
    got = _min_weight_outside(p, packed[:s], packed[s:], n, 1)
    assert got == oracles.min_weight_outside(field, n, rows[:s], rows[s:])
    size = 512 if p == 2 else 384
    block = dim - offsets[0]
    assert p ** block * size <= 1 << 18 < p ** (block + 1) * size


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


def test_code_make_rejects_zero_length_rows():
    with pytest.raises(LengthMismatch, match="codewords must have positive length"):
        code_make(field_make(2, 1), [()])
