"""Field tower arithmetic: construction, traces, embeddings, wire format."""

import hashlib
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbh.errors import BudgetExceeded, NoEmbedding, NotPrime, ReducibleModulus
from qbh.gf import (
    FIELD_SIZE_LIMIT,
    _gray_span,
    _lane_adder,
    _lane_dot,
    _lane_flags,
    _lane_pack,
    _lane_width,
    _lanes_vec,
    _trace_lanes,
    _vec_lanes,
    field_make,
)

import oracles


def test_prime_field():
    f = field_make(2, 1)
    assert f.order == 2
    assert f.add(1, 1) == 0
    assert f.mul(1, 1) == 1


def test_default_moduli_are_the_frozen_ones():
    assert field_make(2, 2).modulus == (1, 1, 1)
    assert field_make(2, 3).modulus == (1, 1, 0, 1)
    assert field_make(3, 2).modulus == (1, 0, 1)


def _table_digest(f):
    parts = (f._exp, f._log, f._frob, f._trace)
    text = ";".join(
        "-" if t is None else ",".join("-" if v is None else str(v) for v in t)
        for t in parts
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("p, t, modulus, digest", [
    (2, 8, None, "870cd9732fdcac80"),
    (2, 12, None, "de137a8bee2faf1c"),
    (2, 16, None, "6f1069027c5974a9"),
    (3, 6, None, "95c96d2dcd07089d"),
    (3, 8, None, "fd11a4e6ab84dec8"),
    (5, 4, None, "06473d6ce80b9156"),
    # x is not primitive modulo x^4 + x^3 + x^2 + x + 1: x^5 = 1
    (2, 4, (1, 1, 1, 1, 1), "0292cb4388a34407"),
], ids=["2^8", "2^12", "2^16", "3^6", "3^8", "5^4", "2^4-x-not-primitive"])
def test_field_tables_are_the_frozen_ones(p, t, modulus, digest):
    # exp, log, Frobenius and trace tables, digested as first built
    # by scanning generator candidates for a full cycle of powers
    assert _table_digest(field_make(p, t, modulus)) == digest


def test_explicit_irreducible_modulus_accepted():
    f = field_make(2, 2, modulus=(1, 1, 1))
    assert f.order == 4


def test_fields_of_one_order_under_two_moduli_differ():
    default, other = field_make(2, 3), field_make(2, 3, modulus=(1, 0, 1, 1))
    assert default.modulus == (1, 1, 0, 1)
    assert default != other and other == field_make(2, 3, modulus=(1, 0, 1, 1))
    assert default == field_make(2, 3, modulus=(1, 1, 0, 1))


def test_reducible_modulus_rejected():
    # x^2 + 1 = (x + 1)^2 over F_2
    with pytest.raises(ReducibleModulus):
        field_make(2, 2, modulus=(1, 0, 1))


def test_modulus_of_wrong_length_or_not_monic_rejected():
    with pytest.raises(ReducibleModulus, match="must be monic of degree 2"):
        field_make(3, 2, modulus=(2, 0, 1, 0))
    with pytest.raises(ReducibleModulus, match="must be monic of degree 2"):
        field_make(3, 2, modulus=(1, 0, 2))


def test_non_prime_characteristic_rejected():
    for bad in (0, 1, 4, 6, 9, -3):
        with pytest.raises(NotPrime):
            field_make(bad, 1)


def test_degree_must_be_positive():
    with pytest.raises(ReducibleModulus):
        field_make(2, 0)


def test_size_limit():
    with pytest.raises(BudgetExceeded) as refused:
        field_make(2, 17)
    assert (refused.value.what, refused.value.requested, refused.value.limit,
            refused.value.flag) == ("field degree", 17, 16, None)
    with pytest.raises(BudgetExceeded, match=r"^field order: 177147 requested, limit 65536$"):
        field_make(3, 11)
    assert FIELD_SIZE_LIMIT == 1 << 16


@pytest.mark.parametrize("p,t", [(1000000000000000000000000000057, 1), (3, 1000000000)])
def test_size_limit_checked_before_primality_and_order(p, t):
    # trial division up to sqrt(p), or p ** t, would not finish here
    with pytest.raises(BudgetExceeded):
        field_make(p, t)


@pytest.mark.parametrize("p,t", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 1)])
def test_field_axioms_spot_checks(p, t):
    f = field_make(p, t)
    elems = list(f.elements())
    sample = elems if len(elems) <= 9 else elems[:5] + elems[-4:]
    for a in sample:
        assert f.add(a, f.neg(a)) == 0
        assert f.mul(a, 1) == a
        if a:
            assert f.mul(a, f.inv(a)) == 1
        for b in sample:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            if b:
                assert f.mul(f.mul(a, f.inv(b)), b) == a
            for c in sample:
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
                assert f.add(a, f.add(b, c)) == f.add(f.add(a, b), c)


def test_frobenius_is_additive_and_fixes_prime_field():
    f = field_make(3, 2)
    for a in f.elements():
        for b in f.elements():
            assert f.frobenius(f.add(a, b)) == f.add(f.frobenius(a), f.frobenius(b))
    for a in range(3):
        assert f.frobenius(a) == a
    # applying it degree times is the identity
    for a in f.elements():
        assert f.frobenius(f.frobenius(a)) == a


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_frobenius_is_the_identity_at_degree_one(p):
    # a^p = a on F_p: the Frobenius table of a prime field is the identity
    f = field_make(p, 1)
    assert [f.frobenius(a) for a in f.elements()] == list(f.elements())


def test_trace_of_zero_and_one():
    for p, t in [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1)]:
        f = field_make(p, t)
        assert f.trace_int(0) == 0
        assert f.trace_int(1) == t % p


def test_trace_f4_values():
    f4 = field_make(2, 2)
    # 0, 1 lie in F_2 (trace 0); the two generators have trace 1
    assert [f4.trace_int(a) for a in f4.elements()] == [0, 0, 1, 1]


@pytest.mark.parametrize("p,t", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)])
def test_trace_matches_polynomial_oracle(p, t):
    f = field_make(p, t)
    for a in f.elements():
        assert f.trace_int(a) == oracles.oracle_trace(f, a)


def test_trace_is_linear():
    f = field_make(2, 3)
    for a in f.elements():
        for b in f.elements():
            assert f.trace_int(f.add(a, b)) == (f.trace_int(a) + f.trace_int(b)) % 2


@pytest.mark.parametrize("p,t", [(2, 1), (2, 3), (3, 2), (5, 2)])
def test_trace_row_pairs_with_digits_to_the_trace(p, t):
    f = field_make(p, t)
    for a in f.elements():
        row = f.trace_row(a)
        for x in f.elements():
            assert sum(r * d for r, d in zip(row, f.digits(x))) % p == f.trace_int(f.mul(a, x))


def test_embed_f4_into_f16_frozen_table():
    f4 = field_make(2, 2)
    f16 = field_make(2, 4)
    assert f16.embed_table(f4) == (0, 1, 6, 7)


def test_embedding_is_a_ring_homomorphism():
    f4 = field_make(2, 2)
    f16 = field_make(2, 4)
    t = f16.embed_table(f4)
    assert t[0] == 0 and t[1] == 1
    for a in f4.elements():
        for b in f4.elements():
            assert t[f4.add(a, b)] == f16.add(t[a], t[b])
            assert t[f4.mul(a, b)] == f16.mul(t[a], t[b])
    assert len(set(t)) == 4


def test_embedding_f9_into_f81():
    f9 = field_make(3, 2)
    f81 = field_make(3, 4)
    t = f81.embed_table(f9)
    for a in f9.elements():
        for b in f9.elements():
            assert t[f9.mul(a, b)] == f81.mul(t[a], t[b])


def test_no_embedding_when_degree_does_not_divide():
    f4 = field_make(2, 2)
    f8 = field_make(2, 3)
    with pytest.raises(NoEmbedding):
        f8.embed_table(f4)


def test_no_embedding_across_characteristics():
    f4 = field_make(2, 2)
    f9 = field_make(3, 2)
    with pytest.raises(NoEmbedding):
        f9.embed_table(f4)


def test_digits_roundtrip():
    f = field_make(3, 2)
    for a in f.elements():
        d = f.digits(a)
        assert len(d) == 2
        assert d[0] + 3 * d[1] == a
    assert f.digits(5) == (2, 1)  # 5 = 2 + 1*3, constant term first


def test_pow_edge_cases():
    f = field_make(3, 2)
    assert f.pow(0, 0) == 1
    assert f.pow(5, 0) == 1
    for a in range(1, f.order):
        assert f.pow(a, f.order - 1) == 1
        assert f.mul(f.pow(a, -1), a) == 1


def test_inverse_of_zero_raises():
    f = field_make(2, 2)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_lane_add_matches_field_add(data):
    p = data.draw(st.sampled_from([2, 3, 5, 7, 11]), label="p")
    r = data.draw(st.integers(1, 3), label="r")
    n = data.draw(st.integers(1, 6), label="n")
    f = field_make(p, r)
    vec = st.lists(st.integers(0, f.order - 1), min_size=n, max_size=n)
    x, y = data.draw(vec, label="x"), data.draw(vec, label="y")
    w = _lane_width(p)

    def pack(v):
        return _lane_pack([d for e in v for d in f.digits(e)], w)

    add = _lane_adder(p, n * r)
    assert add(pack(x), pack(y)) == pack([f.add(a, b) for a, b in zip(x, y)])
    assert _vec_lanes(f, x) == pack(x)
    assert _lanes_vec(f, n, pack(x)) == tuple(x)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_vec_digits_round_trip_and_trace_rows_pair_to_the_trace(data):
    p, t = data.draw(st.sampled_from([(2, 1), (2, 2), (3, 2), (5, 1)]), label="field")
    f = field_make(p, t)
    n = data.draw(st.integers(1, 5), label="n")
    vec = st.lists(st.integers(0, f.order - 1), min_size=n, max_size=n).map(tuple)
    b, x = data.draw(vec, label="b"), data.draw(vec, label="x")
    digs = f.vec_digits(x)
    assert len(digs) == n * t
    assert _lanes_vec(f, n, _lane_pack(digs, _lane_width(p))) == x
    want = sum(f.trace_int(f.mul(bi, xi)) for bi, xi in zip(b, x)) % p
    assert sum(r * d for r, d in zip(f.trace_rows(b), digs)) % p == want


def _digit_sum(p, t, a, b, sign):
    """a + sign * b by base-p digits mod p: the oracle for Field.add and a - b."""
    out, scale = 0, 1
    for _ in range(t):
        a, da = divmod(a, p)
        b, db = divmod(b, p)
        out += ((da + sign * db) % p) * scale
        scale *= p
    return out


def _check_add_neg_sub(f, pairs):
    p, t = f.p, f.degree
    for a, b in pairs:
        assert f.add(a, b) == _digit_sum(p, t, a, b, 1)
        assert f.add(a, f.neg(b)) == _digit_sum(p, t, a, b, -1)
        assert f.neg(b) == _digit_sum(p, t, 0, b, -1)


@pytest.mark.parametrize(
    "p,t", [(7, 3), (2, 9), (3, 6), (2, 10), (11, 3), (2, 12), (3, 8)]
)
def test_add_neg_sub_match_digit_oracle_across_old_table_threshold(p, t):
    # orders 343 .. 6561 straddle 512, where a dense add table used to end
    f = field_make(p, t)
    rng = random.Random(p ** t)
    pairs = [(rng.randrange(f.order), rng.randrange(f.order)) for _ in range(2000)]
    pairs += [(0, a) for a in f.elements()] + [(a, 0) for a in f.elements()]
    _check_add_neg_sub(f, pairs)
    for a in f.elements():
        assert f.add(a, f.neg(a)) == 0


@pytest.mark.parametrize("p,t", [(3, 2), (5, 2), (3, 3), (7, 2)])
def test_odd_add_is_digitwise_on_every_pair(p, t):
    # every pair, a + (-a) = 0 among them
    f = field_make(p, t)
    for a, b in itertools.product(f.elements(), repeat=2):
        assert f.add(a, b) == _digit_sum(p, t, a, b, 1)


@pytest.mark.parametrize("p,t", [(3, 2), (3, 6)])
def test_field_survives_pickling(p, t):
    f = field_make(p, t)
    g = pickle.loads(pickle.dumps(f))
    assert g == f
    rng = random.Random(t)
    for a, b in [(rng.randrange(f.order), rng.randrange(f.order)) for _ in range(500)]:
        assert (g.add(a, b), g.mul(a, b)) == (f.add(a, b), f.mul(a, b))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_add_neg_sub_match_digit_oracle_property(data):
    p = data.draw(st.sampled_from([2, 3, 5, 7, 11, 13]), label="p")
    t_max = 1
    while p ** (t_max + 1) <= 4096:
        t_max += 1
    t = data.draw(st.integers(1, t_max), label="t")
    f = field_make(p, t)
    elem = st.integers(0, f.order - 1)
    a, b = data.draw(elem, label="a"), data.draw(elem, label="b")
    _check_add_neg_sub(f, [(a, b), (b, a), (a, a), (0, a), (a, 0)])
    assert f.add(a, f.neg(a)) == 0


@pytest.mark.parametrize("p,dim", [(2, 3), (3, 4), (5, 3), (2, 13), (3, 9)])
def test_lane_span_visits_each_combination_once_span_prefix_first(p, dim):
    # dim 13 at p = 2 and dim 9 at p = 3 run past one 4096-step block
    w = _lane_width(p)
    rows = [1 << (i * w) for i in range(dim)]
    walk = list(_gray_span(p, rows, _lane_adder(p, dim)))
    assert walk[0] == 0
    assert len(walk) == len(set(walk)) == p ** dim
    assert set(walk) == {
        _lane_pack(digs, w) for digs in itertools.product(range(p), repeat=dim)
    }
    for s in range(dim + 1):
        # the first p^s elements are exactly the span of the first s rows
        assert all(x >> (s * w) == 0 for x in walk[: p ** s])


def test_field_cache_returns_same_object():
    assert field_make(2, 3) is field_make(2, 3)


def test_multiplicative_group_is_cyclic():
    for p, t in [(2, 2), (2, 3), (3, 2)]:
        f = field_make(p, t)
        found = False
        for g in range(2, f.order):
            powers = {1}
            cur = g
            while cur != 1:
                powers.add(cur)
                cur = f.mul(cur, g)
            if len(powers) == f.order - 1:
                found = True
                break
        assert found


def test_all_products_agree_with_digit_polynomials():
    f = field_make(2, 3)
    for a, b in itertools.product(f.elements(), repeat=2):
        want = oracles.poly_mul_mod(2, list(f.modulus), list(f.digits(a)), list(f.digits(b)))
        assert f.digits(f.mul(a, b)) == tuple(want)


def test_linear_modulus_gives_the_one_prime_field():
    for p in (2, 3, 5, 7):
        for a in range(p):
            assert field_make(p, 1, (a, 1)) is field_make(p, 1)


@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7]), data=st.data())
def test_rows_sharing_no_nonzero_lane_dot_to_zero(p, data):
    # each lane belongs to x, to y or to neither, so no lane is nonzero in both;
    # the lane flags are exact, and the dot of such rows is 0
    n = data.draw(st.integers(1, 16), label="lanes")
    owner = data.draw(st.lists(st.sampled_from("xy-"), min_size=n, max_size=n), label="owner")
    digit = st.integers(0, p - 1)
    x = [data.draw(digit) if o == "x" else 0 for o in owner]
    y = [data.draw(digit) if o == "y" else 0 for o in owner]
    w = _lane_width(p)
    ones = _lane_pack([1] * n, w)
    for v in (x, y):
        assert _lane_flags(p, _lane_pack(v, w), ones) == _lane_pack([int(d != 0) for d in v], w)
    assert not _lane_flags(p, _lane_pack(x, w), ones) & _lane_flags(p, _lane_pack(y, w), ones)
    assert _lane_dot(p, _lane_pack(x, w), _lane_pack(y, w)) == 0


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_trace_lanes_is_the_lane_packed_trace_row(data):
    # the lane-packed trace row of a lane-packed vector, zero coordinates
    # included, against the trace rows of its tuple
    p = data.draw(st.sampled_from([2, 3, 5]), label="p")
    f = field_make(p, data.draw(st.integers(1, 3), label="r"))
    n = data.draw(st.integers(1, 6), label="n")
    entry = st.one_of(st.just(0), st.integers(0, f.order - 1))
    vec = tuple(data.draw(st.lists(entry, min_size=n, max_size=n), label="vec"))
    assert _trace_lanes(f, _vec_lanes(f, vec)) == _lane_pack(f.trace_rows(vec), _lane_width(p))


def test_a_bare_and_is_no_lane_test_at_odd_p():
    # at p = 3 the lane digits 1 (0b001) and 2 (0b010) share no bit, yet
    # their product is 2: only the lane flags see the common lane
    w = _lane_width(3)
    ones = _lane_pack([1, 1], w)
    row, y = _lane_pack([0, 1], w), _lane_pack([0, 2], w)
    assert row & y == 0 and _lane_dot(3, row, y) == 2
    assert _lane_flags(3, row, ones) & _lane_flags(3, y, ones) == 1 << w
