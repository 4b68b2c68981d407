"""Functionals f_lam on a code, the theta lift, and the joint kernel."""

import itertools

import pytest

from qbh import linalg
from qbh.bh import bh_verify
from qbh.errors import (
    DegenerateD,
    DimensionMismatch,
    NotACodeword,
)
from qbh.gf import field_make
from qbh.lincode import code_make, contains, dual, iter_codewords
from qbh.functional import (
    big_f_kernel,
    f_eval,
    project_zero_coordinates,
    table_make,
    table_matrix,
    validate_d,
)

import helpers
import oracles

F2 = field_make(2, 1)
F3 = field_make(3, 1)
F4 = field_make(2, 2)
F8 = field_make(2, 3)
F5 = field_make(5, 1)
F9 = field_make(3, 2)


def shor_table():
    c = code_make(F2, [(1, 1, 1)])
    return c, table_make(c, F2)


def qutrit_table():
    c = code_make(F3, [(1, 1, 1)])
    return c, table_make(c, F3)


def test_table_make_validates_prime():
    c = code_make(F2, [(1, 1, 1)])
    with pytest.raises(DimensionMismatch):
        table_make(c, F3)


def test_table_make_validates_degree():
    c = code_make(F4, [(1, 0, 2), (0, 1, 3)])  # k = 2 over F_4 needs degree 4
    with pytest.raises(DimensionMismatch):
        table_make(c, F8)
    table_make(c, field_make(2, 4))


def test_f_zero_is_identically_zero():
    c, t = shor_table()
    for w in iter_codewords(c):
        assert f_eval(t, 0, w) == 0


def test_f_binary_repetition():
    c, t = shor_table()
    value = f_eval(t, 1, (1, 1, 1))
    assert type(value) is int and value == 1
    assert f_eval(t, 1, (0, 0, 0)) == 0


def test_f_ternary_repetition_is_scalar_product():
    c, t = qutrit_table()
    for lam in range(3):
        for s in range(3):
            w = tuple(F3.mul(s, 1) for _ in range(3))
            assert f_eval(t, lam, w) == (lam * s) % 3


def test_f_rejects_non_codeword():
    _, t = shor_table()
    with pytest.raises(NotACodeword):
        f_eval(t, 1, (1, 0, 0))


def test_functionals_are_additive_in_lambda():
    c = code_make(F4, [(1, 0, 2), (0, 1, 3)])
    t = table_make(c, field_make(2, 4))
    K = t.scalars
    words = tuple(iter_codewords(c))
    for lam in K.elements():
        for mu in K.elements():
            s = K.add(lam, mu)
            for w in words:
                assert t.f_int(s, w) == (t.f_int(lam, w) + t.f_int(mu, w)) % 2


def test_functionals_distinct_per_scalar():
    c = code_make(F4, [(1, 0, 2), (0, 1, 3)])
    t = table_make(c, field_make(2, 4))
    words = tuple(iter_codewords(c))
    seen = {tuple(t.f_int(lam, w) for w in words) for lam in t.scalars.elements()}
    assert len(seen) == t.scalars.order


def test_table_matrix_reproduces_ternary_example():
    _, t = qutrit_table()
    m = table_matrix(t)
    assert m.rows == ((0, 0, 0), (0, 1, 2), (0, 2, 1))
    assert bh_verify(m)


def test_table_matrix_binary_repetition():
    c = code_make(F2, [(1, 1)])
    t = table_make(c, F2)
    assert table_matrix(t).rows == ((0, 0), (0, 1))


@pytest.mark.parametrize("base,rows,kdeg", [
    (F2, [(1, 1, 1)], 1),
    (F2, [(1, 1, 0, 1), (0, 1, 1, 1), (0, 0, 1, 1)], 3),
    (F4, [(1, 0, 2), (0, 1, 3)], 4),
    (F3, [(1, 0, 1, 2), (0, 1, 2, 2)], 2),
])
def test_table_matrix_is_butson(base, rows, kdeg):
    c = code_make(base, rows)
    t = table_make(c, field_make(base.p, kdeg))
    m = table_matrix(t)
    assert bh_verify(m)
    # messages come in lexicographic order: each packs to its own index
    assert m.col_labels == tuple(range(c.size))


def test_theta_binary_repetition():
    _, t = shor_table()
    assert t.theta(0) == (0, 0, 0)
    assert t.theta(1) == (0, 0, 1)


def test_theta_ternary_repetition():
    _, t = qutrit_table()
    assert t.theta(1) == (0, 0, 1)


def test_theta_solves_the_trace_system():
    c = code_make(F4, [(1, 0, 2), (0, 1, 3)])
    t = table_make(c, field_make(2, 4))
    for lam in t.scalars.elements():
        x = t.theta(lam)
        for w in iter_codewords(c):
            acc = 0
            for wi, xi in zip(w, x):
                if wi and xi:
                    acc += F4.trace_int(F4.mul(wi, xi))
            assert acc % 2 == t.f_int(lam, w)


def assert_theta_lexicographically_minimal(c, scalars):
    t = table_make(c, scalars)
    cperp = tuple(iter_codewords(dual(c)))
    for lam in scalars.elements():
        x = t.theta(lam)
        coset = sorted(tuple(c.field.add(a, b) for a, b in zip(x, d)) for d in cperp)
        assert x == coset[0]


def test_theta_is_lexicographically_minimal_in_its_coset():
    assert_theta_lexicographically_minimal(code_make(F3, [(1, 0, 1), (0, 1, 2)]), F9)


@pytest.mark.parametrize("base,rows,kdeg", [
    (F4, [(1, 2, 3, 1)], 2),
    (F4, [(1, 0, 2, 3), (0, 1, 1, 2)], 4),
    (F5, [(1, 0, 2, 3), (0, 1, 4, 1)], 2),
])
def test_theta_is_lexicographically_minimal_beyond_ternary(base, rows, kdeg):
    assert_theta_lexicographically_minimal(code_make(base, rows), field_make(base.p, kdeg))


@pytest.mark.parametrize("base,rows,kdeg", [
    (F4, [(1, 0, 2), (0, 1, 3)], 4),
    (F3, [(1, 0, 1), (0, 1, 2)], 2),
])
def test_theta_is_exactly_additive(base, rows, kdeg):
    t = table_make(code_make(base, rows), field_make(base.p, kdeg))
    K = t.scalars
    for lam in K.elements():
        for mu in K.elements():
            want = tuple(base.add(a, b) for a, b in zip(t.theta(lam), t.theta(mu)))
            assert t.theta(K.add(lam, mu)) == want


def test_theta_and_lambda_of_make_no_linalg_call_after_table_make(monkeypatch):
    c = code_make(F4, [(1, 0, 2), (0, 1, 3)])
    t = table_make(c, field_make(2, 4))
    cperp = set(iter_codewords(dual(c)))

    def refuse(*args, **kwargs):
        raise AssertionError("linalg called after table_make")

    for name in ("Echelon", "kernel", "solve"):
        monkeypatch.setattr(linalg, name, refuse)
    for lam in t.scalars.elements():
        assert t.lambda_of(t.theta(lam)) == lam
    for x in itertools.product(F4.elements(), repeat=c.n):
        assert tuple(F4.sub(a, b) for a, b in zip(x, t.theta(t.lambda_of(x)))) in cperp
    for msg in itertools.product(F4.elements(), repeat=c.k):
        assert t.unpack_message(t.pack_message(msg)) == msg


def test_theta_additive_modulo_dual():
    c = code_make(F4, [(1, 0, 2), (0, 1, 3)])
    t = table_make(c, field_make(2, 4))
    dual_c = dual(c)
    K = t.scalars
    for lam in list(K.elements())[:6]:
        for mu in list(K.elements())[-6:]:
            x = t.theta(K.add(lam, mu))
            y = tuple(F4.add(a, b) for a, b in zip(t.theta(lam), t.theta(mu)))
            diff = tuple(F4.sub(a, b) for a, b in zip(x, y))
            assert contains(dual_c, diff)


def test_lambda_of_inverts_theta():
    c = code_make(F3, [(1, 0, 1), (0, 1, 2)])
    t = table_make(c, F9)
    for lam in t.scalars.elements():
        assert t.lambda_of(t.theta(lam)) == lam


def test_lambda_of_is_constant_on_dual_cosets():
    _, t = shor_table()
    dual_words = tuple(iter_codewords(dual(t.code)))
    for x in itertools.product(range(2), repeat=3):
        lam = t.lambda_of(x)
        for d in dual_words:
            y = tuple(F2.add(a, b) for a, b in zip(x, d))
            assert t.lambda_of(y) == lam


def kernel_span_contains(field, basis, target):
    """F_p-membership of a flattened m-tuple in the kernel span."""
    prime = field_make(field.p, 1)
    def flat(tup):
        out = []
        for block in tup:
            for x in block:
                out.extend(field.digits(x))
        return tuple(out)
    rows = [flat(b) for b in basis]
    return len(oracles.rref(prime, rows)[0]) == len(oracles.rref(prime, rows + [flat(target)])[0])


def test_big_f_kernel_shor():
    c, t = shor_table()
    d = code_make(F2, [(1, 1, 1)])
    basis = big_f_kernel(t, d)
    assert len(basis) == 2
    ones = (1, 1, 1)
    zero = (0, 0, 0)
    assert kernel_span_contains(F2, basis, (ones, ones, zero))
    assert kernel_span_contains(F2, basis, (zero, ones, ones))
    assert not kernel_span_contains(F2, basis, (ones, zero, zero))


def test_big_f_kernel_ternary():
    c, t = qutrit_table()
    d = code_make(F3, [(1, 1, 1)])
    basis = big_f_kernel(t, d)
    assert len(basis) == 2
    one, two, zero = (1, 1, 1), (2, 2, 2), (0, 0, 0)
    assert kernel_span_contains(F3, basis, (one, two, zero))
    assert kernel_span_contains(F3, basis, (zero, one, two))
    assert not kernel_span_contains(F3, basis, (one, zero, zero))


def test_big_f_kernel_full_d_has_dimension_zero():
    c, t = shor_table()
    # m = s: D of full support and dimension equal to its length
    d = code_make(F2, [(1,)])
    assert big_f_kernel(t, d) == []


def test_big_f_kernel_nullity_on_family_sample():
    for c_code, d_code, meta in helpers.family_instances()[:8]:
        t = table_make(c_code, d_code.field)
        basis = big_f_kernel(t, d_code)
        want = meta["r"] * meta["k"] * (meta["m"] - meta["s"])
        assert len(basis) == want
        # every basis tuple really kills every D-functional
        for tup in basis:
            for lam_word in itertools.islice(iter_codewords(d_code), 9):
                acc = 0
                for lam, block in zip(lam_word, tup):
                    acc += t.f_int(lam, block)
                assert acc % meta["p"] == 0


def test_big_f_kernel_equals_the_trace_system_kernel():
    for c_code, d_code, _ in helpers.family_instances():
        t = table_make(c_code, d_code.field)
        assert big_f_kernel(t, d_code) == oracles.trace_system_kernel(t, d_code)


def test_unpack_message_inverts_pack_message_beyond_prime_inner_fields():
    seen = set()
    for c_code, d_code, meta in helpers.family_instances():
        if meta["r"] != 2 or c_code in seen:
            continue
        seen.add(c_code)
        t = table_make(c_code, d_code.field)
        for msg in itertools.product(c_code.field.elements(), repeat=c_code.k):
            assert t.unpack_message(t.pack_message(msg)) == msg
        for y in t.scalars.elements():
            assert t.pack_message(t.unpack_message(y)) == y
    assert {c.field.order for c in seen} == {4, 9}


def test_validate_d_rejects_zero_and_full_dimension():
    with pytest.raises(DegenerateD):
        validate_d(dual(code_make(F8, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])))
    full = code_make(F8, [(1, 0), (0, 1)])
    with pytest.raises(DegenerateD):
        validate_d(full)


def test_validate_d_rejects_dead_coordinate():
    d = code_make(F8, [(1, 0)])
    with pytest.raises(DegenerateD):
        validate_d(d)


def test_validate_d_accepts_repetition():
    validate_d(code_make(F8, [(1, 1, 1)]))


def test_project_zero_coordinates():
    d = code_make(F8, [(1, 0, 1)])
    p = project_zero_coordinates(d)
    assert p.n == 2
    assert set(iter_codewords(p)) == {(x, x) for x in F8.elements()}


def test_project_zero_coordinates_returns_d_itself_when_no_coordinate_is_zero():
    d = code_make(F4, [(1, 1), (0, 1)])
    assert project_zero_coordinates(d) is d


def test_big_f_kernel_rejects_d_over_another_field():
    c, d = helpers.shor_pair()
    with pytest.raises(DimensionMismatch, match="outer code is not defined over the scalar field"):
        big_f_kernel(table_make(c, d.field), code_make(F3, [(1, 1)]))
