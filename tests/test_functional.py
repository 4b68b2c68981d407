"""Functionals f_lam on a code, the theta lift, and the joint kernel."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbh import functional, linalg, lincode
from qbh.bh import bh_verify
from qbh.errors import (
    DegenerateD,
    DimensionMismatch,
    LengthMismatch,
    NotACodeword,
)
from qbh.gf import _lanes_vec, _vec_lanes, field_make
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


def test_table_repr_names_the_code_and_the_scalars():
    _, t = qutrit_table()
    assert repr(t) == "functional table for [3,1] code over GF(3) over GF(3)"


def _zero_code():
    """The zero code of length 3 over F2, the dual of the full space: ``code_make`` refuses a zero span."""
    zero = dual(code_make(F2, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
    assert zero.k == 0
    return zero


def test_table_make_refuses_the_zero_code():
    with pytest.raises(DimensionMismatch, match="positive dimension"):
        table_make(_zero_code(), F2)


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


def binary_gf4_table():
    """C = <101, 011> over F2 with K = GF(4)."""
    c = code_make(F2, [(1, 0, 1), (0, 1, 1)])
    return table_make(c, F4)


@pytest.mark.parametrize("call, error", [
    (lambda t: t.theta(4), ValueError),
    (lambda t: t.theta(-1), ValueError),
    (lambda t: t.theta(99), ValueError),
    (lambda t: t.lambda_of((1, 0, 2)), ValueError),
    (lambda t: t.lambda_of((1, 0)), LengthMismatch),
    (lambda t: t.pack_message((1,)), LengthMismatch),
    (lambda t: t.pack_message((1, 2)), ValueError),
    (lambda t: t.unpack_message(9), ValueError),
    (lambda t: f_eval(t, -1, (1, 0, 1)), ValueError),
    (lambda t: f_eval(t, 4, (1, 0, 1)), ValueError),
], ids=["theta-4", "theta-minus-1", "theta-99", "lambda_of-entry", "lambda_of-length",
        "pack_message-length", "pack_message-entry", "unpack_message-9", "f_eval-minus-1", "f_eval-4"])
def test_table_maps_refuse_inputs_that_are_not_theirs(call, error):
    # each of these once returned an answer (or, f_eval at 4, a bare IndexError):
    # theta(4) = (0,0,0), lambda_of((1,0)) = 3, unpack_message(9) = (1,0), f_eval(t, -1, 101) = 1
    with pytest.raises(error):
        call(binary_gf4_table())


def test_table_maps_accept_their_whole_domains():
    t = binary_gf4_table()
    assert [t.lambda_of(t.theta(lam)) for lam in range(4)] == [0, 1, 2, 3]
    assert [t.pack_message(t.unpack_message(y)) for y in range(4)] == [0, 1, 2, 3]
    assert {f_eval(t, lam, (1, 0, 1)) for lam in range(4)} == {0, 1}


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


def test_theta_lambda_of_and_unpack_message_each_eliminate_once_on_first_use(monkeypatch):
    c = code_make(F4, [(1, 0, 2), (0, 1, 3)])
    t = table_make(c, field_make(2, 4))
    cperp = set(iter_codewords(dual(c)))
    made = helpers.counted_echelons(monkeypatch)
    # each first call solves its own trace system, k r = 4 rows, once
    for call, arg in ((t.theta, 1), (t.lambda_of, (1, 0, 0)), (t.unpack_message, 1)):
        call(arg)
        assert made == [4]
        made.clear()
    for lam in t.scalars.elements():
        assert t.lambda_of(t.theta(lam)) == lam
    for x in itertools.product(F4.elements(), repeat=c.n):
        assert tuple(F4.add(a, F4.neg(b)) for a, b in zip(x, t.theta(t.lambda_of(x)))) in cperp
    for msg in itertools.product(F4.elements(), repeat=c.k):
        assert t.unpack_message(t.pack_message(msg)) == msg
    assert made == []


@pytest.mark.parametrize("base,rows,K", [
    (F4, [(1, 0, 2), (0, 1, 3)], field_make(2, 4)),
    (F3, [(1, 2, 0), (0, 1, 1)], F9),
])
def test_table_make_eliminates_only_the_pairing_rows(monkeypatch, base, rows, K):
    # construction keeps P and C^perp: one kernel of the k r pairing rows,
    # through dual(C); theta, lambda_of and P^-1 wait for their first call
    c = code_make(base, rows)
    want, real, duals = dual(c), lincode.dual, []

    def counted_dual(code):
        duals.append(code)
        return real(code)

    monkeypatch.setattr(functional, "dual", counted_dual)
    made = helpers.counted_echelons(monkeypatch)
    t = table_make(c, K)
    assert made == [K.degree] and duals == [c]
    assert t.dual_code == want and t.dual_code.lanes == want.lanes


def test_theta_additive_modulo_dual():
    c = code_make(F4, [(1, 0, 2), (0, 1, 3)])
    t = table_make(c, field_make(2, 4))
    dual_c = dual(c)
    K = t.scalars
    for lam in list(K.elements())[:6]:
        for mu in list(K.elements())[-6:]:
            x = t.theta(K.add(lam, mu))
            y = tuple(F4.add(a, b) for a, b in zip(t.theta(lam), t.theta(mu)))
            diff = tuple(F4.add(a, F4.neg(b)) for a, b in zip(x, y))
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


# F_q < K as ((p, r), deg K): F2 < GF(4), F2 < GF(8), GF(4) < GF(16),
# F3 < GF(9) and GF(9) < GF(81)
TOWERS = [((2, 1), 2), ((2, 1), 3), ((2, 2), 4), ((3, 1), 2), ((3, 2), 4)]


@st.composite
def tower_codes(draw):
    """(C, K): a random code of dimension k = [K : F_q] and length k to
    k + 3 over F_q, generated by rows that are the identity at k random
    columns, for a tower of ``TOWERS``."""
    (p, r), degree = draw(st.sampled_from(TOWERS))
    q, k = field_make(p, r), degree // r
    n = draw(st.integers(k, k + 3))
    pivots = draw(st.permutations(range(n)))[:k]
    rows = [[draw(st.integers(0, q.order - 1)) for _ in range(n)] for _ in range(k)]
    for i, row in enumerate(rows):
        for i2, j in enumerate(pivots):
            row[j] = int(i == i2)
    return code_make(q, rows), field_make(p, degree)


@settings(max_examples=80, deadline=None)
@given(tower_codes(), st.data())
def test_table_maps_equal_their_field_op_references(case, data):
    # P against sum_j embed(m_j) g^j; P^-1, theta and lambda_of against
    # the trace systems that define them, on P's reference; and every map
    # against the digit-by-digit sum of its tuple images of the units
    code, K = case
    t = table_make(code, K)
    f, p, n, k = code.field, K.p, code.n, code.k
    pivots = [next(j for j, x in enumerate(row) if x) for row in code.gen]
    basis = oracles.fp_basis(code)

    def f_ref(lam, c):
        return K.trace_int(K.mul(lam, oracles.pack_message(t, [c[j] for j in pivots])))

    def rho(x, c):
        return sum(f.trace_int(f.mul(a, b)) for a, b in zip(c, x)) % p

    def units(field, length):
        return [(0,) * j + (field.p ** d,) + (0,) * (length - 1 - j)
                for j in range(length) for d in range(field.degree)]

    def vectors(field, length):
        return data.draw(st.lists(st.tuples(*[st.integers(0, field.order - 1)] * length),
                                  min_size=1, max_size=4))

    scalars = [p ** u for u in range(K.degree)] + [x for (x,) in vectors(K, 1)]
    messages = units(f, k) + vectors(f, k)
    words = units(f, n) + vectors(f, n)
    for msg in messages:
        assert t.pack_message(msg) == oracles.pack_message(t, msg)
    dual_pivots = [next(j for j, x in enumerate(row) if x) for row in oracles.nullspace(f, code.gen, n)]
    images = {name: [call(p ** u) for u in range(K.degree)]
              for name, call in (("unpack", t.unpack_message), ("theta", t.theta))}
    for y in scalars:
        msg = t.unpack_message(y)
        assert oracles.pack_message(t, msg) == y
        assert msg == oracles.digit_sum(f, K.digits(y), images["unpack"], k)
        x = t.theta(y)
        assert all(rho(x, c) == f_ref(y, c) for c in basis)
        assert all(x[j] == 0 for j in dual_pivots)  # the least of its coset of C^perp
        assert x == oracles.digit_sum(f, K.digits(y), images["theta"], n)
    lambdas = [(t.lambda_of(x),) for x in units(f, n)]
    for x in words:
        lam = t.lambda_of(x)
        assert all(f_ref(lam, c) == rho(x, c) for c in basis)
        assert lam == oracles.digit_sum(K, f.vec_digits(x), lambdas, 1)[0]


@settings(max_examples=80, deadline=None)
@given(tower_codes())
def test_code_lanes_are_the_echelon_of_the_reference_fp_basis(case):
    code, _ = case
    for c in (code, dual(code)):
        f = c.field
        rows = [_vec_lanes(f, row) for row in oracles.fp_basis(c)]
        assert list(c.lanes) == linalg.Echelon(f.p, c.n * f.degree, rows).rows == rows
        assert [_lanes_vec(f, c.n, x) for x in c.lanes] == oracles.fp_basis(c)


def kernel_span_contains(field, basis, target):
    """F_p-membership of a flattened m-tuple in the span of lane-packed kernel rows."""
    prime = field_make(field.p, 1)
    flat = tuple(itertools.chain.from_iterable(target))
    rows = [field.vec_digits(_lanes_vec(field, len(flat), x)) for x in basis]
    rank = len(oracles.rref(prime, rows)[0])
    return rank == len(oracles.rref(prime, rows + [field.vec_digits(flat)])[0])


def blocks(table, m, x):
    """The m-tuple of codewords of C that a lane-packed X row of ``big_f_kernel`` lays end to end."""
    n = table.code.n
    vec = _lanes_vec(table.code.field, n * m, x)
    return tuple(vec[i * n:(i + 1) * n] for i in range(m))


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
        for tup in (blocks(t, d_code.n, x) for x in basis):
            for lam_word in itertools.islice(iter_codewords(d_code), 9):
                acc = 0
                for lam, block in zip(lam_word, tup):
                    acc += t.f_int(lam, block)
                assert acc % meta["p"] == 0


def test_big_f_kernel_equals_the_trace_system_kernel():
    for c_code, d_code, _ in helpers.family_instances():
        t = table_make(c_code, d_code.field)
        got = [blocks(t, d_code.n, x) for x in big_f_kernel(t, d_code)]
        assert got == oracles.trace_system_kernel(t, d_code)


@st.composite
def outer_codes(draw, K):
    """An [m, s] code over K, 1 <= s < m <= 3, generated by [I_s | A] with A drawn over K."""
    m = draw(st.integers(2, 3))
    s = draw(st.integers(1, m - 1))
    return code_make(K, [tuple(int(i == j) for j in range(s))
                         + tuple(draw(st.integers(0, K.order - 1)) for _ in range(m - s))
                         for i in range(s)])


@settings(max_examples=60, deadline=None)
@given(tower_codes(), st.data())
def test_big_f_kernel_rows_equal_the_trace_system_kernel_on_random_pairs(case, data):
    # the towers include odd p and r = 2: F3 < GF(9), GF(4) < GF(16), GF(9) < GF(81)
    code, K = case
    d_code = data.draw(outer_codes(K))
    t = table_make(code, K)
    got = [blocks(t, d_code.n, x) for x in big_f_kernel(t, d_code)]
    assert got == oracles.trace_system_kernel(t, d_code)


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


def test_project_zero_coordinates_refuses_the_zero_code():
    with pytest.raises(DegenerateD, match="outer code is zero"):
        project_zero_coordinates(_zero_code())


def test_project_zero_coordinates_returns_d_itself_when_no_coordinate_is_zero():
    d = code_make(F4, [(1, 1), (0, 1)])
    assert project_zero_coordinates(d) is d


def test_big_f_kernel_rejects_d_over_another_field():
    c, d = helpers.shor_pair()
    with pytest.raises(DimensionMismatch, match="outer code is not defined over the scalar field"):
        big_f_kernel(table_make(c, d.field), code_make(F3, [(1, 1)]))
