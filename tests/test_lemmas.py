"""Structural identities behind the construction, checked exhaustively
at desk scale.

Everything here runs over code instances with q^n <= 256 so that full
enumeration of vectors, functionals, and cosets stays cheap.
"""

import itertools

import pytest

from qbh.gf import field_make
from qbh.lincode import code_make, contains, dual, iter_codewords
from qbh.functional import table_make
from qbh.pauli import z_op
from qbh.statevec import apply, big_phi_from_matrix, phi, state_make
from qbh.bh import BhMatrix, kron_fourier, row_equivalence

from oracles import span_equal, tensor

F2 = field_make(2, 1)
F3 = field_make(3, 1)
F4 = field_make(2, 2)
F8 = field_make(2, 3)
F9 = field_make(3, 2)


def small_instances():
    """(code, table) pairs with q^n <= 256, covering prime and extension
    base fields."""
    out = []
    for field, rows, kdeg in (
        (F2, [(1, 1, 1)], 1),
        (F2, [(1, 0, 1), (0, 1, 1)], 2),
        (F2, [(1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1)], 3),
        (F3, [(1, 0, 1), (0, 1, 2)], 2),
        (F4, [(1, 0, 2), (0, 1, 3)], 4),
        (F8, [(1, 7)], 3),
        (F9, [(1, 2)], 2),
    ):
        code = code_make(field, rows)
        table = table_make(code, field_make(field.p, kdeg))
        out.append((code, table))
    return out


def all_vectors(field, n):
    return itertools.product(range(field.order), repeat=n)


def rot_state(v, e):
    return state_make(v.field, v.length,
                      {lbl: amp.rot(e) for lbl, amp in v.amps.items()},
                      v.scale)


# --- the functional family is an additive bijection ------------------------


@pytest.mark.parametrize("idx", range(7))
def test_functionals_distinct_and_complete(idx):
    code, table = small_instances()[idx]
    K = table.scalars
    words = tuple(iter_codewords(code))
    seen = set()
    for lam in range(K.order):
        seen.add(tuple(table.f_int(lam, w) for w in words))
    assert len(seen) == K.order


@pytest.mark.parametrize("idx", range(7))
def test_functionals_additive(idx):
    code, table = small_instances()[idx]
    K = table.scalars
    words = tuple(iter_codewords(code))
    lams = range(K.order) if K.order <= 16 else range(0, K.order, 3)
    for lam in lams:
        for mu in lams:
            both = K.add(lam, mu)
            for w in words:
                want = (table.f_int(lam, w) + table.f_int(mu, w)) % K.p
                assert table.f_int(both, w) == want


# --- Z shifts walk the functional index ------------------------------------


@pytest.mark.parametrize("idx", range(7))
def test_z_action_shifts_lambda(idx):
    code, table = small_instances()[idx]
    if code.field.order ** code.n > 128:
        pytest.skip("vector space too large for the exhaustive sweep")
    K = table.scalars
    f = code.field
    lams = (0, 1, K.order - 1)
    for u in all_vectors(f, code.n):
        shift = table.lambda_of(u)
        g = z_op(f, u)
        for lam in lams:
            got = apply(g, phi(code, table, lam))
            assert got == phi(code, table, K.add(lam, shift))


@pytest.mark.parametrize("idx", range(7))
def test_z_fixes_phi_iff_dual(idx):
    code, table = small_instances()[idx]
    if code.field.order ** code.n > 128:
        pytest.skip("vector space too large for the exhaustive sweep")
    f = code.field
    dual_c = dual(code)
    state = phi(code, table, 1)
    for u in all_vectors(f, code.n):
        fixed = apply(z_op(f, u), state) == state
        assert fixed == contains(dual_c, u)


# --- the coset structure of lambda_of ---------------------------------------


@pytest.mark.parametrize("idx", range(7))
def test_lambda_of_kernel_is_the_dual(idx):
    code, table = small_instances()[idx]
    if code.field.order ** code.n > 128:
        pytest.skip("vector space too large for the exhaustive sweep")
    f = code.field
    K = table.scalars
    dual_c = dual(code)
    for x in all_vectors(f, code.n):
        lam = table.lambda_of(x)
        # the canonical representative lands in the same dual coset
        rep = table.theta(lam)
        diff = tuple(f.add(a, f.neg(b)) for a, b in zip(rep, x))
        assert contains(dual_c, diff)
        assert (lam == 0) == contains(dual_c, x)
    # additivity makes "same lambda" the same as "same dual coset"
    sample = list(itertools.islice(all_vectors(f, code.n), 0, None, 3))
    for x in sample[:12]:
        for y in sample[:12]:
            s = tuple(f.add(a, b) for a, b in zip(x, y))
            assert table.lambda_of(s) == K.add(table.lambda_of(x), table.lambda_of(y))


@pytest.mark.parametrize("idx", range(7))
def test_trace_pairing_matches_the_functional(idx):
    code, table = small_instances()[idx]
    if code.field.order ** code.n > 128:
        pytest.skip("vector space too large for the exhaustive sweep")
    f = code.field
    words = tuple(iter_codewords(code))
    for x in all_vectors(f, code.n):
        lam = table.lambda_of(x)
        for c in words:
            acc = 0
            for a, b in zip(c, x):
                acc = f.add(acc, f.mul(a, b))
            assert f.trace_int(acc) == table.f_int(lam, c)


# --- tensor factors only see the total phase shift --------------------------


@pytest.mark.parametrize("field,rows,kdeg", [
    (F2, [(1, 1, 1)], 1),
    (F3, [(1, 1, 1)], 1),
])
def test_tensor_shift_cancellation(field, rows, kdeg):
    code = code_make(field, rows)
    table = table_make(code, field_make(field.p, kdeg))
    v1 = phi(code, table, 1)
    v2 = phi(code, table, 0)
    base = tensor(v1, v2)
    order = 4 if field.p == 2 else field.p
    for b1 in range(order):
        for b2 in range(order):
            shifted = tensor(rot_state(v1, b1), rot_state(v2, b2))
            assert (shifted == base) == ((b1 + b2) % order == 0)


def test_tensor_shift_recovery():
    code = code_make(F3, [(1, 1, 1)])
    table = table_make(code, F3)
    v = phi(code, table, 2)
    w = tensor(rot_state(v, 1), rot_state(v, 1))
    hits = [
        (b1, b2)
        for b1 in range(3)
        for b2 in range(3)
        if tensor(rot_state(v, b1), rot_state(v, b2)) == w
    ]
    # the factor shifts are only determined up to total degree
    assert hits == [(0, 2), (1, 1), (2, 0)]
    assert all((b1 + b2) % 3 == 2 for b1, b2 in hits)


# --- span comparison detects row equivalence and nothing weaker -------------

TERNARY_C = ((1, 0, 1), (0, 1, 2))
PERM9 = (4, 0, 7, 2, 8, 1, 5, 3, 6)
SHIFTS9 = (1, 0, 2, 2, 0, 1, 0, 1, 2)


def _scrambled_rows(base):
    rows = [None] * base.order
    for i, (src, sh) in enumerate(zip(PERM9, SHIFTS9)):
        rows[i] = tuple((e + sh) % base.p for e in base.rows[src])
    return rows


def test_equivalent_matrices_give_the_same_span():
    code = code_make(F3, TERNARY_C)
    base = kron_fourier(3, 2)
    other = BhMatrix(9, 3, _scrambled_rows(base), col_labels=base.col_labels)
    assert row_equivalence(base, other) is not None
    span_a = [big_phi_from_matrix(base, code, (d, d)) for d in range(9)]
    span_b = [big_phi_from_matrix(other, code, (d, d)) for d in range(9)]
    assert span_equal(span_a, span_b)


def test_inequivalent_matrices_split_the_span():
    code = code_make(F3, TERNARY_C)
    base = kron_fourier(3, 2)
    rows = [list(r) for r in base.rows]
    for r in rows:
        r[1], r[3] = r[3], r[1]
    other = BhMatrix(9, 3, [tuple(r) for r in rows], col_labels=base.col_labels)
    assert row_equivalence(base, other) is None
    span_a = [big_phi_from_matrix(base, code, (d, d)) for d in range(9)]
    span_b = [big_phi_from_matrix(other, code, (d, d)) for d in range(9)]
    assert not span_equal(span_a, span_b)


def test_span_agreement_at_order_four():
    code = code_make(F2, [(1, 0, 1), (0, 1, 1)])
    base = kron_fourier(2, 2)
    rows = [base.rows[i] for i in (2, 3, 0, 1)]
    rows = [tuple((e + s) % 2 for e in row) for row, s in zip(rows, (1, 0, 1, 0))]
    other = BhMatrix(4, 2, rows, col_labels=base.col_labels)
    assert row_equivalence(base, other) is not None
    span_a = [big_phi_from_matrix(base, code, (d, d)) for d in range(4)]
    span_b = [big_phi_from_matrix(other, code, (d, d)) for d in range(4)]
    assert span_equal(span_a, span_b)
