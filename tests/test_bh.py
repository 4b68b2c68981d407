"""Butson-Hadamard matrices in exponent form."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbh.bh import (
    BhMatrix,
    BilinearForm,
    bh_from_text,
    bh_to_text,
    bh_verify,
    form_matrix,
    kron_fourier,
    linear_rows_check,
    normalize,
    row_equivalence,
)
from qbh.errors import BudgetExceeded, DegenerateForm, LabelsNotGroup, LengthMismatch, NotBh
from qbh.gf import _unpack_digits

import oracles

F22 = kron_fourier(2, 2)
F3 = kron_fourier(3, 1)


def with_swapped_columns(m, i, j):
    """Swap the entries of columns i and j while keeping labels in place."""
    rows = tuple(
        tuple(r[j] if c == i else (r[i] if c == j else r[c]) for c in range(m.order))
        for r in m.rows
    )
    return BhMatrix(m.order, m.p, rows, m.row_labels, m.col_labels)


def test_bh_verify_examples():
    assert bh_verify(BhMatrix(2, 2, ((0, 0), (0, 1)), (0, 1), (0, 1)))
    assert bh_verify(BhMatrix(3, 3, ((0, 0, 0), (0, 1, 2), (0, 2, 1)), (0, 1, 2), (0, 1, 2)))
    assert not bh_verify(BhMatrix(2, 2, ((0, 0), (0, 0)), (0, 1), (0, 1)))


@pytest.mark.parametrize("p,t", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)])
def test_bh_verify_matches_complex_oracle(p, t):
    m = kron_fourier(p, t)
    assert bh_verify(m)
    assert oracles.oracle_bh_complex(m.rows, p)
    # break one entry and both should reject
    rows = [list(r) for r in m.rows]
    rows[1][0] = (rows[1][0] + 1) % p
    broken = tuple(tuple(r) for r in rows)
    assert not bh_verify(BhMatrix(m.order, p, broken, m.row_labels, m.col_labels))
    assert not oracles.oracle_bh_complex(broken, p)


def test_kron_fourier_small():
    assert kron_fourier(2, 1).rows == ((0, 0), (0, 1))
    assert F3.rows == ((0, 0, 0), (0, 1, 2), (0, 2, 1))


def test_kron_fourier_order_four():
    # exponent at (x, y) is the dot product of the label vectors
    assert F22.rows == (
        (0, 0, 0, 0),
        (0, 1, 0, 1),
        (0, 0, 1, 1),
        (0, 1, 1, 0),
    )
    assert F22.row_labels == (0, 1, 2, 3)
    assert F22.col_labels == (0, 1, 2, 3)


def test_kron_fourier_budget():
    with pytest.raises(BudgetExceeded, match=r"^matrix order: 8192 requested, limit 4096$"):
        kron_fourier(2, 13)


def test_order_zero_matrix_rejected():
    with pytest.raises(LengthMismatch):
        BhMatrix(0, 2, [])
    with pytest.raises(LengthMismatch):
        bh_from_text("0 2\n")


def test_normalize_examples():
    assert normalize(kron_fourier(2, 1)).rows == ((0, 0), (0, 1))
    m = BhMatrix(2, 2, ((1, 0), (1, 1)), (0, 1), (0, 1))
    assert normalize(m).rows == ((0, 0), (0, 1))
    m = BhMatrix(2, 2, ((0, 1), (1, 1)), (0, 1), (0, 1))
    assert normalize(m).rows == ((0, 0), (0, 1))


def test_normalize_idempotent_and_preserves_bh():
    base = kron_fourier(3, 2)
    rows = tuple(tuple((e + 2 + (i % 3)) % 3 for e in r) for i, r in enumerate(base.rows))
    m = BhMatrix(9, 3, rows, base.row_labels, base.col_labels)
    n1 = normalize(m)
    assert bh_verify(n1)
    assert all(e == 0 for e in n1.rows[0])
    assert all(r[0] == 0 for r in n1.rows)
    assert normalize(n1).rows == n1.rows


def test_normalize_rejects_non_bh():
    with pytest.raises(NotBh):
        normalize(BhMatrix(2, 2, ((0, 0), (0, 0)), (0, 1), (0, 1)))


def test_row_equivalence_identity():
    perm, shifts = row_equivalence(F22, F22)
    assert list(perm) == [0, 1, 2, 3]
    assert all(s == 0 for s in shifts)


def test_row_equivalence_swap_and_negate():
    f2 = kron_fourier(2, 1)
    m2 = BhMatrix(2, 2, ((1, 0), (0, 0)), (0, 1), (0, 1))
    got = row_equivalence(f2, m2)
    assert got is not None
    perm, shifts = got
    # returned data must reproduce m2 from f2 rows
    for i in range(2):
        src = f2.rows[perm[i]]
        assert tuple((e + shifts[i]) % 2 for e in src) == m2.rows[i]
    assert perm[0] == 1 and shifts[0] == 1


def test_row_equivalence_verified_relation_on_scramble():
    base = kron_fourier(3, 2)
    perm = (4, 0, 7, 2, 8, 1, 5, 3, 6)
    shifts = (1, 0, 2, 2, 0, 1, 0, 1, 2)
    rows = tuple(
        tuple((base.rows[perm[i]][c] + shifts[i]) % 3 for c in range(9))
        for i in range(9)
    )
    m2 = BhMatrix(9, 3, rows, base.row_labels, base.col_labels)
    got = row_equivalence(base, m2)
    assert got is not None
    gperm, gshifts = got
    for i in range(9):
        src = base.rows[gperm[i]]
        assert tuple((e + gshifts[i]) % 3 for e in src) == m2.rows[i]


def test_every_column_permutation_of_fourier3_is_row_equivalent():
    # all six permutations of F_3 are affine maps, so each column shuffle
    # lands back in the row-equivalence class
    for perm in itertools.permutations(range(3)):
        rows = tuple(tuple(r[perm[c]] for c in range(3)) for r in F3.rows)
        m = BhMatrix(3, 3, rows, F3.row_labels, F3.col_labels)
        assert row_equivalence(F3, m) is not None


def test_row_equivalence_none_case():
    base = kron_fourier(3, 2)
    m2 = with_swapped_columns(base, 1, 3)
    assert bh_verify(m2)
    assert row_equivalence(base, m2) is None


def test_row_equivalence_requires_matching_shape():
    assert row_equivalence(F3, with_swapped_columns(F3, 0, 1)) is not None
    assert row_equivalence(F22, kron_fourier(2, 1)) is None


def test_linear_rows_fourier_matrices():
    assert linear_rows_check(F22)
    assert linear_rows_check(F3)
    assert linear_rows_check(kron_fourier(3, 2))


def test_linear_rows_swap_of_last_two_columns_stays_linear():
    # swapping the columns labeled (0,1) and (1,1) is induced by an
    # invertible linear relabeling, so every row stays additive
    m = with_swapped_columns(F22, 2, 3)
    assert linear_rows_check(m) is True


def test_every_normalized_column_scramble_of_order_four_stays_linear():
    # the three nonzero labels of F_2^2 admit only linear permutations
    for perm in itertools.permutations((1, 2, 3)):
        full = (0,) + perm
        rows = tuple(tuple(r[full[c]] for c in range(4)) for r in F22.rows)
        m = BhMatrix(4, 2, rows, F22.row_labels, F22.col_labels)
        assert linear_rows_check(m) is True


def test_linear_rows_false_when_zero_label_moves():
    m = with_swapped_columns(F22, 0, 1)
    assert linear_rows_check(m) is False


def test_linear_rows_false_on_a_row_additive_except_at_label_zero():
    # every other entry of row 4 is the linear x . (1, 1); label 0 reads 1
    h = kron_fourier(3, 2)
    rows = [list(r) for r in h.rows]
    rows[4][h.col_labels.index(0)] = 1
    m = BhMatrix(9, 3, rows, h.row_labels, h.col_labels)
    assert linear_rows_check(m) is False
    rows[4][h.col_labels.index(0)] = 0
    assert linear_rows_check(BhMatrix(9, 3, rows, h.row_labels, h.col_labels)) is True


def _additive_on_every_pair(m, t):
    pos = {lab: j for j, lab in enumerate(m.col_labels)}
    p = m.p
    digs = {x: _unpack_digits(x, p, t) for x in range(m.order)}
    plus = {
        (x, y): sum(((a + b) % p) * p ** i for i, (a, b) in enumerate(zip(digs[x], digs[y])))
        for x in range(m.order) for y in range(m.order)
    }
    return all(
        row[pos[plus[x, y]]] == (row[pos[x]] + row[pos[y]]) % p
        for row in m.rows for x in range(m.order) for y in range(m.order)
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_linear_rows_agrees_with_the_pairwise_definition(data):
    p, t = data.draw(st.sampled_from([(2, 2), (2, 3), (3, 1), (3, 2)]))
    h = kron_fourier(p, t)
    order = h.order
    cols = [0] + data.draw(st.permutations(range(1, order)))
    labels = data.draw(st.permutations(range(order)))
    rows = [[r[j] for j in cols] for r in h.rows]
    i = data.draw(st.integers(0, order - 1))
    shift = data.draw(st.integers(0, p - 1))
    rows[i] = [(e + shift) % p for e in rows[i]]
    m = BhMatrix(order, p, rows, h.row_labels, labels)
    assert linear_rows_check(m) == _additive_on_every_pair(m, t)


def test_linear_rows_false_on_order_eight_scramble():
    m = with_swapped_columns(kron_fourier(2, 3), 1, 2)
    assert bh_verify(m)
    assert linear_rows_check(m) is False


def test_linear_rows_requires_group_labels():
    m = BhMatrix(2, 2, ((0, 0), (0, 1)), (0, 1), (0, 3))
    with pytest.raises(LabelsNotGroup):
        linear_rows_check(m)


def test_form_matrix_examples():
    b1 = BilinearForm(2, ((1,),))
    assert form_matrix(b1, 1).rows == ((0, 0), (0, 1))
    b2 = BilinearForm(2, ((1, 0), (0, 1)))
    assert form_matrix(b2, 1).rows == F22.rows
    banti = BilinearForm(2, ((0, 1), (1, 0)))
    m = form_matrix(banti, 1)
    assert bh_verify(m)
    assert row_equivalence(F22, m) is not None


def test_form_matrix_rejects_degenerate():
    with pytest.raises(DegenerateForm):
        form_matrix(BilinearForm(2, ((1, 1), (1, 1))), 1)
    with pytest.raises(DegenerateForm):
        form_matrix(BilinearForm(2, ((1, 0), (0, 1))), 0)


def invertible_grams(p, t):
    for entries in itertools.product(range(p), repeat=t * t):
        gram = tuple(tuple(entries[i * t + j] for j in range(t)) for i in range(t))
        try:
            yield BilinearForm(p, gram)
        except DegenerateForm:
            continue


@pytest.mark.parametrize("p,t", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_all_forms_pairwise_row_equivalent(p, t):
    mats = [form_matrix(b, a)
            for b in invertible_grams(p, t)
            for a in range(1, p)]
    target = kron_fourier(p, t)
    for m in mats:
        assert bh_verify(m)
        assert linear_rows_check(m)
        assert row_equivalence(target, m) is not None
    for m1, m2 in zip(mats, mats[1:]):
        assert row_equivalence(m1, m2) is not None


def test_bh_verify_invariant_under_row_column_operations():
    base = kron_fourier(3, 2)
    rows = [list(r) for r in base.rows]
    rows = rows[3:] + rows[:3]                       # row permutation
    rows = [[(e + 2) % 3 for e in r] for r in rows]  # global shift
    rows = [r[4:] + r[:4] for r in rows]             # column permutation
    m = BhMatrix(9, 3, tuple(tuple(r) for r in rows), base.row_labels, base.col_labels)
    assert bh_verify(m)


def test_text_roundtrip():
    m = kron_fourier(3, 2)
    m2 = bh_from_text(bh_to_text(m))
    assert m2.rows == m.rows
    assert m2.row_labels == m.row_labels
    assert m2.col_labels == m.col_labels
    assert m2.p == 3 and m2.order == 9


def test_text_skips_indented_comments():
    m = bh_from_text("2 2\n  # Fourier\n0 0\n\t# second row\n0 1\n")
    assert m.rows == kron_fourier(2, 1).rows


def test_bh_matrix_rejects_a_non_square_table_and_wrong_label_counts():
    with pytest.raises(LengthMismatch, match="need a square 2 x 2 exponent table"):
        BhMatrix(2, 2, [(0, 0), (0,)])
    with pytest.raises(LengthMismatch, match="row label count != order"):
        BhMatrix(2, 2, [(0, 0), (0, 1)], row_labels=(0,))
    with pytest.raises(LengthMismatch, match="column label count != order"):
        BhMatrix(2, 2, [(0, 0), (0, 1)], col_labels=(0, 1, 2))


def test_bh_verify_false_when_p_does_not_divide_the_order():
    assert bh_verify(BhMatrix(3, 2, [(0, 0, 0), (0, 1, 1), (0, 1, 0)])) is False


def test_linear_rows_requires_an_order_that_is_a_power_of_p():
    with pytest.raises(LabelsNotGroup, match="order 2 is not a power of 3"):
        linear_rows_check(BhMatrix(2, 3, [(0, 0), (0, 1)]))


@pytest.mark.parametrize("gram", [[], [[1, 0]]], ids=["empty", "not-square"])
def test_bilinear_form_rejects_an_empty_or_non_square_gram(gram):
    with pytest.raises(LengthMismatch, match="Gram matrix must be square and nonempty"):
        BilinearForm(2, gram)


def test_form_matrix_budget():
    form = BilinearForm(2, [[int(i == j) for j in range(13)] for i in range(13)])
    with pytest.raises(BudgetExceeded, match="^matrix order: 8192 requested, limit 4096$"):
        form_matrix(form, 1)
