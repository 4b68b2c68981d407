"""Exact state vectors: amplitudes, eigenvalue relations, spans, stabilizers."""

import functools
import itertools
import pickle
import random
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qbh.bh import BhMatrix, kron_fourier, linear_rows_check
from qbh import linalg
from qbh.errors import DEFAULT_BUDGET, BudgetExceeded, DimensionMismatch, LabelsNotGroup, LengthMismatch
from qbh.gf import (FIELD_SIZE_LIMIT, Field, _lane_pack, _lane_width, _lanes_vec, _trace_lanes,
                    _vec_lanes, field_make)
from qbh.lincode import code_make, dual, encode, fp_basis, iter_codewords
from qbh.functional import FunctionalTable, f_eval, table_make, table_matrix
from qbh.pauli import PauliElement, commutes, identity, mul, phase_modulus, phase_step, x_op, z_op
from qbh.construct import StabilizerCode, build, stab_from_text, stab_to_text, verify_generators
from qbh import statevec as sv
from qbh.slots import _moved, _Slots, _slots
from qbh.statevec import (
    CycAmp,
    StateVector,
    apply,
    big_phi,
    big_phi_from_matrix,
    fix_dim,
    inner,
    is_fixed,
    phi,
    stab_of_span,
    state_make,
)

import helpers
import oracles
from oracles import equal_sum_states, span_equal, tensor

F2 = field_make(2, 1)
F3 = field_make(3, 1)
F4 = field_make(2, 2)
F5 = field_make(5, 1)
F7 = field_make(7, 1)
F9 = field_make(3, 2)

ONE2 = CycAmp.one(2)
MINUS2 = CycAmp.root(2, 2)


def shor_setup():
    c, d = helpers.shor_pair()
    return c, d, table_make(c, d.field)


# -- CycAmp

def test_cycamp_odd_canonical_form():
    # subtracting the all-ones relation: (2,1,1) and (1,0,0) are the same number
    assert CycAmp(3, (2, 1, 1)) == CycAmp(3, (1, 0, 0))
    assert CycAmp(3, (1, 1, 1)).is_zero


def test_reprs_show_the_ring_and_the_state_shape():
    assert repr(CycAmp.one(3)) == "CycAmp(p=3, [1, 0])"
    c = code_make(F2, [(1, 1, 1)])
    v = phi(c, table_make(c, F2), 1)
    assert repr(v) == "StateVector(len=3, support=2, span dim=1, scale=1)"


def test_cycamp_binary_is_gaussian():
    i = CycAmp.root(2, 1)
    assert i * i == MINUS2
    assert MINUS2 * MINUS2 == ONE2
    assert MINUS2 == CycAmp(2, (-1,))
    assert CycAmp(2, (1, 0, 1)).is_zero


def test_cycamp_rot():
    a = CycAmp.one(3)
    assert a.rot(1) == CycAmp.root(3, 1)
    assert a.rot(3) == a
    b = CycAmp.one(2)
    assert b.rot(2) == MINUS2
    assert b.rot(4) == b


@pytest.mark.parametrize("p,m", [(2, 4), (3, 3), (5, 5), (7, 7)])
def test_cycamp_roots_of_unity_in_one_ring(p, m):
    # phi(M) coefficients: (re, im) at p = 2, p - 1 at odd p
    assert CycAmp.root(p, 1).coeffs == (0, 1) + (0,) * (m - m // p - 2)
    assert CycAmp(p, ()).coeffs == (0,) * (m - m // p)
    for e in range(m):
        z = CycAmp.root(p, e)
        assert z * CycAmp.root(p, -e) == CycAmp.one(p)
        assert z.rot(1) == CycAmp.root(p, e + 1)
        for f in range(m):
            assert z * CycAmp.root(p, f) == CycAmp.root(p, e + f)
    assert CycAmp(p, (1,) * m).is_zero


# -- StateVector basics

def test_state_drops_zero_amplitudes():
    v = state_make(F2, 1, {(0,): ONE2, (1,): CycAmp(2, ())})
    assert frozenset(v.amps) == {(0,)}
    zero = state_make(F2, 1, {(1,): CycAmp(2, ())})
    assert frozenset(zero.amps) == frozenset() and zero == state_make(F2, 1, {})
    assert apply(PauliElement(F2, 1, (1,), (1,)), zero) == zero


def test_state_rejects_amplitude_not_root_of_unity():
    with pytest.raises(ValueError):
        state_make(F2, 1, {(0,): CycAmp(2, (1, 1))})
    with pytest.raises(ValueError):
        state_make(F3, 1, {(0,): CycAmp(3, (2,))})


def test_tuple_view_is_built_once_and_round_trips():
    c, _, t = shor_setup()
    v = phi(c, t, 1)
    assert v.amps is v.amps
    assert state_make(F2, 3, v.amps, v.scale) == v


def test_library_paths_stay_on_packed_labels(monkeypatch):
    def refuse(self):
        raise AssertionError("tuple view built")

    c, d = helpers.four_one_pair()
    sc = build(c, d)
    t = table_make(c, d.field)
    monkeypatch.setattr(StateVector, "amps", property(refuse))
    states = [big_phi(c, d, t, w) for w in iter_codewords(d)]
    for v in states:
        for g in sc.generators:
            assert is_fixed(g, v)
            assert apply(g, v) == v
    assert inner(states[0], states[1]).is_zero
    assert (len(states[0].exps), states[0].scale) == (4, 2)
    assert span_equal(states, equal_sum_states(c, 2))
    assert len(stab_of_span(states)) == 2 ** len(sc.generators)


def test_state_parts_are_built_once_per_table(monkeypatch):
    # C = [3,2]_2 and D = [3,2] over K = GF(4): |C| = 4 messages from
    # r k = 2 message digit units, and the 16 words of D name all 4 scalars.
    # f_lam is F_p-linear in the message, so a table's states read the 2
    # unit images P keeps, packing no message, and each scalar's array
    # takes one K.mul per unit.  A product basis lays fp_basis(C)'s lanes
    # side by side: the only basis built.
    c = code_make(F2, [(1, 0, 1), (0, 1, 1)])
    d = code_make(F4, [(1, 0, 1), (0, 1, 1)])
    h = kron_fourier(2, 2)
    calls = dict.fromkeys(("pack", "mul", "member", "basis", "product"), 0)
    inside = []  # K.mul calls of pack_message and of the D membership test are not counted

    def counted(name, fn, nested=False):
        def wrapper(*args):
            calls[name] += 1
            inside.append(nested)
            try:
                return fn(*args)
            finally:
                inside.pop()
        return wrapper

    def counted_mul(self, a, b):
        if self is F4 and not any(inside):
            calls["mul"] += 1
        return field_mul(self, a, b)

    field_mul = Field.mul
    monkeypatch.setattr(FunctionalTable, "pack_message",
                        counted("pack", FunctionalTable.pack_message, nested=True))
    monkeypatch.setattr(sv, "contains", counted("member", sv.contains, nested=True))
    monkeypatch.setattr(sv, "_basis", counted("basis", sv._basis))
    monkeypatch.setattr(sv, "_product", counted("product", sv._product))
    monkeypatch.setattr(Field, "mul", counted_mul)
    words = list(iter_codewords(d))
    runs = []
    for _ in range(2):  # the second code, equal to the first, shares nothing with it
        code = code_make(F2, c.gen)
        t = table_make(code, F4)
        calls.update(dict.fromkeys(calls, 0))
        first = big_phi(code, d, t, words[0])  # the zero word: one scalar
        assert calls == {"pack": 0, "mul": 2, "member": 1, "basis": 1, "product": 1}
        assert len(t._state_parts) == 1  # one compact array of tr(lam P(m))
        states = [first] + [big_phi(code, d, t, w) for w in words[1:]]
        # one array per scalar, one product basis for m = 3
        assert calls == {"pack": 0, "mul": 4 * 2, "member": 16, "basis": 1, "product": 1}
        # a second table and the matrix states of the same code object reuse
        # its product basis; another block count builds its own
        states.append(big_phi(code, d, table_make(code, F4), words[5]))
        states += [big_phi_from_matrix(h, code, (r, 1, 2)) for r in range(4)]
        assert (calls["basis"], calls["product"]) == (1, 1)
        pair = big_phi_from_matrix(h, code, (1, 2))
        assert (calls["basis"], calls["product"]) == (2, 2)
        runs.append((t._state_parts, code._products, states))
        assert code._products.keys() == {2, 3} and pair.basis is code._products[2][0]
    monkeypatch.undo()
    (parts, products, states), (parts2, products2, states2) = runs
    # the tr(lam P(u)) arrays alone, no product basis, each from the unit
    # messages' P(u) as P's definition packs them
    units = [oracles.pack_message(t, msg) for msg in ((1, 0), (0, 1))]
    assert parts == {lam: _slots(2, 2, 4).linear([F4.trace_int(F4.mul(lam, u)) for u in units])
                     for lam in range(4)}
    # each table counted its own K.mul calls above; the arrays are ints,
    # which CPython may share when small, so they are compared by value
    assert parts is not parts2 and parts == parts2
    basis, basis2 = products[3][0], products2[3][0]
    # the 21 states of a code share one basis object, and the equal code builds its own
    assert all(v.basis is basis for v in states) and all(v.basis is basis2 for v in states2)
    assert basis is not basis2 and basis == basis2
    assert states == states2


def test_matrix_span_states_share_one_product_basis(monkeypatch):
    built = []
    product = sv._product
    monkeypatch.setattr(sv, "_product", lambda code, m: built.append(m) or product(code, m))
    c = code_make(F2, [(1, 0, 1), (0, 1, 1)])
    states = [big_phi_from_matrix(kron_fourier(2, 2), c, (r, r)) for r in range(4)]
    assert built == [2]
    assert all(v.basis is c._products[2][0] for v in states)


def test_code_equality_and_hashing_ignore_the_product_slot():
    c = code_make(F2, [(1, 0, 1), (0, 1, 1)])
    fresh = code_make(F2, c.gen)
    assert c._products is None and dual(c)._products is None
    big_phi_from_matrix(kron_fourier(2, 2), c, (1, 2))
    assert c._products.keys() == {2} and fresh._products is None
    assert c._labels == [0, 2, 1, 3] and fresh._labels is None
    assert c == fresh and hash(c) == hash(fresh) and {c: "kept"}[fresh] == "kept"


def test_matrix_states_read_the_message_order_once_per_code(monkeypatch):
    # the column order of C's slots is made on the first matrix state of a
    # code object and kept on it for every later state; an equal code
    # object makes its own
    made, real = [], sv._message_labels
    monkeypatch.setattr(sv, "_message_labels", lambda code: made.append(code) or real(code))
    c = code_make(F3, [(1, 0, 1), (0, 1, 1)])
    h = kron_fourier(3, 2)
    perm = list(range(9))
    random.Random(1).shuffle(perm)
    labels = list(range(9))
    random.Random(2).shuffle(labels)
    scrambled = BhMatrix(9, 3, [[r[j] for j in perm] for r in h.rows], col_labels=labels)
    states = [big_phi_from_matrix(m, c, (r, (r + 1) % 9)) for m in (h, scrambled) for r in range(9)]
    assert len(made) == 1 and made[0] is c
    fresh = code_make(F3, c.gen)
    again = [big_phi_from_matrix(m, fresh, (r, (r + 1) % 9)) for m in (h, scrambled) for r in range(9)]
    assert len(made) == 2 and made[1] is fresh
    assert again == states and len(made) == 2
    # the scramble moves the states: its span is not the Fourier one
    assert states[:9] != states[9:]


@st.composite
def codes_and_block_counts(draw):
    """A random nonzero code over F2, F3, GF(4) or GF(9) on at most 4
    coordinates, and m in {1, 2, 3} with |C|^m <= 2^12."""
    f = draw(st.sampled_from([F2, F3, F4, F9]))
    n = draw(st.integers(1, 4))
    word = st.tuples(*[st.integers(0, f.order - 1)] * n)
    rows = draw(st.lists(word, min_size=1, max_size=n))
    assume(any(any(row) for row in rows))
    code = code_make(f, rows)
    m = draw(st.integers(1, 3))
    assume(code.size ** m <= 1 << 12)
    return code, m


@settings(max_examples=80, deadline=None)
@given(codes_and_block_counts(), st.randoms(use_true_random=False))
def test_code_and_product_bases_equal_the_eliminated_ones(case, rng):
    # the code and product bases take their rows as reduced already; an
    # echelon of the same rows must give the same rows, pivots and reduction
    code, m = case
    f = code.field
    p, lanes, modulus = f.p, code.n * f.degree, phase_modulus(f)
    shift = lanes * _lane_width(p)
    rows = [_vec_lanes(f, g) for g in fp_basis(code)]
    for basis, want in [(sv._basis(f, code.n, code.lanes), rows),
                        (sv._product(code, m)[0], [g << b * shift for b in range(m) for g in rows])]:
        size = len(want) // len(rows) * lanes
        eliminated = sv._Basis(modulus, linalg.Echelon(p, size, want))
        assert basis.rows == eliminated.rows == tuple(want)
        assert basis.shifts == eliminated.shifts
        for _ in range(20):
            x = _vec_lanes(f, [rng.randrange(f.order) for _ in range(size // f.degree)])
            assert basis.reduce(x) == eliminated.reduce(x)


@pytest.mark.parametrize("f", [F2, F3, F4, F9])
def test_bases_refuse_rows_that_are_not_reduced(f):
    c = code_make(f, [(1, 0, 1), (0, 1, 1)])
    rows = [_vec_lanes(f, g) for g in fp_basis(c)]
    p, lanes, add = f.p, 3 * f.degree, linalg.Echelon(f.p, 3 * f.degree).add
    assert sv._basis(f, 3, rows).rows == tuple(rows)
    twice = linalg._times(add, rows[0], 2)  # 2 at its pivot at odd p, 0 at p = 2
    for bad in ([rows[1], rows[0]] + rows[2:],  # pivots out of order
                [add(rows[0], rows[-1])] + rows[1:],  # nonzero at another pivot
                rows + [rows[0]],  # a pivot twice
                [twice] + rows[1:],  # a pivot that is not 1, or a zero row
                [0]):  # a zero row
        with pytest.raises(ArithmeticError, match="not reduced echelon"):
            sv._basis(f, 3, bad)
        with pytest.raises(ArithmeticError, match="not reduced echelon"):
            linalg.Echelon.of_reduced(p, lanes, bad)


def test_state_make_matches_each_amplitude_to_its_root():
    for p in (2, 3, 5):
        for e in range(phase_modulus(field_make(p, 1))):
            v = state_make(field_make(p, 1), 1, {(1,): CycAmp.root(p, e)})
            assert v.exps == {1: e}
            for bad in (CycAmp.root(p, e) * CycAmp(p, (2,)), CycAmp(p, (1, 1)).rot(e)):
                with pytest.raises(ValueError, match="not a root of unity"):
                    state_make(field_make(p, 1), 1, {(1,): bad})
    with pytest.raises(ValueError, match="not a root of unity"):
        state_make(F3, 1, {(1,): CycAmp.root(2, 0)})  # a root of another ring
    with pytest.raises(ValueError, match="not a root of unity"):
        state_make(F5, 1, {(1,): CycAmp(5, (-1,))})  # -1 is no 5th root of unity


def test_state_make_builds_one_amplitude_per_label_at_p_1009(monkeypatch):
    # a table of all M roots would build 1009 CycAmps of 1008 coefficients
    f = field_make(1009, 1)
    amp = CycAmp.root(1009, 1008)
    made = []
    init = CycAmp.__init__
    monkeypatch.setattr(CycAmp, "__init__", lambda self, p, coeffs: made.append(p) or init(self, p, coeffs))
    assert state_make(f, 1, {(3,): amp}).exps == {3: 1008}
    assert made == [1009]


def test_fix_dim_and_apply_never_build_row_multiples(monkeypatch):
    # the p - 1 multiples of a basis row cost p - 2 lane adds; only the
    # label view reads them
    f = field_make(65521, 1)
    adds = []
    lane_adder = linalg._lane_adder

    def counting(p, lanes):
        add = lane_adder(p, lanes)
        return lambda x, y: adds.append(p) or add(x, y)

    monkeypatch.setattr(linalg, "_lane_adder", counting)
    assert fix_dim([x_op(f, (1,))]) == 1
    c = code_make(f, [(1,)])
    v = apply(z_op(f, (7,)), apply(x_op(f, (5,)), phi(c, table_make(c, f), 3)))
    assert 0 < len(adds) < 100
    assert len(v.exps) == f.order and len(adds) > f.order  # the label view builds them


def test_state_make_checks_label_length():
    with pytest.raises(LengthMismatch):
        state_make(F2, 2, {(0,): ONE2})
    with pytest.raises(LengthMismatch):
        state_make(F2, 3, {(1, 1, 1, 1): ONE2})  # would overflow the 3-lane width


@pytest.mark.parametrize("field,label", [(F2, (3, 0)), (F3, (3, 0)), (F4, (0, -1))])
def test_state_make_rejects_entries_outside_the_field(field, label):
    # (3, 0) over F2 would pack as the label (1, 1)
    with pytest.raises(ValueError, match="not a packed element"):
        state_make(field, 2, {label: CycAmp.one(field.p)})


def test_state_equality_includes_scale():
    a = state_make(F2, 1, {(0,): ONE2}, scale=0)
    b = state_make(F2, 1, {(0,): ONE2}, scale=2)
    assert a != b
    assert a == state_make(F2, 1, {(0,): ONE2})


# -- phi and big_phi

def test_phi_shor_rows():
    c, _, t = shor_setup()
    v0 = phi(c, t, 0)
    assert v0.amps == {(0, 0, 0): ONE2, (1, 1, 1): ONE2}
    assert v0.scale == 1
    v1 = phi(c, t, 1)
    assert v1.amps == {(0, 0, 0): ONE2, (1, 1, 1): MINUS2}


def test_phi_ternary_row():
    c, d = helpers.nine_qutrit_pair()
    t = table_make(c, d.field)
    v1 = phi(c, t, 1)
    assert v1.amps == {
        (0, 0, 0): CycAmp.one(3),
        (1, 1, 1): CycAmp.root(3, 1),
        (2, 2, 2): CycAmp.root(3, 2),
    }


def test_phi_matches_matrix_reading():
    c = code_make(F4, [(1, 0, 2), (0, 1, 3)])
    t = table_make(c, field_make(2, 4))
    m = table_matrix(t)
    for lam in t.scalars.elements():
        assert phi(c, t, lam) == big_phi_from_matrix(m, c, [lam])


def test_big_phi_shor_logical_states():
    c, d, t = shor_setup()
    v = big_phi(c, d, t, (0, 0, 0))
    assert v.scale == 3
    assert len(v.amps) == 8
    assert all(a == ONE2 for a in v.amps.values())
    w = big_phi(c, d, t, (1, 1, 1))
    for label, amp in w.amps.items():
        blocks = sum(1 for i in range(3) if label[3 * i] == 1)
        assert amp == (ONE2 if blocks % 2 == 0 else MINUS2)


def test_big_phi_four_one_uniform():
    c, d = helpers.four_one_pair()
    t = table_make(c, d.field)
    v = big_phi(c, d, t, (0, 0))
    assert frozenset(v.amps) == {(x1, x1, x2, x2) for x1 in (0, 1) for x2 in (0, 1)}
    assert all(a == ONE2 for a in v.amps.values())


def test_big_phi_rejects_non_codeword():
    c, d, t = shor_setup()
    from qbh.errors import NotACodeword
    with pytest.raises(NotACodeword):
        big_phi(c, d, t, (1, 0, 0))


def test_big_phi_builds_exactly_the_words_of_d():
    # D = <(1, 5)> over K = GF(9), checked by its syndrome: each of the 81
    # words of K^2 gives a state exactly when it lies in D, and a word of
    # another length or with an entry outside K lies outside D
    from qbh.errors import NotACodeword
    c = code_make(F3, [(1, 0, 1), (0, 1, 1)])
    d = code_make(F9, [(1, 5)])
    t = table_make(c, F9)
    words = oracles.oracle_codewords(F9, d.gen)
    for w in itertools.product(range(9), repeat=2):
        if w in words:
            assert big_phi(c, d, t, w).scale == 2 * 2
        else:
            with pytest.raises(NotACodeword):
                big_phi(c, d, t, w)
    for w in ((1, 5, 0), (9, 0), (0, -4)):
        with pytest.raises(NotACodeword):
            big_phi(c, d, t, w)


def test_phi_rejects_scalars_outside_the_table():
    # lam = |K| once indexed past the field tables, and lam = -1 read the
    # state of |K| - 1 through negative indexing
    c, d, t = shor_setup()
    for lam in (t.scalars.order, -1):
        with pytest.raises(ValueError,
                           match=rf"^lambda {lam} is not a scalar of the table: need 0 <= lambda < 2$"):
            phi(c, t, lam)
    # scalars are read as indices: int() once read 1.5 as lam = 1 and the
    # word ("1", "1", "1") of strings as a codeword of the repetition code
    for lam in (1.5, "1"):
        with pytest.raises(TypeError):
            phi(c, t, lam)
    for word in (("1", "1", "1"), (1.0, 1.0, 1.0)):
        with pytest.raises(TypeError):
            big_phi(c, d, t, word)
    assert phi(c, t, True) == phi(c, t, 1)


def test_matrix_states_reject_rows_outside_the_matrix():
    c = code_make(F2, [(1, 0, 1), (0, 1, 1)])
    h = kron_fourier(2, 2)
    for row in (4, -1):
        with pytest.raises(ValueError, match=rf"^row {row} is not a row of the matrix: need 0 <= row < 4$"):
            big_phi_from_matrix(h, c, [row])
        with pytest.raises(ValueError, match=rf"^row {row} is not a row"):
            big_phi_from_matrix(h, c, (0, row))
    with pytest.raises(ValueError, match="at least one row"):
        big_phi_from_matrix(h, c, ())


def test_matrix_states_read_column_labels_as_a_permutation():
    # no labels read as 0 .. order - 1, as linear_rows_check reads them;
    # a repeated label once gave a 3-label state of an order-4 matrix, and
    # label 7 at order 4 aliased to 3
    c = code_make(F2, [(1, 0, 1), (0, 1, 1)])
    h = kron_fourier(2, 2)
    bare = BhMatrix(4, 2, h.rows)
    assert big_phi_from_matrix(bare, c, [1]) == big_phi_from_matrix(h, c, [1])
    for labels in [(0, 1, 2, 2), (0, 1, 2, 7)]:
        with pytest.raises(LabelsNotGroup, match=r"^column labels must enumerate 0 \.\. 3$"):
            big_phi_from_matrix(BhMatrix(4, 2, h.rows, col_labels=labels), c, [0])


READABLE_CODES = [
    (F2, [(0, 1, 1, 0), (0, 0, 1, 1)]),
    (F4, [(1, 2, 3)]),
    (F4, [(0, 1, 2), (1, 1, 1)]),
    (F3, [(1, 2, 0), (0, 1, 1)]),
    (F9, [(1, 3, 5)]),
    (F5, [(0, 1, 4)]),
]


@pytest.mark.parametrize("field,rows", READABLE_CODES)
def test_code_states_equal_their_readable_form(field, rows):
    c = code_make(field, rows)
    p, q, step = field.p, field.order, phase_modulus(field) // field.p
    words = list(iter_codewords(c))
    scale = field.degree * c.k
    # the code states lay C on fp_basis(C) as it is: it must be reduced echelon
    prime = field_make(p, 1)
    basis = fp_basis(c)
    assert ([_vec_lanes(field, g) for g in basis]
            == [_vec_lanes(prime, r) for r in oracles.rref(prime, map(field.vec_digits, basis))[0]])
    t = table_make(c, field_make(p, field.degree * c.k))
    for lam in range(t.scalars.order):
        readable = {w: CycAmp.root(p, step * f_eval(t, lam, w)) for w in words}
        assert phi(c, t, lam) == state_make(field, c.n, readable, scale)
    m = table_matrix(t)
    labels = list(m.col_labels)[::-1]  # column j now names another codeword
    scrambled = BhMatrix(m.order, p, m.rows, col_labels=labels)
    for row in range(m.order):
        readable = {}
        for x, e in zip(labels, m.rows[row]):
            msg = [x // q ** (c.k - 1 - j) % q for j in range(c.k)]
            readable[encode(c, msg)] = CycAmp.root(p, step * e)
        assert big_phi_from_matrix(scrambled, c, [row]) == state_make(field, c.n, readable, scale)


def test_state_make_refuses_too_many_label_digits_before_eliminating(monkeypatch):
    # S labels x N r digit columns over the limit are refused before any
    # elimination; fewer entries on too wide a span are refused after it.
    # Neither is lifted by --budget, so neither names it.
    def refuse(*args):
        raise AssertionError("eliminated")

    amps = {(x, y, 0): CycAmp.one(5) for x in range(5) for y in range(3)}
    monkeypatch.setattr(sv, "DEFAULT_BUDGET", 31)
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "Echelon", refuse)
        with pytest.raises(BudgetExceeded,
                           match=r"^state_make labels x digits: 45 requested, limit 31$"):
            state_make(F5, 3, amps)
    six = {tuple(int(i == j) for j in range(5)): ONE2 for i in range(6)}  # 0 and the units
    with pytest.raises(BudgetExceeded, match=r"^state span slots: 32 requested, limit 31$"):
        state_make(F2, 5, six)
    monkeypatch.setattr(sv, "DEFAULT_BUDGET", 32)
    assert state_make(F2, 5, six).basis.slots.size == 32


def test_tensor_scale_and_inner_multiplicativity():
    c, _, t = shor_setup()
    states = [phi(c, t, 0), phi(c, t, 1)]
    for u in states:
        for v in states:
            tuv = tensor(u, v)
            assert tuv.scale == u.scale + v.scale
            for u2 in states:
                for v2 in states:
                    lhs = inner(tensor(u2, v2), tuv)
                    rhs = inner(u2, u) * inner(v2, v)
                    assert lhs == rhs


# -- apply

def test_apply_identity():
    c, _, t = shor_setup()
    v = phi(c, t, 1)
    assert apply(identity(F2, 3), v) == v


def test_apply_z_on_one():
    v = state_make(F2, 1, {(1,): ONE2})
    w = apply(z_op(F2, (1,)), v)
    assert w.amps == {(1,): MINUS2}


def test_apply_block_x_gives_eigenvalue():
    c, d, t = shor_setup()
    v = big_phi(c, d, t, (1, 1, 1))
    e = x_op(F2, (1, 1, 1, 0, 0, 0, 0, 0, 0))
    w = apply(e, v)
    expected = state_make(F2, 9, {l: a.rot(2) for l, a in v.amps.items()}, v.scale)
    assert w == expected


def test_apply_generators_fix_logical_states():
    c, d = helpers.four_one_pair()
    sc = build(c, d)
    t = table_make(c, d.field)
    for lam_word in iter_codewords(d):
        v = big_phi(c, d, t, lam_word)
        for g in sc.generators:
            assert apply(g, v) == v


def test_apply_checks_dimensions():
    v = state_make(F2, 1, {(0,): ONE2})
    with pytest.raises(LengthMismatch):
        apply(identity(F2, 2), v)
    with pytest.raises(DimensionMismatch):
        apply(identity(F3, 1), v)


# -- inner products

def test_phi_rows_are_orthogonal():
    c = code_make(F3, [(1, 0, 1), (0, 1, 2)])
    t = table_make(c, field_make(3, 2))
    states = {lam: phi(c, t, lam) for lam in t.scalars.elements()}
    for lam, u in states.items():
        for mu, v in states.items():
            got = inner(u, v)
            if lam == mu:
                assert got == CycAmp(3, (c.size,))
            else:
                assert got.is_zero


def test_inner_rejects_states_of_different_spaces():
    ket = state_make(F2, 1, {(0,): ONE2})
    with pytest.raises(DimensionMismatch):
        inner(ket, state_make(F3, 1, {(0,): CycAmp.one(3)}))
    with pytest.raises(DimensionMismatch):
        inner(ket, state_make(F2, 2, {(0, 0): ONE2}))
    with pytest.raises(DimensionMismatch):  # span_equal reads states through inner
        span_equal([ket], [state_make(F2, 2, {(0, 0): ONE2})])


def test_norm_sq_shor():
    c, d, t = shor_setup()
    v = big_phi(c, d, t, (0, 0, 0))
    # squared norm 8 * 2^-3: eight unit amplitudes under scale 3
    assert (len(v.exps), v.scale) == (8, 3)


# -- spans

def test_span_shor_block_change_of_basis():
    c, _, t = shor_setup()
    phis = [phi(c, t, 0), phi(c, t, 1)]
    kets = [
        state_make(F2, 3, {(0, 0, 0): ONE2}),
        state_make(F2, 3, {(1, 1, 1): ONE2}),
    ]
    assert span_equal(phis, kets)
    assert span_equal(phis, phis)


def test_span_of_no_states_equals_only_itself():
    ket = state_make(F2, 1, {(0,): ONE2})
    assert span_equal([], [])
    assert not span_equal([], [ket]) and not span_equal([ket], [])


def test_span_distinct_logical_states_differ():
    c, d, t = shor_setup()
    a = [big_phi(c, d, t, (0, 0, 0))]
    b = [big_phi(c, d, t, (1, 1, 1))]
    assert not span_equal(a, b)


def test_span_budget_guard():
    n = 14
    labels = list(itertools.product((0, 1), repeat=n))[:130]
    many = [state_make(F2, n, {lab: ONE2}) for lab in labels]
    with pytest.raises(BudgetExceeded):
        span_equal(many, many)


def test_budget_messages_name_the_enumeration_count_and_limit():
    assert DEFAULT_BUDGET == 1 << 22
    z17 = [z_op(F2, (1,) * 17)]
    with pytest.raises(BudgetExceeded, match=r"^fix_dim labels: 131072 requested,"
                       r" limit 65536; raise it with --budget$"):
        fix_dim(z17, budget=1 << 16)
    assert fix_dim(z17) == 1 << 16
    # a state's span answers to DEFAULT_BUDGET, which no flag lifts
    parity = code_make(F2, [(1, 0, 0, 0, 1), (0, 1, 0, 0, 1), (0, 0, 1, 0, 1), (0, 0, 0, 1, 1)])
    f16 = field_make(2, 4)
    outer = code_make(f16, [(1,) * 6])
    with pytest.raises(BudgetExceeded,
                       match=r"^state span slots: 16777216 requested, limit 4194304$"):
        big_phi(parity, outer, table_make(parity, f16), (0,) * 6)  # 16^6 slots
    kets = [state_make(F2, 8, {x: ONE2}) for x in itertools.product((0, 1), repeat=8)]
    with pytest.raises(BudgetExceeded, match=r"^span_equal rows x columns x pivots: 167772160"
                       r" requested, limit 4194304; raise it with --budget$"):
        span_equal(kets, kets[:64])  # 512 x 640 x 512


def test_state_budget_counts_the_slots_of_the_support_span():
    # a state's span counts slot-array slots: p^D for a support whose
    # affine span has dimension D, however few labels it holds
    def units(n, count):
        return {tuple(int(i == j) for j in range(n)): ONE2 for i in range(count)}

    assert state_make(F2, 17, units(17, 17)).basis.slots.size == 1 << 16
    assert state_make(F2, 23, units(23, 23)).basis.slots.size == 1 << 22
    with pytest.raises(BudgetExceeded,
                       match=r"^state span slots: 8388608 requested, limit 4194304$"):
        state_make(F2, 24, units(24, 24))


def test_phi_support_is_bounded_by_the_field_size_limit():
    # phi enumerates |C| = |K| labels, K the field of scalars of its
    # table, so FIELD_SIZE_LIMIT <= DEFAULT_BUDGET is what lets phi go
    # without a label guard of its own.
    assert FIELD_SIZE_LIMIT <= DEFAULT_BUDGET


def test_span_budget_counts_the_rational_columns_of_odd_p():
    # deg = p - 1 rational rows per state and columns per state of both
    # lists: 100 x 200 entries over GF(101) fit, 400 x 800 over GF(401) do not
    def phi_pair(p):
        f = field_make(p, 1)
        c = code_make(f, [(1, 1)])
        t = table_make(c, f)
        return [phi(c, t, 0)], [phi(c, t, 1)]

    assert not span_equal(*phi_pair(101))  # 100 x 200 x 100
    with pytest.raises(BudgetExceeded,
                       match=r"^span_equal rows x columns x pivots: 128000000 requested"):
        span_equal(*phi_pair(401))  # 400 x 800 x 400


def test_span_equal_refuses_at_an_explicit_budget():
    # two kets at p = 2: deg = 2, so 2 x 4 x 2 = 16 for the elimination
    a, b = state_make(F2, 1, {(0,): ONE2}), state_make(F2, 1, {(1,): ONE2})
    with pytest.raises(BudgetExceeded) as refused:
        span_equal([a], [b], budget=15)
    assert (refused.value.what, refused.value.requested, refused.value.limit,
            refused.value.flag) == ("span_equal rows x columns x pivots", 16, 15, "--budget")
    copy = pickle.loads(pickle.dumps(refused.value))  # as a worker process hands it back
    assert (str(copy), copy.requested) == (str(refused.value), 16)
    assert not span_equal([a], [b], budget=16)


def test_span_row_equivalent_matrices_same_span():
    f3 = F3
    c = code_make(f3, [(1, 0, 1), (0, 1, 2)])
    h = kron_fourier(3, 2)
    perm = (4, 0, 7, 2, 8, 1, 5, 3, 6)
    shifts = (1, 0, 2, 2, 0, 1, 0, 1, 2)
    rows2 = tuple(
        tuple((h.rows[perm[i]][col] + shifts[i]) % 3 for col in range(9))
        for i in range(9)
    )
    h2 = BhMatrix(9, 3, rows2, h.row_labels, h.col_labels)
    qa = [big_phi_from_matrix(h, c, (r, r)) for r in range(9)]
    qb = [big_phi_from_matrix(h2, c, (r, r)) for r in range(9)]
    assert span_equal(qa, qb)


def test_span_scrambled_matrix_changes_span():
    f3 = F3
    c = code_make(f3, [(1, 0, 1), (0, 1, 2)])
    h = kron_fourier(3, 2)
    rows = tuple(
        tuple(r[3] if col == 1 else (r[1] if col == 3 else r[col]) for col in range(9))
        for r in h.rows
    )
    h3 = BhMatrix(9, 3, rows, h.row_labels, h.col_labels)
    qa = [big_phi_from_matrix(h, c, (r, r)) for r in range(9)]
    qb = [big_phi_from_matrix(h3, c, (r, r)) for r in range(9)]
    assert not span_equal(qa, qb)


def test_equal_sum_states_span_the_logical_space():
    c, d = helpers.four_one_pair()
    t = table_make(c, d.field)
    q = [big_phi(c, d, t, w) for w in iter_codewords(d)]
    assert span_equal(q, equal_sum_states(c, 2))


# -- stab_of_span and fix_dim

def test_stab_of_empty_span_names_it():
    with pytest.raises(ValueError, match="empty span"):
        stab_of_span([])


def test_stab_of_computational_basis_state():
    v = state_make(F2, 1, {(0,): ONE2})
    group = stab_of_span([v])
    assert set(group) == {identity(F2, 1), z_op(F2, (1,))}


def test_stab_of_four_one_matches_generators(monkeypatch):
    c, d = helpers.four_one_pair()
    sc = build(c, d)
    t = table_make(c, d.field)
    q = [big_phi(c, d, t, w) for w in iter_codewords(d)]
    group = stab_of_span(q)
    assert len(group) == 2 ** len(sc.generators)
    for e in group:
        assert e.phase == 0
        assert sc.contains_symplectic(e.a, e.b)
        assert e._packed is None  # made by the final walk, after every action
    # a matrix span: its states share one basis, and the result is the
    # group of the generators its self-check was given, one element each
    c = code_make(F2, [(1, 0, 1), (0, 1, 1)])
    states = [big_phi_from_matrix(kron_fourier(2, 2), c, (r, r)) for r in range(4)]
    found, gens = _stab_with_generators(states, monkeypatch)
    assert len(found) == 16 == 2 ** len(gens) and any(any(g.a) for g in gens)
    assert set(found) == oracles.group_closure(gens)
    assert all(e._packed is None for e in found)


def test_stab_of_scrambled_order_four_matrix_keeps_full_group():
    # every column scramble of the order-4 matrix leaves all rows affine,
    # so the span never moves and the stabilizer stays at full size
    c = code_make(F2, [(1, 1, 0), (0, 1, 1)])
    h = kron_fourier(2, 2)
    rows = tuple(
        tuple(r[1] if col == 0 else (r[0] if col == 1 else r[col]) for col in range(4))
        for r in h.rows
    )
    hs = BhMatrix(4, 2, rows, h.row_labels, h.col_labels)
    assert linear_rows_check(hs) is False
    q_scr = [big_phi_from_matrix(hs, c, (r, r)) for r in range(4)]
    q_std = [big_phi_from_matrix(h, c, (r, r)) for r in range(4)]
    assert span_equal(q_scr, q_std)
    group = stab_of_span(q_scr)
    assert len(group) == 16  # 2^(nm - ks) with n=3, k=2, m=2, s=1


def test_stab_of_span_budget_counts_shifts_rows_and_output():
    n = 11
    flat = state_make(F2, n, {x: ONE2 for x in itertools.product((0, 1), repeat=n)})
    with pytest.raises(BudgetExceeded, match=r"^stab_of_span shifts x rows: 24576 requested"):
        stab_of_span([flat], budget=1 << 14)  # 2^11 shifts x the 11 + 1 rows of one support
    ket = state_make(F2, 17, {(0,) * 17: ONE2})
    with pytest.raises(BudgetExceeded, match=r"^stab_of_span elements: 131072 requested"):
        stab_of_span([ket], budget=1 << 16)  # all 2^17 Z(b) fix it


def test_stab_of_span_refuses_at_an_explicit_budget():
    # a flat state on 3 qubits: 8 shifts x 3 + 1 rows; its 8 X(a)
    flat = state_make(F2, 3, {x: ONE2 for x in itertools.product((0, 1), repeat=3)})
    with pytest.raises(BudgetExceeded, match=r"^stab_of_span shifts x rows: 32 requested,"
                       r" limit 31; raise it with --budget$"):
        stab_of_span([flat], budget=31)
    assert len(stab_of_span([flat], budget=32)) == 8
    # a ket on 3 qubits: 1 shift x 1 row; its 8 Z(b)
    ket = state_make(F2, 3, {(0, 0, 0): ONE2})
    with pytest.raises(BudgetExceeded, match=r"^stab_of_span elements: 8 requested,"
                       r" limit 7; raise it with --budget$"):
        stab_of_span([ket], budget=7)
    assert len(stab_of_span([ket], budget=8)) == 8


def _assert_stab_matches_enumeration(states):
    keys = [(g.phase, g.a, g.b) for g in stab_of_span(states)]
    assert len(keys) == len(set(keys))
    assert set(keys) == oracles.stab_by_enumeration(states)


@pytest.mark.parametrize("perm", list(itertools.permutations((1, 2, 3))))
def test_stab_of_span_matches_enumeration_on_order_four_scrambles(perm):
    h = kron_fourier(2, 2)
    cols = (0,) + perm
    rows = tuple(tuple(r[j] for j in cols) for r in h.rows)
    hs = BhMatrix(4, 2, rows, h.row_labels, h.col_labels)
    c = code_make(F2, [(1, 0, 1), (0, 1, 1)])
    _assert_stab_matches_enumeration([big_phi_from_matrix(hs, c, (r, r)) for r in range(4)])


def test_stab_of_span_matches_enumeration_on_order_three_fourier():
    h = kron_fourier(3, 1)
    c = code_make(F3, [(1, 1)])
    _assert_stab_matches_enumeration([big_phi_from_matrix(h, c, (r, r)) for r in range(3)])


def test_stab_of_span_matches_enumeration_on_gf4_phi_span():
    c = code_make(F4, [(1, 1, 1)])
    t = table_make(c, F4)
    _assert_stab_matches_enumeration([phi(c, t, lam) for lam in F4.elements()])


@pytest.mark.parametrize("field,amps", [
    (F2, {(0, 0): 0, (1, 0): 0, (0, 1): 2}),
    (F3, {(0, 0): 0, (1, 2): 1, (2, 2): 2}),
])
def test_stab_of_span_matches_enumeration_off_a_coset(field, amps):
    v = state_make(field, 2, {x: CycAmp.root(field.p, e) for x, e in amps.items()})
    _assert_stab_matches_enumeration([v])


def test_stab_of_span_finds_odd_phases_at_p2():
    # |0> + i|1> is fixed by i X Z alone: c must be odd there
    v = state_make(F2, 1, {(0,): ONE2, (1,): CycAmp.root(2, 1)})
    _assert_stab_matches_enumeration([v])
    assert set(stab_of_span([v])) == {identity(F2, 1), PauliElement(F2, 1, (1,), (1,))}


@pytest.mark.parametrize("field", [F3, F5], ids=["F3", "F5"])
def test_stab_of_span_multiplies_by_the_group_law_at_odd_p(field):
    # sum_x w^(x1 x2) |x> is fixed by exactly w^(a1 a2) X(a1, a2) Z(a2, a1):
    # the product of the generators X(1, 0) Z(0, 1) and X(0, 1) Z(1, 0)
    # carries the phase tr(a_g . b_x) = 1, which a wrong sign would negate
    p = field.p
    v = state_make(field, 2, {(x1, x2): CycAmp.root(p, x1 * x2)
                              for x1 in range(p) for x2 in range(p)})
    want = {PauliElement(field, a1 * a2, (a1, a2), (a2, a1)) for a1 in range(p) for a2 in range(p)}
    assert set(stab_of_span([v])) == want
    _assert_stab_matches_enumeration([v])


def _stab_with_generators(states, monkeypatch):
    """stab_of_span(states) with the generators its self-check was given,
    read back from their packed ((a | b) row, form) as PauliElements."""
    seen = []
    check = sv._check_generators
    monkeypatch.setattr(sv, "_check_generators", lambda *args: seen.append(args) or check(*args))
    found = stab_of_span(states)
    monkeypatch.undo()
    (args,) = seen
    f, n = states[0].field, states[0].length
    half = n * f.degree * _lane_width(f.p)
    return found, [PauliElement(f, c, _lanes_vec(f, n, row & (1 << half) - 1),
                                _lanes_vec(f, n, row >> half)) for row, (c, *_) in args[1]]


def _check(states, gens):
    """``_check_generators`` on PauliElements, each packed afresh as
    ((a | b) row, form for ``_act``), the form from ``_packed_of``."""
    f, n = states[0].field, states[0].length
    half = n * f.degree * _lane_width(f.p)
    return sv._check_generators(states, [
        (_vec_lanes(f, g.a) | _vec_lanes(f, g.b) << half,
         sv._packed_of(PauliElement(f, g.phase, g.a, g.b), f, n)) for g in gens])


def counted_actions(monkeypatch) -> list:
    """A list that gets one entry per call of ``statevec._act`` from now on."""
    calls, act = [], sv._act
    monkeypatch.setattr(sv, "_act", lambda packed, v: calls.append(packed) or act(packed, v))
    return calls


def _fourier_span():
    h = kron_fourier(2, 2)
    c = code_make(F2, [(1, 0, 1), (0, 1, 1)])
    return [big_phi_from_matrix(h, c, (r, r)) for r in range(4)]


def test_fixing_group_check_needs_independent_rows(monkeypatch):
    states = _fourier_span()
    found, gens = _stab_with_generators(states, monkeypatch)
    assert len(found) == 16 == 2 ** len(gens) and len(gens) <= 2 * 6 + 1
    _check(states, gens)
    # each fixes every state and commutes with the rest, but the walk
    # would then make every element of the group twice
    for extra in (mul(gens[0], gens[-1]), gens[0], identity(F2, states[0].length)):
        with pytest.raises(ArithmeticError, match="dependent"):
            _check(states, gens + [extra])


def test_fixing_group_check_needs_commuting_elements(monkeypatch):
    c, d, t = shor_setup()
    states = [big_phi(c, d, t, word) for word in iter_codewords(d)]
    found, gens = _stab_with_generators(states, monkeypatch)
    n = states[0].length
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    singles = [op(F2, u) for u in units for op in (x_op, z_op)]
    bad = next(e for e in singles if any(not commutes(e, g) for g in gens))
    with pytest.raises(ArithmeticError, match="not abelian"):
        _check(states, gens + [bad])


def _logical(found, gens):
    """An X(a) or Z(b) that commutes with every generator and lies
    outside the group, up to phase: it moves some state of the span."""
    f, n = gens[0].field, len(gens[0].a)
    group = {(x.a, x.b) for x in found}
    for v in itertools.product(range(f.order), repeat=n):
        for e in (x_op(f, v), z_op(f, v)):
            if (e.a, e.b) not in group and all(commutes(e, g) for g in gens):
                return e
    raise AssertionError("no logical operator")


def test_fixing_group_check_rejects_a_set_that_is_not_the_group(monkeypatch):
    states = _fourier_span()
    found, gens = _stab_with_generators(states, monkeypatch)
    _check(states, gens)
    step = phase_step(F2)
    g = gens[0]
    cases = [
        # a logical operator commutes with every generator and is
        # independent of them, but moves a state of the span
        gens + [_logical(found, gens)],
        # a generator with step added to its phase keeps its row and pairings
        [PauliElement(F2, g.phase + step, g.a, g.b)] + gens[1:],
    ]
    for bad in cases:
        with pytest.raises(ArithmeticError, match="moves a state"):
            _check(states, bad)


@pytest.mark.parametrize("span", ["fourier", "shor"])
def test_fixing_group_check_applies_only_the_generators(span, monkeypatch):
    if span == "fourier":
        states = _fourier_span()
    else:
        c, d, t = shor_setup()
        states = [big_phi(c, d, t, word) for word in iter_codewords(d)]
    found, gens = _stab_with_generators(states, monkeypatch)
    calls = counted_actions(monkeypatch)
    _check(states, gens)
    assert 0 < len(calls) <= len(gens) * len(states) < len(found) * len(states)


def test_stab_of_span_is_the_stabilizer_of_the_fifteen_four_code():
    # [[15,4]]_2: C = <10110, 01011> over F_2, D = <(1,0,1), (0,1,2)> over GF(4)
    c = code_make(F2, [(1, 0, 1, 1, 0), (0, 1, 0, 1, 1)])
    d = code_make(F4, [(1, 0, 1), (0, 1, 2)])
    sc = build(c, d)
    t = table_make(c, F4)
    states = [big_phi(c, d, t, w) for w in iter_codewords(d)]
    assert (sc.num_qudits, len(states)) == (15, 16)
    group = oracles.group_closure(sc.generators)
    assert len(group) == 2 ** 11
    assert set(stab_of_span(states)) == group


@st.composite
def monomial_spans(draw, fields, max_states, max_labels=64):
    """1 to max_states monomial states on one space of at most max_labels labels."""
    f = draw(st.sampled_from(fields))
    n_max = 1
    while f.order ** (n_max + 1) <= max_labels:
        n_max += 1
    n = draw(st.integers(1, n_max))
    labels = list(itertools.product(range(f.order), repeat=n))
    exponent = st.integers(0, (4 if f.p == 2 else f.p) - 1)
    states = []
    for _ in range(draw(st.integers(1, max_states))):
        support = draw(st.lists(st.sampled_from(labels), min_size=1, unique=True))
        flat = draw(st.booleans())
        amps = {x: CycAmp.root(f.p, 0 if flat else draw(exponent)) for x in support}
        states.append(state_make(f, n, amps))
    return states


@settings(max_examples=40, deadline=None)
@given(monomial_spans([F2, F4, F3], max_states=3))
def test_stab_of_span_matches_enumeration_on_random_monomial_states(states):
    _assert_stab_matches_enumeration(states)


@st.composite
def coset_spans(draw):
    """1 to 3 states over F2 or F3 on at most 3 qudits, each supported on
    1 to 3 drawn cosets of one drawn space W, so often not on all of its
    affine span, its exponent one drawn quadratic in the label plus a
    linear part drawn per state.  Shifts in W keep every support, and
    the linear parts cut the fixing shifts down to a subspace of W, so
    trials fall in accepted spans and rejected cosets as well as
    outside both."""
    f = draw(st.sampled_from([F2, F3]))
    p, step, n = f.p, phase_step(f), draw(st.integers(1, 3))
    vec = st.tuples(*[st.integers(0, p - 1)] * n)
    gens = draw(st.lists(vec, min_size=1, max_size=n))
    space = {tuple(sum(c * g[i] for c, g in zip(cs, gens)) % p for i in range(n))
             for cs in itertools.product(range(p), repeat=len(gens))}
    quad = draw(st.lists(st.integers(0, p - 1), min_size=n * n, max_size=n * n))
    states = []
    for _ in range(draw(st.integers(1, 3))):
        support = {tuple((x + y) % p for x, y in zip(t, v))
                   for t in draw(st.lists(vec, min_size=1, max_size=3)) for v in space}
        lin = draw(st.lists(st.integers(0, 3), min_size=n + 1, max_size=n + 1))

        def exponent(x):  # taken mod M by CycAmp.root
            square = sum(quad[i * n + j] * x[i] * x[j] for i in range(n) for j in range(i, n))
            return lin[n] + sum(l * xi for l, xi in zip(lin, x)) + step * square

        states.append(state_make(f, n, {x: CycAmp.root(p, exponent(x)) for x in sorted(support)}))
    return states


@settings(max_examples=60, deadline=None)
@given(coset_spans())
def test_stab_of_span_matches_enumeration_on_coset_states(states):
    _assert_stab_matches_enumeration(states)


@st.composite
def shared_support_spans(draw):
    """2 to 4 states over F2, F3, GF(4) or GF(9) on one drawn support of
    at most 16 labels: a drawn set of labels, or 1 or 2 cosets of the
    F_p-span of drawn labels.  Each state's exponents, the one at the
    first label (the anchor) included, are drawn per label, or are one
    drawn quadratic in the label's digits, shared by all the states,
    plus an affine part drawn per state; so states differ by phases
    that are constant, affine or neither, and shifts in the span can
    fix every state."""
    f = draw(st.sampled_from([F2, F3, F4, F9]))
    p, r, step = f.p, f.degree, phase_step(f)
    n = draw(st.integers(1, {2: 4, 3: 2, 4: 2, 9: 1}[f.order]))
    labels = list(itertools.product(range(f.order), repeat=n))
    label = st.sampled_from(labels)

    def plus(x, y):
        return tuple(f.add(s, t) for s, t in zip(x, y))

    if draw(st.booleans()):
        support = set(draw(st.lists(label, min_size=1, unique=True)))
    else:
        space = {labels[0]}
        for g in draw(st.lists(label, min_size=1, max_size=2)):
            multiples = list(itertools.accumulate([g] * (p - 1), plus, initial=labels[0]))
            space = {plus(x, m) for x in space for m in multiples}
        support = {plus(t, v) for t in draw(st.lists(label, min_size=1, max_size=2)) for v in space}
    digits = n * r
    quad = draw(st.lists(st.integers(0, p - 1), min_size=digits ** 2, max_size=digits ** 2))
    modulus = st.integers(0, phase_modulus(f) - 1)
    states = []
    for _ in range(draw(st.integers(2, 4))):
        if draw(st.booleans()):
            exps = {x: draw(modulus) for x in sorted(support)}
        else:
            lin = draw(st.lists(modulus, min_size=digits + 1, max_size=digits + 1))
            exps = {}
            for x in sorted(support):
                d = [e // p ** j % p for e in x for j in range(r)]
                square = sum(quad[i * digits + j] * d[i] * d[j]
                             for i in range(digits) for j in range(i, digits))
                exps[x] = lin[digits] + sum(l * di for l, di in zip(lin, d)) + step * square
        states.append(state_make(f, n, {x: CycAmp.root(p, e) for x, e in exps.items()}))
    return states


def test_stab_of_span_filters_shifts_on_a_support_that_skips_slots():
    # Two of the three cosets of <(1, 0)> in F3^2, x_2 = 1 and x_2 = 2:
    # the slots of x_2 = 0 come first and lie off the support.  The second
    # state's phase relative to the first is x_2, so the shifts along
    # (1, 0) alone keep it, and they fix both states.
    support = [(x1, x2) for x2 in (1, 2) for x1 in range(3)]
    flat = state_make(F3, 2, {x: CycAmp.one(3) for x in support})
    tilted = state_make(F3, 2, {x: CycAmp.root(3, x[1]) for x in support})
    assert flat.mask != flat.basis.slots.full
    assert {g.a for g in stab_of_span([flat, tilted])} == {(0, 0), (1, 0), (2, 0)}
    _assert_stab_matches_enumeration([flat, tilted])


@settings(max_examples=60, deadline=None)
@given(shared_support_spans())
def test_stab_of_span_matches_enumeration_on_states_of_one_support(states):
    _assert_stab_matches_enumeration(states)


def counted_solutions(monkeypatch) -> list:
    """A list that gets, per call of ``statevec._scan`` from now on, the
    number of right-hand sides its ``solve`` solves."""
    counts, scan = [], sv._scan

    def counted(*args):
        basis, rows, solve = scan(*args)
        counts.append(0)

        def counting(digits):
            counts[-1] += 1
            return solve(digits)
        return basis, rows, counting

    monkeypatch.setattr(sv, "_scan", counted)
    return counts


def _order_eight_fourier_span():
    c = code_make(F2, [(1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1)])
    return [big_phi_from_matrix(kron_fourier(2, 3), c, (r, r)) for r in range(8)]


def _order_nine_fourier_span():
    c = code_make(F3, [(1, 0, 1), (0, 1, 1)])
    return [big_phi_from_matrix(kron_fourier(3, 2), c, (r, r)) for r in range(9)]


def test_stab_of_span_applies_only_to_shifts_outside_what_it_has_decided(monkeypatch):
    # A shift in the span of accepted ones, or in a rejected one's coset
    # of that span, is decided without an action, and so is one that
    # breaks a state's phase relative to the first state's; acting with
    # each trial's element on every state took 60 and 256 actions on
    # these spans, and the group-law rules alone 38 and 102.
    calls = counted_actions(monkeypatch)
    assert len(stab_of_span(_fourier_span())) == 16
    assert len(calls) <= 24
    calls.clear()
    assert len(stab_of_span(_order_eight_fourier_span())) == 32
    assert len(calls) <= 64


def test_stab_of_span_rejects_every_multiple_of_a_rejected_shift(monkeypatch):
    # At odd p a rejected r rules out k r + span for every k != 0 as well;
    # keyed on r alone, the order-9 Fourier span took 94 actions, and
    # before the relative-phase filter 84.
    calls = counted_actions(monkeypatch)
    assert len(stab_of_span(_order_nine_fourier_span())) == 81
    assert len(calls) <= 54


@pytest.mark.parametrize("f", [F3, F5, F7])
def test_stab_of_span_rejects_every_multiple_on_states_of_distinct_supports(f, monkeypatch):
    # x_1^2 on x_2 = 0 and 2 x_1^2 on x_2 = 1: distinct supports, so the
    # relative-phase filter does not run, and no nonzero shift along (1, 0)
    # fixes both.  The first one tried is rejected by its actions, and its
    # p - 2 other multiples without any; with each tried, 2 (p - 1) actions.
    p = f.p
    states = [state_make(f, 2, {(x, y): CycAmp.root(p, (y + 1) * x * x) for x in range(p)})
              for y in (0, 1)]
    calls = counted_actions(monkeypatch)
    assert stab_of_span(states) == [identity(f, 2)]
    assert len(calls) == 2
    _assert_stab_matches_enumeration(states)


def test_stab_of_span_solves_only_the_shifts_that_keep_the_relative_phases(monkeypatch):
    # Every shift of the first state's support was solved for before the
    # relative-phase filter: 16, 64 and 81 right-hand sides on these spans.
    counts = counted_solutions(monkeypatch)
    for span, size in [(_fourier_span(), 16), (_order_eight_fourier_span(), 32),
                       (_order_nine_fourier_span(), 81)]:
        assert len(stab_of_span(span)) == size
    assert counts == [4, 8, 9]


def test_stab_of_span_eliminates_its_rows_once(monkeypatch):
    # The scan's one tagged echelon gives every trial's solution and the
    # kernel: solutions read once per call, off the scan's own echelon, and
    # four echelons per call (the scan's, the accepted shifts', the
    # kernel's basis and the generator check's), where a solve and a
    # second elimination for the kernel made six.
    spans = [(_fourier_span(), 16), (_order_eight_fourier_span(), 32),
             (_order_nine_fourier_span(), 81)]
    made, solved, echelon = [], [], linalg.Echelon

    class Counted(echelon):
        __slots__ = ()

        def __init__(self, *args):
            made.append(self)
            super().__init__(*args)

        def solutions(self, *args):
            solved.append(made.index(self))
            return super().solutions(*args)

    monkeypatch.setattr(linalg, "Echelon", Counted)
    counts = []
    for span, size in spans:
        made.clear()
        solved.clear()
        assert len(stab_of_span(span)) == size
        counts.append(len(made))
        assert solved == [0]  # the scan's echelon, the first made
    assert counts == [4, 4, 4]


@settings(max_examples=60, deadline=None)
@given(monomial_spans([F2, F3, F5], max_states=3), st.data())
def test_scan_solutions_equal_linalg_solve_on_the_same_rows(states, data):
    # the scan's tagged echelon solves its basis rows' system A z = d by
    # unit solutions alone; an echelon of [A | d] solves to the same z,
    # free unknowns 0, and the untagged rows give A's kernel
    f, n = states[0].field, states[0].length
    p, w, lanes = f.p, _lane_width(f.p), 1 + n * f.degree
    basis, rows, solve = sv._scan(f, n, states, sum(len(v.basis.rows) + 1 for v in states))
    a = [sv._equation_row(f, x) for _, x in basis]
    assert len(linalg.Echelon(p, lanes, a).lead) == len(a)
    digits = st.lists(st.integers(0, p - 1), min_size=len(a), max_size=len(a))
    rhss = data.draw(st.lists(digits, min_size=1, max_size=6))
    aug = [row | _lane_pack(col, w) << lanes * w for row, col in zip(a, zip(*rhss))]
    assert [solve(d) for d in rhss] == linalg.Echelon(p, lanes + len(rhss), aug).solutions(
        lanes, len(rhss))
    assert rows.kernel(lanes) == linalg.Echelon(p, lanes, a).kernel(lanes)


def test_stab_of_span_ignores_a_phase_on_each_state_the_first_included():
    # The filter reads each state's phase relative to the first state's
    # at the anchor, mod M: z^k on each state, k != 0 on the first, moves
    # no element and no element's place.
    states = _order_nine_fourier_span()
    turned = [state_make(F3, v.length, {x: a.rot(k) for x, a in v.amps.items()}, v.scale)
              for v, k in zip(states, itertools.cycle((1, 0, 2)))]
    want = stab_of_span(states)
    assert len(want) == 81
    assert stab_of_span(turned) == want


def test_stab_of_span_makes_only_its_result_and_scans_dim_plus_one_rows(monkeypatch):
    # The trials and generators stay packed: the order-4 Fourier span
    # makes one PauliElement per element of its result and no more.
    made = []
    monkeypatch.setattr(sv, "PauliElement", lambda *args: made.append(args) or PauliElement(*args))
    assert len(stab_of_span(_fourier_span())) == len(made) == 16
    monkeypatch.undo()
    # [[21,8]]_2: 256 code states on one full support of 2^12 labels.  Its
    # rows are affine in the label, so t and the 12 t + v_i give them all.
    c, d = twenty_one_eight()
    sc = build(c, d)
    states = [big_phi(c, d, sc.table, w) for w in iter_codewords(d)]
    rows, row = [], sv._equation_row
    monkeypatch.setattr(sv, "_equation_row", lambda *args: rows.append(args) or row(*args))
    group = stab_of_span(states)  # 2^12 shifts x 13 rows, inside the default budget
    assert len(states) == 256 and len(rows) <= 13
    assert len(group) == 2 ** 13 and set(sc.generators) <= set(group)


def test_stab_of_span_drops_zero_states():
    v = state_make(F2, 1, {(0,): ONE2})
    zero = state_make(F2, 1, {})
    want = {identity(F2, 1), z_op(F2, (1,))}
    assert set(stab_of_span([zero, v])) == set(stab_of_span([v, zero])) == want
    with pytest.raises(ValueError, match="zero span"):
        stab_of_span([zero])
    with pytest.raises(ValueError, match="zero span"):
        stab_of_span([zero, zero])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_span_equal_matches_complex_rank(data):
    states = data.draw(monomial_spans([F2, F3], max_states=6, max_labels=16))
    if len(states) == 1 or data.draw(st.booleans()):
        # B: phase-rotated copies of A in a drawn order, possibly not all of them
        a = states
        order = data.draw(st.permutations(range(len(a))))
        keep = data.draw(st.integers(1, len(a)))
        turns = data.draw(st.lists(st.integers(0, 3), min_size=keep, max_size=keep))
        b = [state_make(a[i].field, a[i].length, {x: amp.rot(e) for x, amp in a[i].amps.items()})
             for i, e in zip(order, turns)]
        if keep == len(a):
            assert span_equal(a, b)
    else:
        # A and B drawn independently on one space
        cut = data.draw(st.integers(1, len(states) - 1))
        a, b = states[:cut], states[cut:]
    assert span_equal(a, b) == oracles.span_equal_by_rank(a, b)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_is_fixed_agrees_with_apply(data):
    # apply hands back v itself exactly when g fixes it, the zero state
    # included; a moved image is a new state equal to the oracle's image
    (v,) = data.draw(monomial_spans([F2, F4, F3, F9, F5], max_states=1))
    f, n = v.field, v.length
    zero = data.draw(st.booleans(), label="zero state")
    if zero:
        v = state_make(f, n, {})
    if not zero and data.draw(st.booleans()):
        g = data.draw(st.sampled_from(stab_of_span([v])))
    else:
        vec = st.lists(st.integers(0, f.order - 1), min_size=n, max_size=n)
        g = PauliElement(f, data.draw(st.integers(0, 3)), data.draw(vec), data.draw(vec))
    w, fixed = apply(g, v), oracles.fixes(g, v)
    assert is_fixed(g, v) == (w is v) == fixed
    assert fixed or not zero  # every element fixes the zero state
    if not fixed:
        assert w != v and w.amps == oracles.image(g, v)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_apply_matches_image_oracle(data):
    (v,) = data.draw(monomial_spans([F2, F4, F3, F9, F5], max_states=1))
    f, n = v.field, v.length
    vec = st.lists(st.integers(0, f.order - 1), min_size=n, max_size=n)
    phase = data.draw(st.integers(0, phase_modulus(f) - 1))
    g = PauliElement(f, phase, data.draw(vec), data.draw(vec))
    w = apply(g, v)
    assert w.amps == oracles.image(g, v)
    assert w.scale == v.scale


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_apply_to_code_states_matches_image_oracle(data):
    # Code states fill their product basis, so apply acts on the full array
    # alone.  Certification counts only the states that move, so a wrong
    # image of a fixed state would pass it unseen.
    if data.draw(st.booleans(), label="from a pair"):
        c, d = draw_code_pair(data, 1024, buildable=True)
        v = big_phi(c, d, table_make(c, d.field), data.draw(st.sampled_from(list(iter_codewords(d)))))
        gens = build(c, d).generators
    else:
        base, c = data.draw(st.sampled_from(FOURIER_CODES), label="case")
        rows = data.draw(st.lists(st.integers(0, base.order - 1), min_size=1, max_size=2))
        v, gens = big_phi_from_matrix(base, c, rows), []
    f, n = v.field, v.length
    assert v.mask == v.basis.slots.full
    vec = st.lists(st.integers(0, f.order - 1), min_size=n, max_size=n)
    g = PauliElement(f, data.draw(st.integers(1, phase_modulus(f) - 1)), data.draw(vec),
                     data.draw(vec.filter(any)))
    for e in [*gens, g]:
        w = apply(e, v)
        assert w.amps == oracles.image(e, v)
        assert (w.mask, w.scale) == (w.basis.slots.full, v.scale)
    assert all(apply(e, v) == v for e in gens)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_act_on_a_packed_element_agrees_with_apply_and_is_fixed(data):
    # stab_of_span packs its trials from lane-packed a and b, apply packs
    # an element from its tuples; both act through _act, as is_fixed does
    f = data.draw(st.sampled_from([F2, F3, F4, F9]), label="field")
    if data.draw(st.booleans(), label="full support"):
        n = data.draw(st.integers(1, max(j for j in (1, 2) if f.order ** j <= 16)), label="n")
        exponent = st.integers(0, phase_modulus(f) - 1)
        v = state_make(f, n, {x: CycAmp.root(f.p, data.draw(exponent))
                              for x in itertools.product(range(f.order), repeat=n)})
        assert v.mask == v.basis.slots.full
    else:
        (v,) = data.draw(monomial_spans([f], max_states=1))
    n = v.length
    vec = st.lists(st.integers(0, f.order - 1), min_size=n, max_size=n)
    c, a, b = data.draw(st.integers(1, phase_modulus(f) - 1)), data.draw(vec), data.draw(vec)
    row = _trace_lanes(f, _vec_lanes(f, b))
    packed = [c, _vec_lanes(f, a), row, *sv._trace_form(f, n, row)] + [None] * 5
    moved = apply(x_op(f, data.draw(vec)), v)  # v's basis, most often at another offset
    order = data.draw(st.lists(st.sampled_from([v, moved]), min_size=1, max_size=4), label="order")
    for w in order:
        e = PauliElement(f, c, a, b)
        image = apply(e, w)
        assert sv._act(packed, w) == (image.offset, image.mask, image.arr)
        assert image.amps == oracles.image(e, w)
        assert is_fixed(e, w) == (image == w) == oracles.fixes(e, w)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_apply_with_a_filled_packed_form_equals_apply_with_a_fresh_element(data):
    (v,) = data.draw(monomial_spans([F2, F4, F3, F9, F5], max_states=1))
    f, n = v.field, v.length
    vec = st.one_of(st.just([0] * n), st.lists(st.integers(0, f.order - 1), min_size=n, max_size=n))
    phase, a, b = data.draw(st.integers(0, phase_modulus(f) - 1)), data.draw(vec), data.draw(vec)
    label = data.draw(st.tuples(*[st.integers(0, f.order - 1)] * n))
    warmers = [
        v,
        apply(x_op(f, data.draw(vec)), v),  # v's basis object, most often at another offset
        state_make(f, n, v.amps, v.scale),  # an equal but distinct basis
        state_make(f, n, {label: CycAmp.one(f.p)}),  # another basis, unless v has one label
    ]
    assert warmers[1].basis is v.basis and warmers[2].basis is not v.basis
    warm = PauliElement(f, phase, a, b)
    for w in data.draw(st.lists(st.sampled_from(warmers), min_size=1, max_size=6), label="order"):
        assert apply(warm, w) == apply(PauliElement(f, phase, a, b), w)
        assert apply(warm, v) == apply(PauliElement(f, phase, a, b), v)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_states_from_built_parts_equal_states_from_a_fresh_table(data):
    f = data.draw(st.sampled_from([F2, F4, F3, F9, F5]), label="field")
    k = data.draw(st.integers(1, 2 if f.order ** 2 <= 81 else 1), label="k")
    n = data.draw(st.integers(k, k + 1), label="n")
    size = f.order ** k  # |C| = |K|
    m = data.draw(st.integers(1, max(j for j in (1, 2, 3) if size ** j <= 4096)), label="m")
    s = data.draw(st.integers(1, max(j for j in range(1, m + 1) if size ** j <= 81)), label="s")
    K = field_make(f.p, f.degree * k)

    def rows(field, count, length):
        entry = st.integers(0, field.order - 1)
        drawn = data.draw(st.lists(st.tuples(*[entry] * length), min_size=count, max_size=count))
        assume(oracles.rank(field, drawn) == count)
        return drawn

    c, d = code_make(f, rows(f, k, n)), code_make(K, rows(K, s, m))
    words = data.draw(st.permutations(list(iter_codewords(d))), label="order")
    warm = table_make(c, K)
    states = [big_phi(c, d, warm, w) for w in words]
    for w, state in zip(words, states):
        assert big_phi(c, d, warm, w) == state == big_phi(c, d, table_make(c, K), w)


def draw_code_pair(data, slots: int, buildable: bool = False) -> tuple:
    """A drawn pair (C, D): C = [n, k] over F2, F4, F3, F9 or F5 with
    n in {k, k + 1}, and D = [m, s] over K = F_(q^k), so |C| = |K|, with
    |C|^m <= ``slots`` and |D| <= 81.  A ``buildable`` pair has k < n,
    s < m and no coordinate where all of D is 0, as ``build`` asks."""
    f = data.draw(st.sampled_from([F2, F4, F3, F9, F5]), label="field")
    k = data.draw(st.integers(1, 2 if f.order ** 2 <= 16 else 1), label="k")
    n = k + 1 if buildable else data.draw(st.integers(k, k + 1), label="n")
    size = f.order ** k
    m = data.draw(st.integers(1 + buildable, max(j for j in (1, 2, 3) if size ** j <= slots)),
                  label="m")
    s = data.draw(st.integers(1, max(j for j in range(1, m + 1 - buildable) if size ** j <= 81)),
                  label="s")
    K = field_make(f.p, f.degree * k)

    def rows(field, count, length):
        entry = st.integers(0, field.order - 1)
        drawn = data.draw(st.lists(st.tuples(*[entry] * length), min_size=count, max_size=count))
        assume(oracles.rank(field, drawn) == count)
        return drawn

    d_rows = rows(K, s, m)
    if buildable:  # a 1 in row 0 where all rows are 0 keeps the rows independent
        d_rows[0] = tuple(x or int(not any(r[j] for r in d_rows)) for j, x in enumerate(d_rows[0]))
    return code_make(f, rows(f, k, n)), code_make(K, d_rows)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_big_phi_equals_the_tensor_fold_of_its_phi_states(data):
    c, d = draw_code_pair(data, 1024)
    t = table_make(c, d.field)
    for w in data.draw(st.lists(st.sampled_from(list(iter_codewords(d))), min_size=1, max_size=3)):
        blocks = [phi(c, t, lam) for lam in w]
        assert big_phi(c, d, t, w) == functools.reduce(tensor, blocks)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_fold_spreads_compact_arrays_without_carries(p, k, m):
    # |C| = p^k.  The spread multiply of block 1 puts two values in one
    # off-target slot; all values p - 1 make that sum 2 (p - 1), the most.
    f = field_make(p, 1)
    c = code_make(f, [tuple(int(i == j) for j in range(k)) + (1,) for i in range(k)])
    width, step = sv._slot_width(phase_modulus(f)), phase_step(f)
    # the codeword of each slot of C: slot s holds the message with digit j of s as m_j
    words = [encode(c, msg[::-1]) for msg in itertools.product(range(p), repeat=k)]
    rng = random.Random(f"{p}:{k}:{m}")
    for values in ([[p - 1] * c.size] * m,
                   [[rng.randrange(p) for _ in range(c.size)] for _ in range(m)]):
        v = sv._fold(c, [sv._join(block, width) for block in values])
        assert v == functools.reduce(tensor, [sv._fold(c, [sv._join(block, width)])
                                              for block in values])
        expected = {}
        for slot in itertools.product(range(c.size), repeat=m):
            label = sum((words[s] for s in slot), ())
            expected[label] = CycAmp.root(p, step * sum(block[s] for block, s in zip(values, slot)))
        assert v.amps == expected


@pytest.mark.parametrize("p, modulus", [(2, 4), (3, 3), (5, 5)])
def test_linear_arrays_hold_the_form_mod_p(p, modulus):
    # the compact arrays of the code states: sum_j c_j X_j mod p in slot
    # sum_j X_j p^j, at the slot width of M, one ramp per coefficient
    rng = random.Random(p)
    for dim in range(4):
        coeffs = [rng.randrange(2 * p) for _ in range(dim)]
        slots = _slots(p, dim, modulus)
        want = [sum(c * (x // p ** j % p) for j, c in enumerate(coeffs)) % p for x in range(p ** dim)]
        assert slots.values(slots.linear(coeffs)) == want


@pytest.mark.parametrize("p, dim, modulus", [(2, 3, 4), (3, 2, 3), (5, 2, 5)])
def test_translate_is_the_per_digit_masked_shifts(p, dim, modulus):
    # fix_dim's translation, a plan and one loop, against the loop it replaced:
    # two masked shifts per nonzero digit, and the value of slot X at X + u
    slots = _slots(p, dim, modulus)
    rng = random.Random(dim)
    for _ in range(20):
        values = [rng.randrange(modulus) for _ in range(slots.size)]
        arr = sv._join(values, slots.width)
        u = [rng.randrange(p) for _ in range(dim)]
        want = arr
        for j, t in enumerate(u):
            if t:
                low, high = slots.mask(j, t)
                want = (want & low) << t * slots.bits[j] | (want & high) >> (p - t) * slots.bits[j]
        assert _moved(arr, slots.plan(u)) == want

        def back(y):  # the slot X with X + u = y
            return sum((y // p ** j - t) % p * p ** j for j, t in enumerate(u))

        assert slots.values(want) == [values[back(y)] for y in range(slots.size)]


def test_plans_are_kept_by_digits_and_the_memo_is_bounded():
    # one plan object per digit tuple, list or tuple alike, until 4096 are
    # kept; the next one empties the memo, and plans built after it are right
    slots = _Slots(2, 13, 4)
    first = slots.plan([1] + [0] * 12)
    assert slots.plan((1,) + (0,) * 12) is first
    digits = [[x >> j & 1 for j in range(13)] for x in range(2, 4098)]
    for u in digits[:-1]:
        slots.plan(u)
    assert len(slots._plans) == 4096 and slots.plan([1] + [0] * 12) is first
    last = slots.plan(digits[-1])
    assert list(slots._plans.values()) == [last]
    fresh = _Slots(2, 13, 4)
    for u in digits[:8] + digits[-8:]:
        assert slots.plan(u) == fresh.plan(u)


@pytest.mark.parametrize("p", [2, 3])
def test_apply_rebuilds_its_plan_for_each_basis_and_offset(p):
    # one element, applied in turn to states on two bases at two offsets
    # each, full and partial supports: every call equals a fresh element's
    f = field_make(p, 1)
    c = code_make(f, [(1, 0, 1), (0, 1, 1)])
    h = kron_fourier(p, 2)
    shift = x_op(f, (0, 0, 0, 1, 0, 0))
    full = [big_phi_from_matrix(h, c, (r, r)) for r in range(2)]
    partial = state_make(f, 6, {(0,) * 6: CycAmp.one(p), (1, 0, 1, 0, 0, 0): CycAmp.one(p),
                                (0, 1, 1, 0, 0, 1): CycAmp.root(p, 1)})
    states = full + [apply(shift, v) for v in full] + [partial, apply(shift, partial)]
    assert len({(id(v.basis), v.offset) for v in states}) == 4
    rng = random.Random(p)
    for _ in range(4):
        g = PauliElement(f, rng.randrange(phase_modulus(f)), [rng.randrange(p) for _ in range(6)],
                         [rng.randrange(p) for _ in range(6)])
        for v in states + states[::-1] + states[::2] + states[1::2]:
            assert apply(g, v) == apply(PauliElement(f, g.phase, g.a, g.b), v)


FOURIER_CODES = [
    (kron_fourier(2, 2), code_make(F2, [(1, 0, 1), (0, 1, 1)])),
    (kron_fourier(2, 2), code_make(F4, [(1, 2, 3)])),
    (kron_fourier(2, 3), code_make(F2, [(1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1)])),
    (kron_fourier(3, 2), code_make(F3, [(1, 0, 1), (0, 1, 2)])),
    (kron_fourier(3, 2), code_make(F9, [(1, 3, 5)])),
]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_matrix_states_equal_the_tensor_fold_of_their_rows(data):
    base, c = data.draw(st.sampled_from(FOURIER_CODES), label="case")
    order = base.order
    perm = data.draw(st.permutations(range(order)), label="columns")
    matrix = BhMatrix(order, base.p, tuple(tuple(r[j] for j in perm) for r in base.rows),
                      col_labels=base.col_labels)
    rows = data.draw(st.lists(st.integers(0, order - 1), min_size=1, max_size=2), label="rows")
    rows.insert(data.draw(st.integers(0, len(rows)), label="at"), rows[0])  # a repeated row
    singles = [big_phi_from_matrix(matrix, c, [r]) for r in rows]
    assert big_phi_from_matrix(matrix, c, rows) == functools.reduce(tensor, singles)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_state_has_one_form_however_it_is_built(data):
    # Supports are arbitrary, affine or not (such as {0, 1, 2} in F_5);
    # equal states must compare equal whichever constructor made them.
    fields = [F2, F4, F3, F9, F5]
    (v,) = data.draw(monomial_spans(fields, max_states=1))
    f, n = v.field, v.length
    (w,) = data.draw(monomial_spans([f], max_states=1, max_labels=16))
    scale = st.integers(-3, 3)
    v = state_make(f, n, v.amps, data.draw(scale))
    w = state_make(f, w.length, w.amps, data.draw(scale))
    vw = tensor(v, w)
    assert vw == state_make(f, n + w.length, vw.amps, vw.scale)
    vec = st.lists(st.integers(0, f.order - 1), min_size=n, max_size=n)
    g = PauliElement(f, data.draw(st.integers(0, phase_modulus(f) - 1)), data.draw(vec), data.draw(vec))
    assert apply(g, v) == state_make(f, n, oracles.image(g, v), v.scale)
    # one exponent, one label or the scale off makes a different state
    x = data.draw(st.sampled_from(sorted(v.amps)))
    turned = dict(v.amps) | {x: v.amps[x].rot(data.draw(st.integers(1, phase_modulus(f) - 1)))}
    assert state_make(f, n, turned, v.scale) != v
    others = [y for y in itertools.product(range(f.order), repeat=n) if y not in v.amps]
    if others:
        extra = dict(v.amps) | {data.draw(st.sampled_from(others)): CycAmp.one(f.p)}
        assert state_make(f, n, extra, v.scale) != v
    if len(v.amps) > 1:
        fewer = {y: a for y, a in v.amps.items() if y != x}
        assert state_make(f, n, fewer, v.scale) != v
    assert state_make(f, n, v.amps, v.scale + 1) != v


def test_a_non_affine_support_keeps_its_span_and_holes():
    # {0, 1, 2} in F_5 spans all five labels; 3 and 4 are holes of the mask
    amps = {(0,): CycAmp.one(5), (1,): CycAmp.root(5, 2), (2,): CycAmp.root(5, 4)}
    v = state_make(F5, 1, amps)
    assert v.basis.slots.size == 5 and frozenset(v.amps) == {(0,), (1,), (2,)}
    w = apply(x_op(F5, (3,)), v)
    assert frozenset(w.amps) == {(3,), (4,), (0,)}
    assert w == state_make(F5, 1, oracles.image(x_op(F5, (3,)), v))
    assert apply(x_op(F5, (2,)), w) == v


def test_fix_dim_counts_match_group_order_oracle():
    v = state_make(F2, 1, {(0,): ONE2})
    gens = [z_op(F2, (1,))]
    assert fix_dim(gens) == 1
    assert oracles.fix_dim_by_counting(F2, 1, gens) == 1

    c, d = helpers.four_one_pair()
    sc = build(c, d)
    assert fix_dim(sc) == 2
    assert oracles.fix_dim_by_counting(F2, 4, sc.generators) == 2


def test_fix_dim_shor_and_ternary():
    sc = build(*helpers.shor_pair())
    assert fix_dim(sc) == 2
    assert oracles.fix_dim_by_counting(F2, 9, sc.generators) == 2
    sc3 = build(*helpers.nine_qutrit_pair())
    assert fix_dim(sc3) == 3


@pytest.mark.parametrize("p", [5, 7])
def test_fix_dim_repetition_pair_beyond_ternary(p):
    f = field_make(p, 1)
    sc = build(helpers.repetition(f, 2), helpers.repetition(f, 2))
    parsed = stab_from_text(stab_to_text(sc))
    assert fix_dim(parsed) == oracles.fix_dim_by_counting(f, 4, parsed.generators) == p


def test_fix_dim_large_qudit():
    # one GF(3^8) qudit: lane codes span 24 bits, so trace tables sized
    # by lane code rather than by the 6561 elements would not fit
    f = field_make(3, 8)
    gens = [z_op(f, (5,)), z_op(f, (7,))]  # 7 = 2 * 5, so one constraint
    assert fix_dim(gens) == oracles.fix_dim_by_counting(f, 1, gens) == 2187


def test_fix_dim_one_large_prime_qudit():
    # 65521 labels in slots of 17 bits: every spread and mask must take
    # O(log p) big-int steps, not p
    f = field_make(65521, 1)
    for gens in ([x_op(f, (1,))], [z_op(f, (1,))]):
        assert fix_dim(gens) == oracles.fix_dim_by_orbits(f, 1, gens) == 1


def test_fix_dim_rejects_generators_of_another_space():
    with pytest.raises(LengthMismatch):
        fix_dim([z_op(F2, (1, 1)), x_op(F2, (1, 1, 1))])
    with pytest.raises(DimensionMismatch):
        fix_dim([z_op(F2, (1,)), z_op(F4, (2,))])
    sc = build(*helpers.four_one_pair())
    with pytest.raises(LengthMismatch):
        fix_dim(SimpleNamespace(field=F2, num_qudits=5, generators=sc.generators))
    with pytest.raises(DimensionMismatch):
        fix_dim(SimpleNamespace(field=F4, num_qudits=4, generators=sc.generators))


@st.composite
def generator_lists(draw, fields, max_labels=1 << 10):
    """(field, N, generators): arbitrary lists, commuting or not, with
    a = 0 or b = 0 at times, random phases and, at times, a product of
    two earlier generators under a fresh phase."""
    f = draw(st.sampled_from(fields))
    most = 1
    while f.order ** (most + 1) <= max_labels:
        most += 1
    n = draw(st.integers(1, most))
    vec = st.lists(st.integers(0, f.order - 1), min_size=n, max_size=n)
    phase = st.integers(0, phase_modulus(f) - 1)
    gens = []
    for _ in range(draw(st.integers(1, n + 2))):
        kind = draw(st.sampled_from(("xz", "x", "z")))
        a = draw(vec) if kind != "z" else (0,) * n
        b = draw(vec) if kind != "x" else (0,) * n
        gens.append(PauliElement(f, draw(phase), a, b))
    if len(gens) > 1 and draw(st.booleans()):
        prod = mul(gens[0], gens[1])
        gens.append(PauliElement(f, draw(phase), prod.a, prod.b))
    return f, n, gens


@settings(max_examples=150, deadline=None)
@given(generator_lists([F2, F4, F3, F9, F5, F7]))
def test_fix_dim_matches_orbit_oracle_on_arbitrary_lists(case):
    f, n, gens = case
    dim = fix_dim(gens)
    assert dim == oracles.fix_dim_by_orbits(f, n, gens)
    if all(commutes(g, h) for g in gens for h in gens):
        assert dim == oracles.fix_dim_by_counting(f, n, gens)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_clean_generator_lists_fix_a_space_of_dimension_q_to_the_k(data):
    # The symplectic and state-vector oracles on one claim: a list that
    # verify_generators passes, g phase-free generators on N qudits of a
    # prime field, fixes a space of dimension q^(N - g).
    f = data.draw(st.sampled_from([F2, F3]), label="field")
    n = data.draw(st.integers(1, 3), label="N")
    vec = st.tuples(*[st.integers(0, f.order - 1)] * n)
    pairs = data.draw(st.lists(st.tuples(vec, vec), max_size=3), label="generators")
    sc = StabilizerCode(f, n, n - len(pairs), 1, 1, [PauliElement(f, 0, a, b) for a, b in pairs])
    if not verify_generators(sc):
        assert fix_dim(sc) == f.order ** sc.log_dim_exp


def test_fix_dim_budget_guard():
    gens = [z_op(F2, (1,) + (0,) * 16)]
    with pytest.raises(BudgetExceeded):
        fix_dim(gens, budget=1 << 16)
    assert fix_dim(gens) == 1 << 16
    assert DEFAULT_BUDGET == 1 << 22


# -- fix_dim on the coset A where the diagonal generators act as 1


def recorded_slot_counts(monkeypatch):
    """The slot count of every ``_Basis`` that statevec builds from here on."""
    real, sizes = sv._Basis, []

    def basis(*args):
        out = real(*args)
        sizes.append(out.slots.size)
        return out

    monkeypatch.setattr(sv, "_Basis", basis)
    return sizes


def test_fix_dim_is_zero_when_a_diagonal_phase_is_no_multiple_of_step():
    # i Z(1, 0) at p = 2: i^(1 + 2 tr(x_0)) is never 1
    gens = [PauliElement(F2, 1, (0, 0), (1, 0)), x_op(F2, (0, 1))]
    assert fix_dim(gens) == oracles.fix_dim_by_orbits(F2, 2, gens) == 0


@pytest.mark.parametrize("f", [F2, F3, F4, F9])
def test_fix_dim_is_zero_on_an_inconsistent_diagonal_system(f):
    # Z(1) asks tr(x_0) = 0 and z^step Z(1) asks tr(x_0) = -1
    gens = [z_op(f, (1, 0)), PauliElement(f, phase_step(f), (0, 0), (1, 0)), x_op(f, (0, 1))]
    assert fix_dim(gens) == oracles.fix_dim_by_orbits(f, 2, gens) == 0


@pytest.mark.parametrize("f", [F2, F3, F4, F9])
def test_fix_dim_is_zero_when_an_x_part_leaves_the_coset(f, monkeypatch):
    # Z(1, 1) keeps tr(x_0 + x_1) = 0, and X(a, 0) with tr(a) != 0 moves
    # every such label off it; X(a, -a) stays on it
    a = next(x for x in range(f.order) if oracles.oracle_trace(f, x))
    gens = [z_op(f, (1, 1)), x_op(f, (a, 0))]
    sizes = recorded_slot_counts(monkeypatch)
    assert fix_dim(gens) == oracles.fix_dim_by_orbits(f, 2, gens) == 0
    assert sizes == [f.p ** (2 * f.degree - 1)]
    inside = [z_op(f, (1, 1)), x_op(f, (a, f.mul(f.p - 1, a)))]
    assert fix_dim(inside) == oracles.fix_dim_by_orbits(f, 2, inside) > 0


@pytest.mark.parametrize("f", [F2, F3, F4, F9])
def test_fix_dim_of_diagonal_generators_alone_counts_their_coset(f, monkeypatch):
    # two independent F_p conditions on 3 qudits of r digits: p^(3r - 2) labels
    gens = [z_op(f, (1, 1, 0)), PauliElement(f, phase_step(f), (0, 0, 0), (0, 1, 1))]
    sizes = recorded_slot_counts(monkeypatch)
    assert fix_dim(gens) == oracles.fix_dim_by_orbits(f, 3, gens) == f.p ** (3 * f.degree - 2)
    assert sizes == [f.p ** (3 * f.degree - 2)]


def test_fix_dim_with_no_diagonal_generator_runs_on_the_whole_space(monkeypatch):
    gens = [x_op(F3, (1, 2)), PauliElement(F3, 1, (0, 1), (1, 1)), x_op(F3, (2, 1))]
    sizes = recorded_slot_counts(monkeypatch)
    assert fix_dim(gens) == oracles.fix_dim_by_orbits(F3, 2, gens)
    assert sizes == [9]


def twenty_one_eight() -> tuple:
    """(C, D) of [[21,8]]_2: C = Hamming [7,4]_2 and D = <101, 011> over GF(16)."""
    return (code_make(F2, [(1, 0, 0, 0, 1, 1, 0), (0, 1, 0, 0, 0, 1, 1),
                           (0, 0, 1, 0, 1, 1, 1), (0, 0, 0, 1, 1, 0, 1)]),
            code_make(field_make(2, 4), [(1, 0, 1), (0, 1, 1)]))


def test_fix_dim_runs_21_8_on_the_coset_of_its_z_rows(monkeypatch):
    # [[21,8]]_2: the 9 Z rows (C^perp in each block) leave 2^12 of the 2^21 labels
    sc = build(*twenty_one_eight())
    sizes = recorded_slot_counts(monkeypatch)
    assert fix_dim(sc) == 1 << 8
    assert sizes == [1 << 12]
    with pytest.raises(BudgetExceeded, match=r"^fix_dim labels: 2097152 requested,"):
        fix_dim(sc, budget=1 << 20)  # the budget still counts all 2^21 labels


@pytest.mark.parametrize("pair", [helpers.shor_pair, helpers.nine_qutrit_pair], ids=["F2", "F3"])
def test_fix_dim_leaves_each_generator_the_form_apply_reads(pair, monkeypatch):
    # A certification runs fix_dim and then applies the same generators to
    # the code states: fix_dim acts through the generators' own forms, so
    # the applies build no trace form again.
    c, d = pair()
    sc = build(c, d)
    table = table_make(c, d.field)
    states = [big_phi(c, d, table, w) for w in iter_codewords(d)]
    assert fix_dim(sc) == sc.field.order ** sc.log_dim_exp
    forms, real = [], sv._trace_form
    monkeypatch.setattr(sv, "_trace_form", lambda *args: forms.append(args) or real(*args))
    assert all(apply(g, v) == v for g in sc.generators for v in states)
    assert forms == []


@settings(max_examples=100, deadline=None)
@given(generator_lists([F2, F4, F3, F9, F5], max_labels=1 << 8), st.data())
def test_fix_dim_refills_forms_left_for_another_basis(case, data):
    # apply leaves each generator's form filled for the basis and offset
    # it last met; fix_dim acts through that form on its own coset, so
    # it must refill it, as must a later fix_dim on another coset
    f, n, gens = case
    one = CycAmp.one(f.p)
    warmers = [state_make(f, n, {(0,) * n: one}),  # offset 0 on a basis of no rows
               state_make(f, n, {x: one for x in itertools.product(range(f.order), repeat=n)})]
    for g in gens:
        apply(g, data.draw(st.sampled_from(warmers), label="warmer"))
    if len(gens) > 1 and data.draw(st.booleans(), label="fix_dim of a sublist first"):
        fix_dim(gens[1:])
    assert fix_dim(gens) == oracles.fix_dim_by_orbits(f, n, gens)


@pytest.mark.parametrize("fault", ["short kernel", "foreign kernel row", "offset off the coset"])
def test_fix_dim_self_check_sees_faulty_coset_algebra(fault, monkeypatch):
    # each fault corrupts what fix_dim reads off its one echelon; a foreign
    # row comes back reduced, as Echelon.of_reduced asks
    sc = build(*helpers.shor_pair())
    echelon = linalg.Echelon
    kernel, solutions = echelon.kernel, echelon.solutions
    if fault == "short kernel":
        monkeypatch.setattr(echelon, "kernel", lambda self, lanes: kernel(self, lanes)[:-1])
    elif fault == "foreign kernel row":  # e_0 meets the Z check on qubits 0 and 1
        monkeypatch.setattr(echelon, "kernel", lambda self, lanes: echelon(
            self.p, lanes, kernel(self, lanes)[:-1] + [1]).rows)
    else:
        monkeypatch.setattr(echelon, "solutions",
                            lambda *args: [x ^ 1 for x in solutions(*args)])
    with pytest.raises(ArithmeticError, match="coset"):
        fix_dim(sc)


def test_fix_dim_eliminates_its_diagonal_system_once(monkeypatch):
    # Shor's 6 Z checks make the one elimination: t, the rank and V are
    # read off it, and the tree span of the 2 X parts is built row by row
    sc = build(*helpers.shor_pair())
    made = helpers.counted_echelons(monkeypatch)
    assert fix_dim(sc) == 2
    assert made == [6]


def test_apply_on_one_qudit_over_gf_65521_matches_the_label_view():
    # the trace form of b must cost O(log p) big-int steps per coefficient
    # met: a table of all p coefficients would take O(p^2 log p) bits here
    f = field_make(65521, 1)
    c = code_make(f, [(1,)])
    v = phi(c, table_make(c, f), 3)

    def view(state):
        return {_lanes_vec(f, 1, x): e for x, e in state.exps.items()}

    assert len(view(v)) == f.order
    assert view(apply(x_op(f, (5,)), v)) == {(f.add(x, 5),): e for (x,), e in view(v).items()}
    assert view(apply(z_op(f, (7,)), v)) == {
        (x,): (e + oracles.oracle_trace(f, f.mul(7, x))) % f.p for (x,), e in view(v).items()}


def test_cyc_amp_equal_values_hash_equal():
    # 1 + z^2 = 0 at M = 4: one value, two coefficient vectors
    zero, empty = CycAmp(2, (1, 0, 1)), CycAmp(2, ())
    assert zero == empty
    assert hash(zero) == hash(empty)
    assert len({zero, empty}) == 1


def test_phi_rejects_another_codes_table():
    c, d, _ = shor_setup()
    other = code_make(F2, [(1, 1)])
    with pytest.raises(DimensionMismatch, match="functional table belongs to a different code"):
        phi(other, table_make(c, d.field), 0)


def test_big_phi_from_matrix_rejects_another_order_or_characteristic():
    c = code_make(F2, [(1, 1)])
    with pytest.raises(DimensionMismatch, match="matrix order 4 != number of codewords 2"):
        big_phi_from_matrix(kron_fourier(2, 2), c, [0])
    with pytest.raises(DimensionMismatch, match="matrix entries mod 3, field characteristic 2"):
        big_phi_from_matrix(BhMatrix(2, 3, [(0, 0), (0, 1)]), c, [0])


def test_stab_of_span_rejects_states_of_two_spaces():
    c2, c3 = code_make(F2, [(1, 1)]), code_make(F2, [(1, 1, 1)])
    states = [phi(c2, table_make(c2, F2), 0), phi(c3, table_make(c3, F2), 0)]
    with pytest.raises(DimensionMismatch, match="states of one span live in different spaces"):
        stab_of_span(states)


def test_fix_dim_rejects_an_empty_generator_list():
    with pytest.raises(ValueError, match="cannot infer the space from an empty generator list"):
        fix_dim([])
