"""Pauli elements in normal form and their symplectic shadows."""

import itertools

import pytest

from qbh.errors import LengthMismatch
from qbh.gf import field_make
from qbh.pauli import (
    PauliElement,
    commutes,
    detectable,
    identity,
    mul,
    phase_modulus,
    phase_step,
    psi,
    swt,
    symp_ip,
    x_op,
    z_op,
)
from qbh.construct import build
from qbh.statevec import CycAmp, apply, state_make

import helpers
import oracles

F2 = field_make(2, 1)
F3 = field_make(3, 1)
F4 = field_make(2, 2)


def test_phase_modulus():
    assert phase_modulus(F2) == 4
    assert phase_modulus(F4) == 4
    assert phase_modulus(F3) == 3
    assert phase_modulus(field_make(5, 1)) == 5


def test_phase_step():
    assert [phase_step(f) for f in (F2, F4, F3, field_make(5, 1))] == [2, 2, 1, 1]


def test_psi_drops_phase():
    e = PauliElement(F2, 3, (1, 0), (0, 1))
    assert psi(e) == PauliElement(F2, 0, (1, 0), (0, 1))
    assert psi(x_op(F2, (1,))).a == (1,)
    assert psi(identity(F2, 2)).a == (0, 0)


@pytest.mark.parametrize("field,phase,a,b", [
    (F2, 3, (1, 0), (0, 1)), (F4, 1, (2, 3), (0, 0)), (F3, 2, (0, 0), (1, 2)),
])
def test_packed_form_stays_out_of_equality_and_is_never_copied(field, phase, a, b):
    warm, fresh = PauliElement(field, phase, a, b), PauliElement(field, phase, a, b)
    point = state_make(field, 2, {(0, 0): CycAmp.one(field.p)})
    apply(warm, point)
    assert warm._packed is not None and fresh._packed is None
    assert warm == fresh and fresh == warm and len({warm, fresh}) == 1
    assert hash(warm) == hash(fresh) and repr(warm) == repr(fresh)
    # the last basis and offset acted on, and the work kept for them, are
    # left out too: two elements warmed on different bases stay equal
    other = PauliElement(field, phase, a, b)
    flat = state_make(field, 2, {x: CycAmp.one(field.p) for x in itertools.product(range(2), repeat=2)})
    apply(other, flat)
    (*_, warm_basis, _, _, _, _), (*_, other_basis, _, _, _, _) = warm._packed, other._packed
    assert warm_basis is point.basis and other_basis is flat.basis
    assert warm == other and hash(warm) == hash(other) and repr(warm) == repr(other)
    # every constructor starts with an empty packed form, also from a
    # filled element with the same a and b
    made = [psi(warm), mul(warm, warm), mul(warm, identity(field, 2)),
            identity(field, 2), x_op(field, a), z_op(field, b)]
    assert all(e._packed is None for e in made)


def test_mul_identity():
    e = PauliElement(F3, 2, (1, 2), (0, 1))
    assert mul(e, identity(F3, 2)) == e
    assert mul(identity(F3, 2), e) == e


def test_mul_binary_anticommutation():
    zx = mul(z_op(F2, (1,)), x_op(F2, (1,)))
    assert zx.phase == 2 and zx.a == (1,) and zx.b == (1,)
    xz = mul(x_op(F2, (1,)), z_op(F2, (1,)))
    assert xz.phase == 0


def test_mul_ternary_cross_term():
    zx = mul(z_op(F3, (1,)), x_op(F3, (1,)))
    assert zx.phase == 1 and zx.a == (1,) and zx.b == (1,)


@pytest.mark.parametrize("field", [F2, F3, F4])
def test_mul_matches_matrix_oracle_one_qudit(field):
    modulus = phase_modulus(field)
    elems = [PauliElement(field, c, (a,), (b,))
             for c in range(modulus)
             for a in field.elements()
             for b in field.elements()]
    # spot phases and full symplectic range: compare against dense products
    mats = {e: oracles.pauli_matrix(e) for e in elems}
    sample = elems if field.order <= 3 else elems[:: 3]
    for e1 in sample:
        for e2 in sample:
            prod = mul(e1, e2)
            want = oracles.mat_mul(mats[e1], mats[e2])
            assert oracles.mat_close(oracles.pauli_matrix(prod), want)


@pytest.mark.parametrize("field", [F2, F3, F4])
def test_commutes_matches_matrix_oracle_one_qudit(field):
    pairs = [(a, b) for a in field.elements() for b in field.elements()]
    for a1, b1 in pairs:
        for a2, b2 in pairs:
            e1 = PauliElement(field, 0, (a1,), (b1,))
            e2 = PauliElement(field, 0, (a2,), (b2,))
            m1 = oracles.pauli_matrix(e1)
            m2 = oracles.pauli_matrix(e2)
            want = oracles.mat_close(oracles.mat_mul(m1, m2), oracles.mat_mul(m2, m1))
            assert commutes(e1, e2) == want


def test_symp_ip_examples():
    u = PauliElement(F2, 0, (1,), (0,))
    v = PauliElement(F2, 0, (0,), (1,))
    assert type(symp_ip(u, v)) is int and symp_ip(u, v) == 1
    assert symp_ip(u, u) == 0
    w1 = PauliElement(F2, 0, (1, 0), (0, 1))
    w2 = PauliElement(F2, 0, (0, 1), (1, 0))
    assert symp_ip(w1, w2) == 0


def test_symp_ip_matches_the_trace_definition():
    # tr(u.b . v.a - v.b . u.a), the trace the identity on F_3
    for a1, b1, a2, b2 in itertools.product(F3.elements(), repeat=4):
        u = PauliElement(F3, 0, (a1,), (b1,))
        v = PauliElement(F3, 0, (a2,), (b2,))
        assert symp_ip(u, v) == (b1 * a2 - b2 * a1) % 3


def test_symp_ip_is_alternating_and_bilinear():
    f = F4
    vecs = [PauliElement(f, 0, (a, b), (c, d))
            for a, b, c, d in itertools.islice(itertools.product(f.elements(), repeat=4), 40)]
    for u in vecs[:10]:
        assert symp_ip(u, u) == 0
        for v in vecs[:10]:
            assert symp_ip(u, v) == -symp_ip(v, u) % f.p


def test_swt():
    assert swt(((0, 0, 0), (0, 0, 0))) == 0
    assert swt(((1, 0, 1), (0, 1, 1))) == 3
    assert swt(((1, 0, 0), (1, 0, 0))) == 1
    assert swt(PauliElement(F3, 1, (0, 2), (0, 1))) == 1


def test_commutes_examples():
    assert commutes(x_op(F2, (1,)), x_op(F2, (1,)))
    assert not commutes(x_op(F2, (1,)), z_op(F2, (1,)))
    assert commutes(x_op(F2, (1, 1)), z_op(F2, (1, 1)))


def test_detectable_on_shor():
    sc = build(*helpers.shor_pair())
    for g in sc.generators:
        assert detectable(sc, g)
    assert detectable(sc, x_op(F2, (1, 0, 0, 0, 0, 0, 0, 0, 0)))
    assert not detectable(sc, x_op(F2, (1,) * 9))


def test_mul_rejects_mismatched_operands():
    with pytest.raises(LengthMismatch):
        mul(x_op(F2, (1,)), x_op(F2, (1, 0)))
    with pytest.raises(ValueError):
        mul(x_op(F2, (1,)), x_op(F3, (1,)))


def test_pauli_element_rejects_parts_of_unequal_length():
    with pytest.raises(LengthMismatch, match="X part and Z part must have equal length"):
        PauliElement(F2, 0, (1,), (1, 0))


def test_symp_ip_rejects_other_fields_and_lengths():
    with pytest.raises(ValueError, match="vectors over different fields"):
        symp_ip(x_op(F2, (1,)), x_op(field_make(3, 1), (1,)))
    with pytest.raises(LengthMismatch, match="vectors of different lengths"):
        symp_ip(x_op(F2, (1,)), x_op(F2, (1, 0)))


def test_detectable_rejects_an_error_of_the_wrong_length():
    code = build(*helpers.shor_pair())
    with pytest.raises(LengthMismatch, match="error does not act on the code's qudits"):
        detectable(code, x_op(F2, (1, 0)))


@pytest.mark.parametrize("a, b, bad", [
    ((5, 0), (0, 0), 5),  # 5 would fill F4's 2-bit chunk and the next: X(5, 0) acted as X(1, 1)
    ((-1, 0), (0, 0), -1),  # X(-1, 0) moved a state to a negative label
    ((0, 0), (0, 4), 4),  # symp_ip read a trace table past its end
], ids=["overflow-aliases-another-element", "negative-entry", "overflow-in-z-part"])
def test_pauli_element_refuses_entries_outside_its_field(a, b, bad):
    with pytest.raises(ValueError, match=f"^entry {bad} is not a packed element of GF\\(2\\^2\\)$"):
        PauliElement(F4, 0, a, b)
    with pytest.raises(ValueError, match=f"entry {bad} "):
        (x_op if any(a) else z_op)(F4, a if any(a) else b)
