"""Exact state vectors for desk-scale verification.

Every state here is monomial: on each label of its support the
amplitude is a root of unity z^e, with z = e^(2 pi i/M) and M =
``pauli.phase_modulus``, the phase convention of ``pauli``: M = p, and
M = 4 at p = 2, where operator phases are powers of i.  A trace value t
enters as omega^t = z^(step t), step = M / p.  Sums of amplitudes, such
as inner products, lie in Z[z] and are kept exactly as ``CycAmp``.
Normalisation factors (powers of 1/sqrt(p)) ride along as a symbolic
exponent on the state, never as a float.

A state is stored as a coset slot array.  Labels are lane-packed (the
vector format of ``gf``, coordinate i in chunk i).  The support lies in
its affine span t + V over F_p, and V has one reduced echelon basis
v_0, ..., v_(D-1), held lane-packed with its pivot lanes; the offset t
is zero at those lanes.  The label t + sum_i X_i v_i owns slot number
sum_i X_i p^i, so a state is two slot arrays of p^D slots (see
``slots``): ``mask``, all ones on the support, and ``arr``, the
exponent mod M on the support and 0 elsewhere.  The form is unique,
so equality compares it as plain values.  z^c X(a) Z(b) moves t + V to
t + a + V: the slots translate by the digits of a at the pivot lanes,
and the phase c + step tr(b.x) is affine in the slot digits, so
``apply`` costs a few big-int operations per basis row and none per
label.  ``exps`` (label -> exponent) and ``amps`` (label tuple ->
CycAmp) are read-only views of the form, built on first access.
"""

from __future__ import annotations

import functools
import itertools
import operator
from fractions import Fraction
from types import SimpleNamespace

from . import linalg
from .errors import (DEFAULT_BUDGET, BudgetExceeded, DimensionMismatch, LabelsNotGroup,
                     LengthMismatch, NotACodeword)
from .gf import _lane_adder, _lane_pack, _lane_width, _lanes_vec, _vec_lanes, field_make
from .lincode import LinearCode, contains, fp_basis
from .pauli import PauliElement, phase_modulus, phase_step, symp_ip_int
from .pauli import mul as pauli_mul
from .slots import _Basis, _join, _slots


@functools.cache
def _ring(p: int) -> tuple:
    """(M, step) for characteristic p: z = e^(2 pi i/M) and omega = z^step."""
    f = field_make(p, 1)
    return phase_modulus(f), phase_step(f)


class CycAmp:
    """One exact amplitude: an element of Z[z], z = e^(2 pi i/M).

    z is a root of the monic Phi_M(x) = sum_{j<p} x^(j step), which is
    1 + x + ... + x^(p-1) at M = p and 1 + x^2 at M = 4.  An element is
    kept as its coefficient vector over the powers of z reduced modulo
    Phi_M: M - step coefficients, p - 1 at odd p and (re, im) at p = 2.
    The constructor takes any coefficient vector, entry j standing for
    z^j.  Canonical forms are unique, so equality is plain tuple equality.
    """

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs):
        self.p = p
        m, step = _ring(p)
        deg = m - step
        c = [0] * m
        for j, x in enumerate(coeffs):
            c[j % m] += x
        # for deg <= i < M, z^i = -(z^(i-deg) + z^(i-deg+step) + ... + z^(i-step))
        for i in range(deg, m):
            for j in range(i - deg, i, step):
                c[j] -= c[i]
        self.coeffs = tuple(c[:deg])

    @classmethod
    def one(cls, p: int) -> "CycAmp":
        return cls(p, (1,))

    @classmethod
    def root(cls, p: int, e: int) -> "CycAmp":
        """z^e, e taken mod M."""
        return cls(p, (0,) * (e % _ring(p)[0]) + (1,))

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __mul__(self, other: "CycAmp") -> "CycAmp":
        out = [0] * (2 * len(self.coeffs))
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return CycAmp(self.p, out)

    def rot(self, e: int) -> "CycAmp":
        """Multiply by z^e."""
        return self * CycAmp.root(self.p, e)

    def __eq__(self, other):
        return (
            isinstance(other, CycAmp)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __repr__(self):
        return f"CycAmp(p={self.p}, {list(self.coeffs)})"


# --- labels ---------------------------------------------------------------


@functools.cache
def _trace_tables(p: int, width: int) -> tuple:
    """(rep, pattern) of ``_trace_form`` for labels of ``width`` bits:
    pattern[t] holds the bits of big for lane 0 with coefficient t."""
    rep = sum(1 << (s * width) for s in range(p - 1))
    pattern = [sum(1 << (s * width + k) for k in range((p - 1).bit_length())
                   for s in range((t << k) % p)) for t in range(p)]
    return rep, pattern


def _trace_form(f, b):
    """(rep, big) with tr(b.x) = popcount((x * rep) & big) mod p.

    Here x is a lane-packed label of length len(b).  tr(b.x) is the sum
    over lanes of x_l tr(b_i p^j), lane l holding digit j of coordinate
    i, so each bit of x carries a fixed coefficient v mod p.  Multiplying
    by rep lays p - 1 copies of x side by side, and big keeps in copy s
    the bits whose coefficient exceeds s, so one popcount counts each
    set bit v times.  At p = 2, rep = 1 and big is the bit mask of b.
    """
    w = _lane_width(f.p)
    rep, pattern = _trace_tables(f.p, len(b) * f.degree * w)
    big = 0
    for lane, t in enumerate(f.trace_rows(b)):
        if t:
            big |= pattern[t] << lane * w
    return rep, big


class StateVector:
    """Immutable monomial state over F_q^N, as a coset slot array.

    ``basis`` spans the directions of the support's affine span,
    ``offset`` is its point that is zero at the pivot lanes, and
    ``mask`` and ``arr`` are the support and the exponents mod M on the
    slots of ``basis.slots`` (see the module docstring).  ``scale``
    counts powers of p^(-1/2) pulled out in front; two states are equal
    only when supports, exponents and scale all agree.  States are made
    by ``state_make``, ``phi``, ``big_phi``, ``big_phi_from_matrix``,
    ``tensor``, ``equal_sum_states`` and ``apply``.  ``exps`` (lane-packed label ->
    exponent), ``amps`` (label tuple -> CycAmp) and ``support`` read the
    form back, built on first access and cached.
    """

    __slots__ = ("field", "length", "basis", "offset", "mask", "arr", "scale",
                 "_exps", "_amps")

    def __init__(self, field, length: int, basis: _Basis, offset: int, mask: int,
                 arr: int, scale: int):
        self.field, self.length, self.basis = field, length, basis
        self.offset, self.mask, self.arr, self.scale = offset, mask, arr, scale
        self._exps = self._amps = None

    @property
    def exps(self) -> dict:
        """Lane-packed label -> exponent mod M, on the support."""
        if self._exps is None:
            # Slots off the support get every bit set, as in ``slots._Slots.split``.
            slots = self.basis.slots
            values = slots.values(self.arr | (slots.full ^ self.mask))
            self._exps = {x: e for x, e in zip(self.basis.labels(self.offset), values)
                          if e < slots.modulus}
        return self._exps

    @property
    def amps(self) -> dict:
        """Label tuple -> CycAmp."""
        if self._amps is None:
            f, n = self.field, self.length
            self._amps = {_lanes_vec(f, n, x): CycAmp.root(f.p, e) for x, e in self.exps.items()}
        return self._amps

    @property
    def support(self):
        return frozenset(self.amps)

    def __eq__(self, other):
        return (
            isinstance(other, StateVector)
            and self.field == other.field
            and self.length == other.length
            and self.scale == other.scale
            and self.basis == other.basis
            and self.offset == other.offset
            and self.mask == other.mask
            and self.arr == other.arr
        )

    def __repr__(self):
        size = self.mask.bit_count() // self.basis.slots.width
        return (
            f"StateVector(len={self.length}, support={size},"
            f" span dim={len(self.basis.rows)}, scale={self.scale})"
        )


def _basis(f, n: int, rows) -> _Basis:
    """The basis with these reduced rows for states of length n over f;
    its p^D slots answer to DEFAULT_BUDGET, which no argument lifts."""
    if f.p ** len(rows) > DEFAULT_BUDGET:
        raise BudgetExceeded("state span slots", f.p ** len(rows), DEFAULT_BUDGET, flag=None)
    return _Basis(f.p, n * f.degree, phase_modulus(f), rows)


def state_make(field, length: int, amps: dict, scale: int = 0) -> StateVector:
    """A state from the readable form, a dict from label tuple to CycAmp.

    Every label must have length ``length`` and entries in the field.
    Zero amplitudes are dropped, and any other amplitude must be a root
    of unity.  The span of the support is found by ``linalg.rref`` over
    F_p on the digit vectors of the labels less the first one; label x
    then owns the slot whose base-p digits are those of x at the pivots.
    """
    for label in amps:
        if len(label) != length:
            raise LengthMismatch(f"label {label} is not length {length}")
        for x in label:
            if not 0 <= x < field.order:
                raise ValueError(f"entry {x} is not a packed element of {field!r}")
    roots = {CycAmp.root(field.p, e): e for e in range(phase_modulus(field))}
    exps = {x: roots.get(a) for x, a in amps.items() if not a.is_zero}
    if None in exps.values():
        raise ValueError("an amplitude is not a root of unity")
    # The elimination reads S labels x their digit columns; refuse before it.
    entries = len(exps) * length * field.degree
    if entries > DEFAULT_BUDGET:
        raise BudgetExceeded("state_make labels x digits", entries, DEFAULT_BUDGET, flag=None)
    p, prime = field.p, field_make(field.p, 1)
    digits = [field.vec_digits(x) for x in exps]
    first = digits[0] if digits else (0,) * (length * field.degree)
    rows, pivots = linalg.rref(prime, [[(a - b) % p for a, b in zip(d, first)] for d in digits])
    w = _lane_width(p)
    basis = _basis(field, length, [_lane_pack(r, w) for r in rows])
    slots = basis.slots
    values = [(1 << slots.width) - 1] * slots.size  # every bit set: off the support
    for d, e in zip(digits, exps.values()):
        values[sum(d[c] * p ** i for i, c in enumerate(pivots))] = e
    mask, arr = slots.split(_join(values, slots.width))
    offset = _lane_pack(linalg.reduce_vector(prime, rows, pivots, first), w)
    return StateVector(field, length, basis, offset, mask, arr, scale)


# --- code states -------------------------------------------------------------
# The lane-packed fp_basis(C) is already a reduced echelon basis over F_p:
# gen is in RREF, so row (j, d) = p^d gen_j is 1 at lane j r + d, its
# lowest nonzero lane, and 0 at every other pivot lane.  C is its span
# with offset 0, and slot s holds the codeword sum_j m_j gen_j whose
# message m has digit j of s in base q as m_j.


def _messages(code: LinearCode) -> list:
    """The message of the codeword in each slot of C, slot 0 first."""
    msgs = [()]
    for _ in range(code.k):
        msgs = [m + (d,) for d in range(code.field.order) for m in msgs]
    return msgs


def _message_labels(code: LinearCode) -> list:
    """For each slot of C, the int whose base-q digits, most significant
    first, are its message: the codeword's place in message order."""
    q = code.field.order
    return [functools.reduce(lambda x, d: x * q + d, m, 0) for m in _messages(code)]


def _code_basis(code: LinearCode) -> _Basis:
    """The lane-packed fp_basis(C), the basis of every code state of C."""
    f = code.field
    return _basis(f, code.n, [_vec_lanes(f, g) for g in fp_basis(code)])


def _code_state(code: LinearCode, basis: _Basis, values) -> StateVector:
    """The state sum_s omega^(v_s) |c_s>, scaled by q^(-k/2), on the code
    basis of C, where ``values`` lists v_s in F_p for the codeword c_s of
    each slot s of C: one full slot array."""
    slots = basis.slots
    return StateVector(code.field, code.n, basis, 0, slots.full,
                       _join([slots.step * v for v in values], slots.width),
                       code.field.degree * code.k)


def _phi_states(code: LinearCode, table, lams) -> StateVector:
    """The tensor product of phi(code, table, lam) over ``lams``.

    f_lam(c) = tr(lam P(m)) with P = ``table.pack_message`` on the
    message m of c, as in ``FunctionalTable.f_int``.  What every word of
    D shares is built on the first call and kept in
    ``table._state_parts`` for the table's lifetime: P(m) for the
    message of each slot, the code basis, and the state of each distinct
    lam asked for so far, whose exponents are read as tr(lam P(m)) once
    per message.
    """
    if table.code is not code and table.code != code:
        raise DimensionMismatch("functional table belongs to a different code")
    K = table.scalars
    for lam in lams:
        if not 0 <= lam < K.order:
            raise ValueError(f"lambda {lam} is not a scalar of the table: need 0 <= lambda < {K.order}")
    if table._state_parts is None:
        table._state_parts = ([table.pack_message(m) for m in _messages(code)],
                              _code_basis(code), {})
    packed, basis, blocks = table._state_parts
    for lam in set(lams) - blocks.keys():
        blocks[lam] = _code_state(code, basis, [K.trace_int(K.mul(lam, y)) for y in packed])
    return functools.reduce(tensor, [blocks[lam] for lam in lams])


def phi(code: LinearCode, table, lam) -> StateVector:
    """The state sum_{c in C} omega^{f_lam(c)} |c>, scaled by q^{-k/2}."""
    return _phi_states(code, table, [int(lam)])


def tensor(v: StateVector, w: StateVector) -> StateVector:
    """v (x) w: the basis is the two bases side by side, v's pivots first,
    and each slot of w contributes one slot add over v's array."""
    if v.field != w.field:
        raise DimensionMismatch("tensor factors over different fields")
    f = v.field
    shift = v.length * f.degree * _lane_width(f.p)
    rows = v.basis.rows + tuple(x << shift for x in w.basis.rows)
    basis = _basis(f, v.length + w.length, rows)
    sv, sw = v.basis.slots, w.basis.slots
    # Slots off a support have every bit set, as in ``slots._Slots.split``.
    off = sv.full ^ v.mask
    blocks = [sv.add(v.arr, sv.ones * e) & v.mask | off if e < sw.modulus else sv.full
              for e in sw.values(w.arr | sw.full ^ w.mask)]
    mask, arr = basis.slots.split(_join(blocks, sv.size * sv.width))
    return StateVector(f, v.length + w.length, basis, v.offset | w.offset << shift,
                       mask, arr, v.scale + w.scale)


def big_phi(code: LinearCode, d_code: LinearCode, table, lam_word) -> StateVector:
    """Tensor product of the phi states named by one codeword of D."""
    lam_word = tuple(map(int, lam_word))
    if not contains(d_code, lam_word):
        raise NotACodeword(f"{lam_word} is not in the outer code")
    return _phi_states(code, table, lam_word)


def big_phi_from_matrix(matrix, code: LinearCode, rows) -> StateVector:
    """Tensor product of rows of a BH matrix, each read as a state on the
    codewords of C.

    Column label x names the codeword with message digits of x in base q,
    most significant first; the entry is the amplitude exponent.  The
    labels default to 0, ..., order - 1, as in ``bh.linear_rows_check``,
    and must be a permutation of them.  No functional structure is
    assumed, which is the point: this is how states of an arbitrary
    scrambled matrix are built.  A single row gives one block's state.
    """
    rows = list(rows)
    if not rows:
        raise ValueError("big_phi_from_matrix needs at least one row")
    f = code.field
    if matrix.order != code.size:
        raise DimensionMismatch(
            f"matrix order {matrix.order} != number of codewords {code.size}"
        )
    if matrix.p != f.p:
        raise DimensionMismatch(f"matrix entries mod {matrix.p}, field characteristic {f.p}")
    for row in rows:
        if not 0 <= row < matrix.order:
            raise ValueError(f"row {row} is not a row of the matrix: need 0 <= row < {matrix.order}")
    labels = matrix.col_labels if matrix.col_labels is not None else range(matrix.order)
    if sorted(labels) != list(range(matrix.order)):
        raise LabelsNotGroup(f"column labels must enumerate 0 .. {matrix.order - 1}")
    column = {x: j for j, x in enumerate(labels)}
    cols = [column[x] for x in _message_labels(code)]
    basis = _code_basis(code)
    blocks = {r: _code_state(code, basis, [matrix.rows[r][j] for j in cols]) for r in set(rows)}
    return functools.reduce(tensor, [blocks[r] for r in rows])


def apply(e: PauliElement, v: StateVector) -> StateVector:
    """Act with z^c X(a) Z(b): labels shift by a, phases pick up tr(b.x).

    The offset moves to t + a, reduced at the pivot lanes by the digits
    u of a there, and the slots translate by u.  On the label
    t + sum_i X_i v_i the phase is c + step tr(b.t) + sum_i step
    tr(b.v_i) X_i, one ``slots._Slots.affine`` array.  The lane-packed a
    and the trace form of b depend on e alone: they are worked out on
    e's first ``apply`` and kept in ``e._packed``.
    """
    f = v.field
    if e.field != f:
        raise DimensionMismatch("operator and state over different fields")
    if len(e.a) != v.length:
        raise LengthMismatch(f"operator on {len(e.a)} qudits, state on {v.length}")
    if not v.mask:
        return v  # the zero state
    if e._packed is None:
        e._packed = (_vec_lanes(f, e.a), *_trace_form(f, e.b))
    a, rep, big = e._packed
    b = v.basis
    t = b.add(v.offset, a)
    digits = [(t >> shift) & b.digit for shift in b.shifts]
    t = b.reduce(t)
    slots = b.slots
    phase = slots.affine(e.phase + slots.step * ((v.offset * rep) & big).bit_count(),
                         [((row * rep) & big).bit_count() for row in b.rows])
    arr = slots.translate(slots.add(v.arr, phase) & v.mask, digits)
    return StateVector(f, v.length, b, t, slots.translate(v.mask, digits), arr, v.scale)


def is_fixed(e: PauliElement, v: StateVector) -> bool:
    """Whether e fixes v exactly."""
    return apply(e, v) == v


def inner(v: StateVector, w: StateVector) -> CycAmp:
    """<v, w> without the scale factors: sum of conj(v) * w.

    Each common label contributes z^(e_w - e_v), so the sum is the
    histogram of exponent differences read as an element of Z[z].
    """
    if v.field != w.field or v.length != w.length:
        raise DimensionMismatch("states to compare live in different spaces")
    modulus = phase_modulus(v.field)
    counts = [0] * modulus
    ve, we = v.exps, w.exps
    for x in ve.keys() & we.keys():
        counts[(we[x] - ve[x]) % modulus] += 1
    return CycAmp(v.field.p, counts)


def equal_sum_states(code: LinearCode, m: int) -> list:
    """For each c in C, in message order, the flat sum over all m-tuples
    of codewords adding to c.

    The tuples adding to c are (0, ..., 0, c) plus the kernel of the
    block sum on C^m.  Its rows put g in fp_basis(C) in one of the first
    m - 1 blocks and -g in the last, reduced echelon as fp_basis(C) is,
    with every pivot in the first m - 1 blocks; so each state fills all
    |C|^(m-1) slots with exponent 0.
    """
    if m < 1:
        raise ValueError(f"equal-sum states need m >= 1 blocks, got {m}")
    if code.size ** m > DEFAULT_BUDGET:
        raise BudgetExceeded("equal-sum state slots", code.size ** m, DEFAULT_BUDGET, flag=None)
    f, n = code.field, code.n
    words = _code_basis(code)
    shift = n * f.degree * _lane_width(f.p)
    last = (m - 1) * shift
    kernel = [g << i * shift | mult[-1] << last
              for i in range(m - 1) for g, mult in zip(words.rows, words.mults)]
    basis = _basis(f, n * m, kernel)
    return [StateVector(f, n * m, basis, c << last, basis.slots.full, 0, 0)
            for _, c in sorted(zip(_message_labels(code), words.labels(0)))]


# Q as the field that linalg.rref reduces over; Fraction(0) is falsy.
_RATIONALS = SimpleNamespace(inv=lambda x: 1 / x, mul=operator.mul, sub=operator.sub)


def span_equal(states_a, states_b, budget: int = DEFAULT_BUDGET) -> bool:
    """Equality of row spaces over the field Q(z), read through ``inner``.

    With U both lists together, v -> (<u, v>)_{u in U} is Q(z)-linear and,
    the inner product being definite, one-to-one on span U; so the spans
    are equal exactly when the Gram rows of their states against U span
    the same space.  A Q(z)-span is the Q-span of the z-multiples of its
    vectors, so each state gives the rows z^j (<u, v>)_u for j < deg =
    [Q(z):Q], read in the power basis of Q(z), and the two sets of rows
    are compared by their reduced echelon forms over Q.  Scale exponents
    are ignored; a global nonzero scalar never moves a span.  States of
    different spaces raise ``DimensionMismatch`` from ``inner``.
    ``budget`` caps rows x columns x min(rows, columns) of the larger
    elimination, deg rows per state of the longer list by deg columns
    per state of both.
    """
    states_a, states_b = list(states_a), list(states_b)
    if not states_a or not states_b:
        return not states_a and not states_b
    union = states_a + states_b
    deg = len(CycAmp.one(union[0].field.p).coeffs)
    rows, cols = deg * max(len(states_a), len(states_b)), deg * len(union)
    work = rows * cols * min(rows, cols)
    if work > budget:
        raise BudgetExceeded("span_equal rows x columns x pivots", work, budget)

    def echelon(states):
        grams = [[inner(u, v) for u in union] for v in states]
        rows = [[Fraction(c) for g in gram for c in g.rot(j).coeffs]
                for gram in grams for j in range(deg)]
        return linalg.rref(_RATIONALS, rows)[0]

    return echelon(states_a) == echelon(states_b)


def _check_fixing_group(states, found, gens) -> None:
    """Raise unless ``gens`` commute pairwise, ``found`` is closed under
    right multiplication by them and each element fixes each state."""
    f = states[0].field
    for i, g in enumerate(gens):
        for h in gens[:i]:
            if symp_ip_int(f, g.a, g.b, h.a, h.b):
                raise ArithmeticError("fixing set is not abelian; span data corrupt")
    keys = {(x.phase, x.a, x.b) for x in found}
    for x in found:
        if not all(is_fixed(x, v) for v in states):
            raise ArithmeticError("solved element moves a state; span data corrupt")
        for g in gens:
            y = pauli_mul(x, g)
            if (y.phase, y.a, y.b) not in keys:
                raise ArithmeticError("fixing set not closed; span data corrupt")


def stab_of_span(states, budget: int = DEFAULT_BUDGET) -> list:
    """Every z^c X(a) Z(b) fixing each spanning state exactly.

    With step = M / p, z^c X(a) Z(b) fixes a state with exponents e
    exactly when, on every support label x,

        e(x + a) - e(x) = c + step * tr(b.x)   (mod M).

    The left side fixes c mod step, and dividing by step leaves a
    system that is F_p-linear in the unknowns (c div step, digits of b).
    The coefficient row (1, tr(p^j x_i)) of a label depends on the label
    alone, so a row basis is picked once per call: the first (state,
    label) rows independent of those before them, read off as the pivot
    columns of the transposed row list.  A candidate shift a must move
    an anchor label of the first state into that state's support, so at
    most |support| shifts are tried, and the right-hand sides of all of
    them go to one ``linalg.solve`` on the row basis.  Each solution is
    then checked with ``is_fixed`` on every state, which holds exactly
    when the whole system is consistent; the fixing elements of that
    shift are the solution plus the kernel.

    The result is the group generated by the solutions of an F_p-basis
    of the accepted shifts and by the kernel elements.  Before it is
    handed back, ``_check_fixing_group`` checks it against those
    generators; a failure would mean the solve itself is wrong, so it
    raises rather than returns.  ``budget`` caps shifts x equation rows,
    read off the support masks, and elements x generators.
    """
    states = list(states)
    if not states:
        raise ValueError("cannot infer the space from an empty span")
    v0 = states[0]
    f, n = v0.field, v0.length
    for v in states:
        if v.field != f or v.length != n:
            raise DimensionMismatch("states of one span live in different spaces")
    p, r = f.p, f.degree
    modulus, step = phase_modulus(f), phase_step(f)
    sizes = [v.mask.bit_count() // v.basis.slots.width for v in states]
    work = sizes[0] * sum(sizes)
    if work > budget:
        raise BudgetExceeded("stab_of_span shifts x rows", work, budget)
    prime = field_make(p, 1)
    items = [(v.exps, x) for v in states for x in v.exps]
    eq_rows = [(1,) + f.trace_rows(_lanes_vec(f, n, x)) for _, x in items]
    # The pivot columns of the transpose index the first independent rows.
    picked = linalg.rref(prime, list(zip(*eq_rows)))[1]
    basis = [items[i] for i in picked]
    brows = [eq_rows[i] for i in picked]
    kernel = linalg.nullspace(prime, brows, 1 + n * r)

    def element(c0, a, z):
        return PauliElement(f, c0 + step * z[0], a, f.vec_from_digits(z[1:]))

    add = _lane_adder(p, n * r)
    anchor = next(iter(v0.exps))
    minus_anchor = _vec_lanes(f, [f.neg(x) for x in _lanes_vec(f, n, anchor)])
    trials, rhss = [], []
    for y in v0.exps:
        a = add(y, minus_anchor)
        diffs = []
        for exps, x in basis:
            ey = exps.get(add(x, a))
            if ey is None:
                break
            diffs.append((ey - exps[x]) % modulus)
        if len(diffs) < len(basis):
            continue
        c0 = diffs[0] % step
        if any((d - c0) % step for d in diffs):
            continue
        trials.append((c0, _lanes_vec(f, n, a)))
        rhss.append([(d - c0) // step for d in diffs])
    cosets = []
    for (c0, a), z in zip(trials, linalg.solve(prime, brows, rhss)):
        if all(is_fixed(element(c0, a, z), v) for v in states):
            cosets.append((c0, a, z))
    # The solutions of an F_p-basis of the accepted shifts, and the kernel.
    reps = linalg.rref(prime, list(zip(*(f.vec_digits(a) for _, a, _ in cosets))))[1]
    gens = [element(*cosets[i]) for i in reps] + [element(0, (0,) * n, k) for k in kernel]
    work = len(cosets) * p ** len(kernel) * len(gens)
    if work > budget:
        raise BudgetExceeded("stab_of_span elements x generators", work, budget)
    found = []
    for c0, a, z0 in cosets:
        for coeffs in itertools.product(range(p), repeat=len(kernel)):
            z = list(z0)
            for t, k in zip(coeffs, kernel):
                z = [(zi + t * ki) % p for zi, ki in zip(z, k)]
            found.append(element(c0, a, z))
    _check_fixing_group(states, found, gens)
    return found


def fix_dim(s, budget: int = DEFAULT_BUDGET) -> int:
    """Dimension of the joint fixed space of a generator list.

    Accepts anything with ``field``, ``num_qudits``, ``generators`` or a
    bare list of PauliElements.  A vector v is fixed by z^c X(a) Z(b)
    exactly when v(x + a) = z^(c + step tr(b.x)) v(x) on every label x, so
    the translations by the X parts split the labels into orbits, the
    cosets of their span, and each orbit carries one fixed vector or none.

    Everything runs on slot arrays over all q^N labels.  The tree
    generators are those whose X parts are independent, and the labels
    zero at the pivot columns of the echelon form of those X parts meet
    each orbit once.  Phases start at 0 there and spread along the tree
    generators; then every generator is checked on every label, the
    labels where it breaks the relation are closed under the tree
    translations, and the orbits left untouched are counted.  ``budget``
    caps the q^N labels.
    """
    if hasattr(s, "generators"):
        gens, f, n = list(s.generators), s.field, s.num_qudits
    else:
        gens = list(s)
        if not gens:
            raise ValueError("cannot infer the space from an empty generator list")
        f, n = gens[0].field, len(gens[0].a)
    for g in gens:
        if g.field != f:
            raise DimensionMismatch(f"generator over {g.field}, space over {f}")
        if len(g.a) != n:
            raise LengthMismatch(f"generator on {len(g.a)} qudits, space on {n}")
    if f.order ** n > budget:
        raise BudgetExceeded("fix_dim labels", f.order ** n, budget)
    if not gens:
        return f.order ** n
    slots, prime = _slots(f.p, n * f.degree, phase_modulus(f)), field_make(f.p, 1)
    shifts = [f.vec_digits(g.a) for g in gens]
    costs = [slots.affine(g.phase, f.trace_rows(g.b)) for g in gens]
    # The pivot columns of the transpose index the first independent X parts.
    tree = linalg.rref(prime, list(zip(*shifts)))[1]
    transversal = slots.full
    for j in linalg.rref(prime, [shifts[i] for i in tree])[1]:
        transversal &= slots.mask(j, f.p - 1)[0]
    phases, known = 0, transversal
    for i in tree:
        phases, known = slots.spread(phases, known, shifts[i], costs[i])
    if known != slots.full:
        raise ArithmeticError("tree translations miss a label; slot arrays corrupt")
    broken = 0
    for a, cost in zip(shifts, costs):
        broken |= slots.translate(slots.add(phases, cost), a) ^ phases
    bad = slots.nonzero(broken)
    for i in tree:
        bad = slots.spread(bad, slots.full, shifts[i], 0)[0]
    return (transversal & slots.ones & ~bad).bit_count()
