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
and the phase c + step tr(b.x) is affine in the slot digits.  So
``_act``, the one action core of ``apply``, ``is_fixed``, ``fix_dim``
and ``stab_of_span``, costs a few big-int operations per basis row and
none per label, reads the operator's one form, phase included, keeps
its work there for the last basis and offset it met, and on a full
mask moves the exponent array alone.  The code states of m blocks of
one code object share the product basis it keeps and fill it, each
one sum of m slot arrays, each spread by one multiply from a compact
array of |C| slots kept per scalar or matrix row (``_fold``).
``exps`` (label -> exponent) and ``amps`` (label tuple -> CycAmp) are
read-only views.  ``fix_dim`` runs on the same form, over the coset
where the generator list's diagonal elements z^c Z(b) act as 1: a
fixed vector vanishes everywhere else.  The product of two states, the
equal-sum states and span equality have no reader in the package; the
tests build them from their definitions (``tests/oracles.py``).
"""

from __future__ import annotations

import functools
import itertools
import operator

from . import linalg
from .errors import (DEFAULT_BUDGET, BudgetExceeded, DimensionMismatch, LabelsNotGroup,
                     LengthMismatch, NotACodeword)
from .gf import (_check_entries, _gray_span, _lane_adder, _lane_pack, _lane_width, _lanes_vec,
                 _trace_lanes, _vec_lanes, field_make)
from .lincode import LinearCode, contains
from .pauli import PauliElement, phase_modulus, phase_step
from .slots import _Basis, _join, _moved, _repunit, _slot_width, _slots


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
        return isinstance(other, CycAmp) and (self.p, self.coeffs) == (other.p, other.coeffs)

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __repr__(self):
        return f"CycAmp(p={self.p}, {list(self.coeffs)})"


# --- labels ---------------------------------------------------------------


@functools.cache
def _trace_rep(p: int, width: int) -> int:
    """rep of ``_trace_form`` for labels of ``width`` bits: p - 1 ones,
    ``width`` bits apart."""
    return _repunit(p - 1, width)


@functools.cache
def _trace_pattern(p: int, width: int, t: int) -> int:
    """The bits of big for lane 0 with coefficient t: bit k of the lane
    weighs v = t 2^k mod p, so it is set in copies 0, ..., v - 1, the
    low v ones of rep, in O(log p) big-int steps."""
    rep = _trace_rep(p, width)
    return sum((rep & (1 << (t << k) % p * width) - 1) << k for k in range((p - 1).bit_length()))


def _trace_form(f, n: int, row: int) -> tuple:
    """(rep, big) with tr(b.x) = popcount((x * rep) & big) mod p, for x a
    lane-packed label of length n and ``row`` the lane-packed trace row
    of b, whose lane l, digit j of coordinate i, holds tr(b_i p^j): each
    bit of x carries a fixed coefficient v mod p.  Multiplying by rep
    lays p - 1 copies of x side by side, and big keeps in copy s the bits
    whose coefficient exceeds s, so one popcount counts each set bit v
    times.  At p = 2, rep = 1 and big is the row."""
    w = _lane_width(f.p)
    width = n * f.degree * w
    if f.p == 2:
        return 1, row
    big, digit = 0, (1 << w) - 1
    for lane in range(0, row.bit_length(), w):
        if t := row >> lane & digit:
            big |= _trace_pattern(f.p, width, t) << lane
    return _trace_rep(f.p, width), big


class StateVector:
    """Immutable monomial state over F_q^N, as a coset slot array.

    ``basis`` spans the directions of the support's affine span,
    ``offset`` is its point that is zero at the pivot lanes, and
    ``mask`` and ``arr`` are the support and the exponents mod M on the
    slots of ``basis.slots`` (see the module docstring).  ``scale``
    counts powers of p^(-1/2) pulled out in front; two states are equal
    only when supports, exponents and scale all agree.  States are made
    by ``state_make``, ``phi``, ``big_phi``, ``big_phi_from_matrix`` and
    ``apply``.  ``exps`` (lane-packed label -> exponent) and ``amps``
    (label tuple -> CycAmp) read the form back, built on first access
    and cached.
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

    def __eq__(self, other):
        return self is other or isinstance(other, StateVector) and self.arr == other.arr and (
            (self.field, self.length, self.scale, self.basis, self.offset, self.mask)
            == (other.field, other.length, other.scale, other.basis, other.offset, other.mask))

    def __repr__(self):
        size = self.mask.bit_count() // self.basis.slots.width
        return (f"StateVector(len={self.length}, support={size},"
                f" span dim={len(self.basis.rows)}, scale={self.scale})")


def _basis(f, n: int, rows) -> _Basis:
    """The basis with these rows for states of length n over f, rows that
    every caller makes reduced echelon: ``linalg.Echelon.of_reduced``
    checks that in one pass and eliminates nothing.  Its p^D slots answer
    to DEFAULT_BUDGET, which no argument lifts."""
    if f.p ** len(rows) > DEFAULT_BUDGET:
        raise BudgetExceeded("state span slots", f.p ** len(rows), DEFAULT_BUDGET, flag=None)
    return _Basis(phase_modulus(f), linalg.Echelon.of_reduced(f.p, n * f.degree, rows))


def state_make(field, length: int, amps: dict, scale: int = 0) -> StateVector:
    """A state from the readable form, a dict from label tuple to CycAmp.

    Every label must have length ``length`` and entries in the field.
    Zero amplitudes are dropped, and any other amplitude must be a root
    of unity z^e.  The first nonzero coefficient of z^e is 1 at e when
    e < M - step, else -1 at e - M + step, so it names the one candidate
    e, checked in O(p).  The span of the support is the ``linalg.Echelon``
    of the lane-packed labels less the first one; label x then owns the
    slot whose base-p digits are those of x at the pivots.
    """
    exps = {}
    for label, a in amps.items():
        if len(label) != length:
            raise LengthMismatch(f"label {label} is not length {length}")
        _check_entries(field, label)
        if not a.is_zero:
            j = next(j for j, c in enumerate(a.coeffs) if c)
            e = exps[label] = j if a.coeffs[j] == 1 else j + len(a.coeffs)
            if a != CycAmp.root(field.p, e):
                raise ValueError("an amplitude is not a root of unity")
    # The elimination reads S labels x their digit columns; refuse before it.
    entries = len(exps) * length * field.degree
    if entries > DEFAULT_BUDGET:
        raise BudgetExceeded("state_make labels x digits", entries, DEFAULT_BUDGET, flag=None)
    p = field.p
    labels = [_vec_lanes(field, x) for x in exps]
    span = linalg.Echelon(p, length * field.degree)
    first = labels[0] if labels else 0
    minus = span.scale(first, p - 1)
    for x in labels:
        span.insert(span.add(x, minus))
    basis, offset = _basis(field, length, span.rows), span.reduce(first)
    slots = basis.slots
    values = [(1 << slots.width) - 1] * slots.size  # every bit set: off the support
    digit, weights = (1 << _lane_width(p)) - 1, [(s, p ** i) for i, s in enumerate(basis.shifts)]
    for x, e in zip(labels, exps.values()):
        values[sum((x >> s & digit) * m for s, m in weights)] = e
    mask, arr = slots.split(_join(values, slots.width))
    return StateVector(field, length, basis, offset, mask, arr, scale)


# --- code states -------------------------------------------------------------
# ``code.lanes`` is C's reduced echelon basis over F_p, lane-packed: row
# (j, d) = p^d gen_j is 1 at lane j r + d, its lowest nonzero lane, and
# 0 at every other pivot lane.  C is its span with offset 0, and slot s
# holds the codeword sum_j m_j gen_j whose message m has digit j of s in
# base q as m_j.


def _message_labels(code: LinearCode) -> list:
    """For each slot of C, the int whose base-q digits, most significant
    first, are its message: the codeword's place in message order.  Slot
    s holds message digit j at digit j of s, so its label is s with its k
    base-q digits reversed, laid out a digit at a time."""
    q, k, labels = code.field.order, code.k, [0]
    for j in range(k):
        labels = [x + d * q ** (k - 1 - j) for d in range(q) for x in labels]
    return labels


def _message_order(code: LinearCode) -> list:
    """``_message_labels(code)``, made once per code object and kept on it
    beside its product bases (``code._labels``, not in ``==``)."""
    if code._labels is None:
        code._labels = _message_labels(code)
    return code._labels


def _product(code: LinearCode, m: int) -> tuple:
    """(basis, spread) for states of m blocks of C: ``code.lanes`` m
    times side by side, block 0 lowest, so block b is digit b of the slot
    in base |C|; and for each b the three factors ``_fold`` spreads a
    compact array of |C| slots by.  With w the slot
    width and S = |C|^b w the stride of block b: ``times``, 2^(i (S - w))
    summed over i < |C| (1 at b = 0); ``keep``, the low slot of each of
    |C| strides; and ``fill``, step = M / p in every slot whose digit b
    is 0."""
    f, size = code.field, code.size
    shift = code.n * f.degree * _lane_width(f.p)
    basis = _basis(f, code.n * m, [g << b * shift for b in range(m) for g in code.lanes])
    width, step = basis.slots.width, basis.slots.step
    spread = []
    for b in range(m):
        stride = size ** b * width
        times = _repunit(size, stride - width) if b else 1
        fill = step * _repunit(size ** b, width) * _repunit(size ** (m - 1 - b), size * stride)
        spread.append((times, _repunit(size, stride) * ((1 << width) - 1), fill))
    return basis, spread


def _fold(code: LinearCode, arrays) -> StateVector:
    """The tensor product over b of sum_s omega^(v_s) |c_s>, each scaled
    by q^(-k/2), for the values v in F_p held in arrays[b], a compact
    array of one slot per slot of C (``_join`` at the slot width), as one
    full array on the product basis kept in ``code._products``.

    Block b is spread to its stride S by one multiply, (A * times) &
    keep (see ``_product``): the product puts value j of A, shifted by
    i (S - w) bits, at slot j + i (|C|^b - 1), and keep takes the terms
    with i = j, slot j |C|^b.  Off those slots the terms (i, |C| - 1) and
    (i + 1, 0) share a slot at b = 1, no two terms do at b >= 2, and a
    sum of two values, at most 2 (p - 1) < 2^w, carries into no other
    slot.  Multiplying by ``fill`` then puts step v_j in every slot whose
    digit b is j, and the blocks are added mod M.
    """
    products = code._products = code._products or {}
    if len(arrays) not in products:
        products[len(arrays)] = _product(code, len(arrays))
    (basis, spread), arr = products[len(arrays)], 0
    for compact, (times, keep, fill) in zip(arrays, spread):
        block = (compact * times & keep) * fill
        arr = basis.slots.add(arr, block) if arr else block
    return StateVector(code.field, code.n * len(arrays), basis, 0, basis.slots.full, arr,
                       len(arrays) * code.field.degree * code.k)


def _phi_states(code: LinearCode, table, lams) -> StateVector:
    """The tensor product of phi(code, table, lam) over ``lams``, by ``_fold``.

    f_lam(c) = tr(lam P(m)) with P = ``table.pack_message`` on the
    message m of c, as in ``FunctionalTable.f_int``, F_p-linear in the
    digits of m that number the slots of C.  ``table._state_parts`` keeps
    for the table's lifetime, per lam asked for so far, its compact array,
    ``slots._Slots.linear`` of the tr(lam P(u)) over the message digit
    units u, P(u) read off the table (``FunctionalTable._pack``).  The
    product basis is the one ``code`` keeps.
    """
    if table.code is not code and table.code != code:
        raise DimensionMismatch("functional table belongs to a different code")
    K = table.scalars
    for lam in lams:
        if not 0 <= lam < K.order:
            raise ValueError(f"lambda {lam} is not a scalar of the table: need 0 <= lambda < {K.order}")
    arrays = table._state_parts
    new = set(lams) - arrays.keys()
    units = [_lanes_vec(K, 1, u)[0] for u in table._pack] if new else []
    for lam in new:
        arrays[lam] = _slots(K.p, K.degree, phase_modulus(K)).linear(
            [K.trace_int(K.mul(lam, u)) for u in units])
    return _fold(code, [arrays[lam] for lam in lams])


def phi(code: LinearCode, table, lam) -> StateVector:
    """The state sum_{c in C} omega^{f_lam(c)} |c>, scaled by q^{-k/2}."""
    return _phi_states(code, table, [operator.index(lam)])


def big_phi(code: LinearCode, d_code: LinearCode, table, lam_word) -> StateVector:
    """Tensor product of the phi states named by one codeword of D."""
    lam_word = tuple(map(operator.index, lam_word))
    if not contains(d_code, lam_word):
        raise NotACodeword(f"{lam_word} is not in the outer code")
    return _phi_states(code, table, lam_word)


def big_phi_from_matrix(matrix, code: LinearCode, rows) -> StateVector:
    """Tensor product of rows of a BH matrix, each read as a state on the
    codewords of C, by ``_fold`` on the product basis ``code`` keeps, so
    the states of one span share it with each other and with ``big_phi``.

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
    if matrix.order != code.size:
        raise DimensionMismatch(f"matrix order {matrix.order} != number of codewords {code.size}")
    if matrix.p != code.field.p:
        raise DimensionMismatch(f"matrix entries mod {matrix.p}, field characteristic {code.field.p}")
    for row in rows:
        if not 0 <= row < matrix.order:
            raise ValueError(f"row {row} is not a row of the matrix: need 0 <= row < {matrix.order}")
    column = matrix.col_index
    if column is None:
        raise LabelsNotGroup(f"column labels must enumerate 0 .. {matrix.order - 1}")
    cols = [column[x] for x in _message_order(code)]
    width = _slot_width(phase_modulus(code.field))
    arrays = {r: _join([matrix.rows[r][j] for j in cols], width) for r in set(rows)}
    return _fold(code, [arrays[r] for r in rows])


def _act(packed: list, v: StateVector) -> tuple:
    """(offset, mask, arr) of z^c X(a) Z(b) v; the zero state maps to itself.

    ``packed`` is the operator's form [c, a, row, rep, big, basis,
    offset, t, plan, phase]: its phase c, the lane-packed a, the
    lane-packed trace row of b and its trace form (rep, big), then,
    refilled in place when v has another basis or offset, those of the
    last call: the offset t + a reduced at the pivot lanes, the plan that
    translates by the digits of a there, and the phase array c + step
    tr(b.t) + sum_i step tr(b.v_i) X_i.  A partial support is translated
    with its off-support slots all ones, then split
    (``slots._Slots.split``)."""
    if not v.mask:
        return v.offset, v.mask, v.arr
    c, a, _, rep, big, basis, offset, t, plan, phase = packed
    b, slots = v.basis, v.basis.slots
    if basis is not b or offset != v.offset:
        x = b.add(v.offset, a)
        t, plan = b.reduce(x), slots.plan([(x >> shift) & b.digit for shift in b.shifts])
        phase = slots.affine(c + slots.step * ((v.offset * rep) & big).bit_count(),
                             [((row * rep) & big).bit_count() for row in b.rows])
        packed[5:] = b, v.offset, t, plan, phase
    arr = slots.add(v.arr, phase) if phase else v.arr
    if v.mask == slots.full:
        return t, v.mask, _moved(arr, plan)
    return (t, *slots.split(_moved(arr & v.mask | slots.full ^ v.mask, plan)))


def _packed_of(e: PauliElement, f, n: int) -> list:
    """``e._packed``, the form ``_act`` reads, filled once e is checked to
    act on the space of length n over f."""
    if e.field is not f and e.field != f:
        raise DimensionMismatch(f"operator over {e.field}, space over {f}")
    if len(e.a) != n:
        raise LengthMismatch(f"operator on {len(e.a)} qudits, space on {n}")
    if e._packed is None:
        row = _lane_pack(f.trace_rows(e.b), _lane_width(f.p))
        e._packed = [e.phase, _vec_lanes(f, e.a), row, *_trace_form(f, n, row)] + [None] * 5
    return e._packed


def _image(form: list, v: StateVector) -> StateVector:
    """The image of v under the operator of ``form``, by ``_act``: v
    itself when the operator fixes it, a state being immutable, so
    ``_image(form, v) is v`` is the one test of a fixed state."""
    offset, mask, arr = _act(form, v)
    if arr == v.arr and offset == v.offset and mask == v.mask:
        return v
    return StateVector(v.field, v.length, v.basis, offset, mask, arr, v.scale)


def apply(e: PauliElement, v: StateVector) -> StateVector:
    """Act with z^c X(a) Z(b) on v, by ``_act`` on ``e._packed``: v itself when e fixes it."""
    return _image(_packed_of(e, v.field, v.length), v)


def is_fixed(e: PauliElement, v: StateVector) -> bool:
    """Whether e fixes v exactly: its image is v itself."""
    return _image(_packed_of(e, v.field, v.length), v) is v


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


def _check_generators(states, gens) -> list:
    """Raise unless ``gens`` commute pairwise, fix every state and have
    F_p-independent rows; return each as (c, row, rep, big).

    A generator z^c X(a) Z(b) comes as (row, form): its lane-packed
    (a | b), a in the low lanes, and its form for ``_act``, which holds c
    and the trace form (rep, big) of T(y) = tr(b . y).  So g x = z^(c_g +
    c_x + step T_g(a_x)) X(a_g + a_x) Z(b_g + b_x), and g and h commute
    when T_h(a_g) = T_g(a_h) mod p.  Each generator fixes a nonzero
    state, so its p-th power, a pure phase, is 1.  With the rows
    independent, the p^|gens| products g_1^k_1 ... g_s^k_s, 0 <= k_i < p,
    have distinct rows, so they are the whole group, whose only pure
    phase is 1.
    """
    f, n = states[0].field, states[0].length
    p, lanes = f.p, n * f.degree
    low = (1 << lanes * _lane_width(p)) - 1
    packed = [(c, row, rep, big) for row, (c, _, _, rep, big, *_) in gens]
    for i, (_, rg, rep, big) in enumerate(packed):
        for _, rh, rep_h, big_h in packed[:i]:
            if (((rg & low) * rep_h & big_h).bit_count()
                    - ((rh & low) * rep & big).bit_count()) % p:
                raise ArithmeticError("fixing generators are not abelian; span data corrupt")
    for _, form in gens:
        if not all(_image(form, v) is v for v in states):
            raise ArithmeticError("a fixing generator moves a state; span data corrupt")
    if len(linalg.Echelon(p, 2 * lanes, [row for _, row, _, _ in packed]).lead) != len(gens):
        raise ArithmeticError("generator rows are F_p-dependent; span data corrupt")
    return packed


def _equation_row(f, x: int) -> int:
    """1 | L(x) << w, the row of label x in ``stab_of_span``, L = ``gf._trace_lanes``."""
    return 1 | _trace_lanes(f, x) << _lane_width(f.p)


def _scan(f, n: int, supports, tags: int) -> tuple:
    """(basis, rows, solve): ``stab_of_span``'s row basis, its echelon, and
    the solution of the basis rows' system for any right-hand side.

    Over each support, t and each t + v_i first, then the rest till dim V
    + 1 rows are kept, label x's ``_equation_row`` enters one
    ``linalg.Echelon`` with a 1 in tag lane i past its 1 + N r lanes, i =
    len(basis), and (exps, x) joins ``basis`` when the row is not 0 off
    its tags once reduced; ``tags`` must reach the rows kept.  The
    echelon is then [R | T]: R the reduced echelon form of the kept rows
    A, T A = R, and no tag lane leads.  A's rows are independent, so
    A z = e_i is solved, free unknowns 0, by T's column i laid on R's
    pivot lanes, as ``Echelon.solutions`` reads it, and ``solve(d)`` is
    the ``linalg.lincomb`` of those unit solutions by the digits d_i.
    """
    p, w, lanes = f.p, _lane_width(f.p), 1 + n * f.degree
    rows, basis, low = linalg.Echelon(p, lanes + tags), [], (1 << lanes * w) - 1
    for v in supports:  # t and each t + v_i first, then the rest till dim + 1 rows
        exps, b, last = v.exps, v.basis, len(basis) + len(v.basis.rows) + 1
        first = [x for x in [v.offset, *(b.add(v.offset, row) for row in b.rows)] if x in exps]
        for x in itertools.chain(first, exps):
            row = rows.reduce(_equation_row(f, x) | 1 << (lanes + len(basis)) * w)
            if row & low:
                rows.insert(row)
                basis.append((exps, x))
                if len(basis) == last:
                    break
    units = rows.solutions(lanes, len(basis))
    return basis, rows, functools.partial(linalg.lincomb, _lane_adder(p, lanes), units)


def stab_of_span(states, budget: int = DEFAULT_BUDGET) -> list:
    """Every z^c X(a) Z(b) fixing each spanning state exactly.

    Zero states add nothing to a span and are dropped; a span of zero
    states only is refused.  With step = M / p, z^c X(a) Z(b) fixes a
    state with exponents e exactly when, on every support label x,

        e(x + a) - e(x) = c + step * tr(b.x)   (mod M).

    The left side fixes c mod step, and dividing by step leaves a
    system F_p-linear in (c div step, digits of b), the row of label x,
    ``_equation_row``, being affine in x.  So the rows of t + V span at
    most dim V + 1 dimensions, and one scan per distinct support, t and
    each t + v_i first, stops at dim V + 1 new rows; those found give a
    row basis.  A candidate shift a must move an anchor label x0 of the
    first state v0 into its support, so at most |support| shifts are
    tried.  The scan's one echelon carries each row's combination of the
    basis rows on tag lanes (``_scan``), so a trial's solution is a sum
    of unit solutions, and its kernel is read off the same rows: the
    rows are eliminated once.

    Before that, the candidates are filtered on the states' relative
    phases.  A fixing element adds the same c + step tr(b.x) to every
    state's exponent at x, so for each state s on v0's support (same
    basis, offset and mask) the relative phase e_s - e_0 is unchanged by
    its shift: e_s(x0 + a) - e_0(x0 + a) = d_s, with d_s = e_s(x0) -
    e_0(x0) mod M.  Slot x0 + a of v0 is kept only when that holds for
    every such s, checked on all slots at once: one slot add of d_s to
    v0's array and one XOR with s's per state, the verdicts read in one
    pass.  No fixing element has a dropped shift, so it lies outside S
    (below) and no element is lost; only the kept shifts are solved.

    The fixing elements form a group, so their shifts form an F_p-space
    S.  A solution is unique up to the kernel of the rows, whose
    elements fix every state; so a shift lies in S exactly when its
    solved element fixes every state.  With the accepted shifts in an
    echelon, a trial in their span is accepted, and one in k r + span,
    for a rejected r and any k != 0, is rejected (else r would lie in
    S), neither by an action: rejected shifts are kept reduced and
    scaled to 1 at their lowest nonzero lane.  The rest act, as packed
    (row, form) trials, by ``_act`` on every state, and those
    accepted are a basis of S.

    Their solutions and the kernel elements are the generators, which
    ``_check_generators`` proves commute, fix every state and are
    independent, so the group they make has p^|gens| elements and is the
    result; a wrong solve or skip raises there.  One ``gf._gray_span``
    walk over them makes every element by the group law, the only
    ``PauliElement``s built.  ``budget`` caps trials x equation rows,
    bounded before the scan by |first support| x the sum of dim V + 1
    over the distinct supports, and the p^|gens| elements.
    """
    states = list(states)
    if not states:
        raise ValueError("cannot infer the space from an empty span")
    f, n = states[0].field, states[0].length
    for v in states:
        if v.field != f or v.length != n:
            raise DimensionMismatch("states of one span live in different spaces")
    states = [v for v in states if v.mask]
    if not states:
        raise ValueError("the zero span is fixed by every operator; no group to find")
    v0 = states[0]
    p, r = f.p, f.degree
    modulus, step = phase_modulus(f), phase_step(f)
    supports = {}
    for v in states:
        supports.setdefault((v.basis.rows, v.offset, v.mask), v)
    tags = sum(len(v.basis.rows) + 1 for v in supports.values())
    work = v0.mask.bit_count() // v0.basis.slots.width * tags
    if work > budget:
        raise BudgetExceeded("stab_of_span shifts x rows", work, budget)
    w, digit, lanes = _lane_width(p), (1 << _lane_width(p)) - 1, 1 + n * r
    half = n * r * w
    basis, rows, solve = _scan(f, n, supports.values(), tags)

    def trial(c0, a, z):  # z^c X(a) Z(b), b and c read off the solution z
        b, c = z >> w, c0 + step * (z & digit)
        row = _trace_lanes(f, b)
        return a | b << half, [c, a, row, *_trace_form(f, n, row)] + [None] * 5

    # The relative-phase filter above, on the states that share v0's support.
    slots, low = v0.basis.slots, (v0.mask & -v0.mask).bit_length() - 1
    top, diff = (1 << slots.width) - 1, 0
    for v in states[1:]:
        if v.basis == v0.basis and v.offset == v0.offset and v.mask == v0.mask:
            d = ((v.arr >> low & top) - (v0.arr >> low & top)) % modulus
            diff |= slots.add(v0.arr, slots.ones * d) ^ v.arr
    candidates = v0.exps
    if diff:  # slot verdicts: 0 kept, 1 ruled out, all ones off the support
        verdicts = slots.values(slots.nonzero(diff) | slots.full ^ v0.mask)
        candidates = itertools.compress(v0.exps, [not k for k in verdicts if k < 2])
    add = _lane_adder(p, lanes)
    anchor = next(iter(v0.exps))
    shifts = linalg.Echelon(p, n * r)
    minus_anchor = shifts.scale(anchor, p - 1)
    trials = []
    for y in candidates:
        a, diffs = add(y, minus_anchor), []
        for exps, x in basis:
            ey = exps.get(add(x, a))
            if ey is None:
                break
            diffs.append((ey - exps[x]) % modulus)
        else:
            c0 = diffs[0] % step
            if not any((d - c0) % step for d in diffs):
                trials.append((c0, a, solve([(d - c0) // step for d in diffs])))

    def key(a):  # a reduced by the accepted shifts, scaled to 1 at its lowest lane
        u = shifts.reduce(a)
        low = (u & -u).bit_length() - 1
        return shifts.scale(u, pow(u >> (low - low % w) & digit, -1, p)) if u else 0

    gens, rejected = [], set()
    for c0, a, z in trials:
        u = key(a)
        if not u or u in rejected:
            continue
        _, form = g = trial(c0, a, z)
        if all(_image(form, v) is v for v in states):
            shifts.insert(u)
            rejected = {key(x) for x in rejected}
            gens.append(g)
        else:
            rejected.add(u)
    gens += [trial(0, 0, k) for k in rows.kernel(lanes)]
    if p ** len(gens) > budget:
        raise BudgetExceeded("stab_of_span elements", p ** len(gens), budget)
    row_add, low = _lane_adder(p, 2 * n * r), (1 << half) - 1
    vecs = {}  # lane-packed a or b -> its tuple: many elements share one

    def times(x, g):  # g x by the group law of ``_check_generators``, = x g: they commute
        (c, row), (cg, rg, rep, big) = x, g
        return (c + cg + step * ((row & low) * rep & big).bit_count()) % modulus, row_add(row, rg)

    return [PauliElement(f, c, vecs.get(a) or vecs.setdefault(a, _lanes_vec(f, n, a)),
                         vecs.get(b) or vecs.setdefault(b, _lanes_vec(f, n, b)))
            for c, row in _gray_span(p, _check_generators(states, gens), times, (0, 0))
            for a, b in [(row & low, row >> half)]]


def fix_dim(s, budget: int = DEFAULT_BUDGET) -> int:
    """Dimension of the joint fixed space of a generator list.

    Accepts anything with ``field``, ``num_qudits``, ``generators`` or a
    bare list of PauliElements.  A vector v is fixed by z^c X(a) Z(b)
    exactly when v(x + a) = z^(c + step tr(b.x)) v(x) on every label x, so
    the translations by the X parts split the labels into orbits, the
    cosets of their span, and each orbit carries one fixed vector or none.

    Every generator is checked against the space and read through its
    form from ``_packed_of``.  A diagonal generator z^c Z(b) gives v(x) =
    z^(c + step tr(b.x)) v(x), so a fixed vector vanishes off the coset
    A = t + V where every one of them acts as 1: c + step tr(b.x) = 0
    mod M, a system in x on the forms' (c, trace row of b), eliminated
    once as [trace rows | right-hand side]: t is its ``solutions``, V its
    ``kernel`` and the rank its count of pivots.  The dimension is 0
    when some c is not a multiple of step or the system has no
    solution, and also when another generator's X part a lies outside
    V, since then x + a leaves A for every x in A.  Otherwise
    everything runs on slot arrays over the p^(dim V) labels of A, the
    flat state on t + V (t reduced at its pivots): the self-check reads
    the diagonal forms' trace forms (rep, big), and one ``_act`` of each
    other generator on A moves the offset when a lies outside V, else
    leaves in its form the plan of its translation and its cost c +
    step tr(b.x), affine in the slot digits.  The tree generators are
    those whose translations are independent, and the slots zero at the
    pivot columns of their echelon form meet each orbit once.  Phases
    start at 0 there and spread along the tree generators; then one
    ``_act`` per generator checks it on every slot, the slots where one
    breaks the relation are closed under the tree translations, and
    the orbits left untouched are counted.  With no diagonal generator,
    A is the whole space.  ``budget`` caps all q^N labels.
    """
    if hasattr(s, "generators"):
        gens, f, n = list(s.generators), s.field, s.num_qudits
    else:
        gens = list(s)
        if not gens:
            raise ValueError("cannot infer the space from an empty generator list")
        f, n = gens[0].field, len(gens[0].a)
    forms = [_packed_of(g, f, n) for g in gens]
    if f.order ** n > budget:
        raise BudgetExceeded("fix_dim labels", f.order ** n, budget)
    if not gens:
        return f.order ** n
    p, lanes, w = f.p, n * f.degree, _lane_width(f.p)
    modulus, step = phase_modulus(f), phase_step(f)
    diagonal = [(c, row, rep, big) for c, a, row, rep, big, *_ in forms if not a]
    if any(c % step for c, *_ in diagonal):
        return 0
    system = linalg.Echelon(p, lanes + 1, [row | -(c // step) % p << lanes * w
                                           for c, row, _, _ in diagonal])
    t = system.solutions(lanes, 1)[0]
    if t is None:
        return 0
    basis = _Basis(modulus, linalg.Echelon.of_reduced(p, lanes, system.kernel(lanes)))
    t, slots = basis.reduce(t), basis.slots
    coset = StateVector(f, n, basis, t, slots.full, 0, 0)
    if len(basis.rows) != lanes - len(system.lead) or any(
            (c + step * (t * rep & big).bit_count()) % modulus
            or any((v * rep & big).bit_count() % p for v in basis.rows)
            for c, _, rep, big in diagonal):
        raise ArithmeticError("diagonal generators do not vanish on their coset; linear algebra corrupt")
    moves = []  # (form filled on A, digits of a at the pivot lanes) per X part
    for form in forms:
        _, a, *_ = form
        if a:
            if _act(form, coset)[0] != t:  # a lies outside V
                return 0
            moves.append((form, [(a >> shift) & basis.digit for shift in basis.shifts]))
    span = linalg.Echelon(p, len(basis.rows))
    tree = [(u, phase) for (*_, phase), u in moves if span.insert(_lane_pack(u, w))]
    transversal = slots.full
    for j in span.pivots:
        transversal &= slots.mask(j, p - 1)[0]
    phases, known = 0, transversal
    for u, phase in tree:
        phases, known = slots.spread(phases, known, u, phase)
    if known != slots.full:
        raise ArithmeticError("tree translations miss a label; slot arrays corrupt")
    candidate = StateVector(f, n, basis, t, slots.full, phases, 0)
    broken = bad = 0
    for form, _ in moves:
        broken |= _act(form, candidate)[2] ^ phases
    if broken:
        bad = slots.nonzero(broken)
        for u, _ in tree:
            bad = slots.spread(bad, slots.full, u, 0)[0]
    return (transversal & slots.ones & ~bad).bit_count()
