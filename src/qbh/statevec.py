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
label, and it keeps its work for the last basis it met.  A full
support translates onto itself, so on a full mask ``apply`` moves the
exponent array alone.  The code states of m blocks of one code object
share the product basis it keeps and fill it, each one sum of m slot
arrays, each spread by one multiply from a compact array of |C| slots
kept per scalar or matrix row (``_fold``).  ``exps`` (label ->
exponent) and ``amps`` (label tuple -> CycAmp) are read-only views.
``fix_dim`` runs on the same form, over the coset where the generator
list's diagonal elements z^c Z(b) act as 1: a fixed vector vanishes
everywhere else.
"""

from __future__ import annotations

import functools
import itertools
import operator
from fractions import Fraction

from . import linalg
from .errors import (DEFAULT_BUDGET, BudgetExceeded, DimensionMismatch, LabelsNotGroup,
                     LengthMismatch, NotACodeword)
from .gf import _gray_span, _lane_adder, _lane_pack, _lane_width, _lanes_vec, _vec_lanes, field_make
from .lincode import LinearCode, contains, fp_basis
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
    width = len(b) * f.degree * w
    big = 0
    for lane, t in enumerate(f.trace_rows(b)):
        if t:
            big |= _trace_pattern(f.p, width, t) << lane * w
    return _trace_rep(f.p, width), big


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
        return self is other or isinstance(other, StateVector) and self.arr == other.arr and (
            (self.field, self.length, self.scale, self.basis, self.offset, self.mask)
            == (other.field, other.length, other.scale, other.basis, other.offset, other.mask))

    def __repr__(self):
        size = self.mask.bit_count() // self.basis.slots.width
        return (f"StateVector(len={self.length}, support={size},"
                f" span dim={len(self.basis.rows)}, scale={self.scale})")


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
        for x in label:
            if not 0 <= x < field.order:
                raise ValueError(f"entry {x} is not a packed element of {field!r}")
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
# The lane-packed fp_basis(C) is already a reduced echelon basis over F_p:
# gen is in RREF, so row (j, d) = p^d gen_j is 1 at lane j r + d, its
# lowest nonzero lane, and 0 at every other pivot lane.  C is its span
# with offset 0, and slot s holds the codeword sum_j m_j gen_j whose
# message m has digit j of s in base q as m_j.


def _messages(code: LinearCode) -> list:
    """The message of the codeword in each slot of C, slot 0 first."""
    return [m[::-1] for m in itertools.product(range(code.field.order), repeat=code.k)]


def _message_labels(code: LinearCode) -> list:
    """For each slot of C, the int whose base-q digits, most significant
    first, are its message: the codeword's place in message order."""
    q = code.field.order
    return [sum(d * q ** i for i, d in enumerate(reversed(m))) for m in _messages(code)]


def _code_basis(code: LinearCode) -> _Basis:
    """The lane-packed fp_basis(C), the basis of every code state of C."""
    f = code.field
    return _basis(f, code.n, [_vec_lanes(f, g) for g in fp_basis(code)])


def _product(code: LinearCode, m: int) -> tuple:
    """(basis, spread) for states of m blocks of C: the code basis m times
    side by side, block 0 lowest, so block b is digit b of the slot in
    base |C|; and for each b the three factors ``_fold`` spreads a
    compact array of |C| slots by.  With w the slot width and S = |C|^b w
    the stride of block b: ``times``, 2^(i (S - w)) summed over i < |C|
    (1 at b = 0); ``keep``, the low slot of each of |C| strides; and
    ``fill``, step = M / p in every slot whose digit b is 0."""
    f, size = code.field, code.size
    shift = code.n * f.degree * _lane_width(f.p)
    rows = _code_basis(code).rows
    basis = _basis(f, code.n * m, [g << b * shift for b in range(m) for g in rows])
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
    for the table's lifetime P(u) of the r k message digit units u, and
    per lam asked for so far its compact array, ``slots._Slots.linear`` of
    the tr(lam P(u)).  The product basis is the one ``code`` keeps.
    """
    if table.code is not code and table.code != code:
        raise DimensionMismatch("functional table belongs to a different code")
    K = table.scalars
    for lam in lams:
        if not 0 <= lam < K.order:
            raise ValueError(f"lambda {lam} is not a scalar of the table: need 0 <= lambda < {K.order}")
    if table._state_parts is None:
        q, k, r = code.field, code.k, code.field.degree
        table._state_parts = ([table.pack_message((0,) * j + (q.p ** d,) + (0,) * (k - 1 - j))
                               for j in range(k) for d in range(r)], {})
    units, arrays = table._state_parts
    for lam in set(lams) - arrays.keys():
        arrays[lam] = _slots(K.p, K.degree, phase_modulus(K)).linear(
            [K.trace_int(K.mul(lam, u)) for u in units])
    return _fold(code, [arrays[lam] for lam in lams])


def phi(code: LinearCode, table, lam) -> StateVector:
    """The state sum_{c in C} omega^{f_lam(c)} |c>, scaled by q^{-k/2}."""
    return _phi_states(code, table, [operator.index(lam)])


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
    labels = matrix.col_labels if matrix.col_labels is not None else range(matrix.order)
    if sorted(labels) != list(range(matrix.order)):
        raise LabelsNotGroup(f"column labels must enumerate 0 .. {matrix.order - 1}")
    column = {x: j for j, x in enumerate(labels)}
    cols = [column[x] for x in _message_labels(code)]
    width = _slot_width(phase_modulus(code.field))
    arrays = {r: _join([matrix.rows[r][j] for j in cols], width) for r in set(rows)}
    return _fold(code, [arrays[r] for r in rows])


def apply(e: PauliElement, v: StateVector) -> StateVector:
    """Act with z^c X(a) Z(b): labels shift by a, phases pick up tr(b.x).

    The offset moves to t + a, reduced at the pivot lanes by the digits
    u of a there, and the exponents translate by u as one int.  The
    phase on t + sum_i X_i v_i is c + step tr(b.t) + sum_i step tr(b.v_i)
    X_i, one array, added only when it is not 0.  A full support, such
    as that of every code state, translates onto itself, so only a
    partial one is translated with its off-support slots all ones and
    split again (``slots._Slots.split``).  ``e._packed`` keeps the
    lane-packed a and trace form of b, then the last basis and offset e
    met, with the new offset, the plan that translates by u and the phase.
    """
    f = v.field
    if e.field is not f and e.field != f:
        raise DimensionMismatch("operator and state over different fields")
    if len(e.a) != v.length:
        raise LengthMismatch(f"operator on {len(e.a)} qudits, state on {v.length}")
    if not v.mask:
        return v  # the zero state
    a, rep, big, basis, offset, t, plan, phase = (
        e._packed or (_vec_lanes(f, e.a), *_trace_form(f, e.b), None, None, None, None, None))
    b, slots = v.basis, v.basis.slots
    if basis is not b or offset != v.offset:
        x = b.add(v.offset, a)
        t, plan = b.reduce(x), slots.plan([(x >> shift) & b.digit for shift in b.shifts])
        phase = slots.affine(e.phase + slots.step * ((v.offset * rep) & big).bit_count(),
                             [((row * rep) & big).bit_count() for row in b.rows])
        e._packed = (a, rep, big, b, v.offset, t, plan, phase)
    arr = slots.add(v.arr, phase) if phase else v.arr
    if v.mask == slots.full:
        return StateVector(f, v.length, b, t, v.mask, _moved(arr, plan), v.scale)
    moved = _moved(arr & v.mask | slots.full ^ v.mask, plan)
    return StateVector(f, v.length, b, t, *slots.split(moved), v.scale)


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
    kernel = [g << i * shift | linalg._times(words.add, g, f.p - 1) << last
              for i in range(m - 1) for g in words.rows]
    basis = _basis(f, n * m, kernel)
    return [StateVector(f, n * m, basis, c << last, basis.slots.full, 0, 0)
            for _, c in sorted(zip(_message_labels(code), words.labels(0)))]


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
        """Pivot column -> row of the reduced echelon form over Q, a row at a time."""
        lead = {}
        for gram in ([inner(u, v) for u in union] for v in states):
            for j in range(deg):
                row = [Fraction(c) for g in gram for c in g.rot(j).coeffs]
                for col, other in lead.items():
                    if row[col]:
                        row = [x - row[col] * y for x, y in zip(row, other)]
                col = next((i for i, x in enumerate(row) if x), None)
                if col is not None:
                    row = [x / row[col] for x in row]
                    lead = {c: [x - r[col] * y for x, y in zip(r, row)] if r[col] else r
                            for c, r in lead.items()}
                    lead[col] = row
        return lead

    return echelon(states_a) == echelon(states_b)


def _check_fixing_group(states, found, gens) -> None:
    """Raise unless ``found`` is the abelian group that ``gens`` generate
    and every element of it fixes every state.

    Each element z^c X(a) Z(b) is read back as c and its lane-packed row
    (a | b), a in the low lanes.  Each generator g also gets the trace
    form T_g(y) = tr(a_g . y) of its a.  The trace form is symmetric, so
    x g = z^(c_x + c_g + step T_g(b_x)) X(a_x + a_g) Z(b_x + b_g), and g
    and h commute when T_h(b_g) = T_g(b_h) mod p.

    ``found`` holds the identity and is closed under right
    multiplication by ``gens``, so it contains <gens>.  Its elements are
    distinct and number p^rank, rank the F_p-rank of the generators'
    rows.  That is |<gens>| when <gens> holds no pure phase but 1, and
    less otherwise, so ``found`` is <gens> and holds no other pure phase.
    Every element is then a product of generators, so applying each
    generator to each state checks them all: |gens| |states| applies.
    """
    f, n = states[0].field, states[0].length
    p, lanes = f.p, n * f.degree
    modulus, step = phase_modulus(f), phase_step(f)
    shift, cw = lanes * _lane_width(p), (modulus - 1).bit_length()

    def pack(x):
        return _vec_lanes(f, x.a) | _vec_lanes(f, x.b) << shift

    elements = [(x.phase, pack(x)) for x in found]
    packed = [(g.phase, pack(g), *_trace_form(f, g.a)) for g in gens]
    for i, (_, rg, rep, big) in enumerate(packed):
        for _, rh, rep_h, big_h in packed[:i]:
            if (((rg >> shift) * rep_h & big_h).bit_count()
                    - ((rh >> shift) * rep & big).bit_count()) % p:
                raise ArithmeticError("fixing set is not abelian; span data corrupt")
    for g in gens:
        if not all(is_fixed(g, v) for v in states):
            raise ArithmeticError("solved generator moves a state; span data corrupt")
    keys = {row << cw | c for c, row in elements}
    if 0 not in keys:
        raise ArithmeticError("fixing set lacks the identity; span data corrupt")
    if len(keys) != len(found):
        raise ArithmeticError("fixing set repeats an element; span data corrupt")
    add = _lane_adder(p, 2 * lanes)
    for cg, rg, rep, big in packed:
        if not keys.issuperset(add(row, rg) << cw
                               | (c + cg + step * ((row >> shift) * rep & big).bit_count()) % modulus
                               for c, row in elements):
            raise ArithmeticError("fixing set not closed; span data corrupt")
    rank = len(linalg.Echelon(p, 2 * lanes, [row for _, row, _, _ in packed]).lead)
    if len(found) != p ** rank:
        raise ArithmeticError(f"fixing set has {len(found)} elements, its generators make"
                              f" {p}^{rank}; span data corrupt")


def _equation_row(f, n: int, x: int, rows: dict) -> int:
    """1 | tr(x .) << w, the row of label x in ``stab_of_span``: x itself
    at degree 1, else one lookup per coordinate chunk in ``rows`` (chunk
    -> lane-packed ``Field.trace_row``), filled on first use."""
    w = _lane_width(f.p)
    if f.degree == 1:
        return 1 | x << w
    chunk, row = f.degree * w, 1
    for i in range(n):
        c = x >> i * chunk & (1 << chunk) - 1
        if c not in rows:
            rows[c] = _lane_pack(f.trace_row(_lanes_vec(f, 1, c)[0]), w)
        row |= rows[c] << i * chunk + w
    return row


def stab_of_span(states, budget: int = DEFAULT_BUDGET) -> list:
    """Every z^c X(a) Z(b) fixing each spanning state exactly.

    With step = M / p, z^c X(a) Z(b) fixes a state with exponents e
    exactly when, on every support label x,

        e(x + a) - e(x) = c + step * tr(b.x)   (mod M).

    The left side fixes c mod step, and dividing by step leaves a
    system that is F_p-linear in the unknowns (c div step, digits of b),
    the row of label x being ``_equation_row``.  The labels whose rows
    are independent of those before them, state by state, give a row
    basis.  A candidate shift a must move an anchor label of the first
    state into that state's support, so at most |support| shifts are
    tried, and one ``linalg.solve`` on the row basis solves them all.

    The trials are decided by the group law.  The fixing elements form
    a group, so their shifts form an F_p-space S.  A solution is unique
    up to the kernel of the basis rows, which is the kernel of all the
    rows, and each element of that kernel fixes every state; so a shift
    lies in S exactly when its solved element fixes every state.  With
    the shifts accepted so far in an echelon, a trial in their span is
    accepted and one in r + span, for a rejected r, is rejected (else r
    would lie in S), neither with an apply; only the rest are checked
    with ``is_fixed`` on every state, and those accepted are a basis of
    S.  The fixing elements of a shift in S are its solution plus the
    kernel, walked by ``gf._gray_span`` from the solved element, kept
    first, all sharing one a tuple.

    The result is the group generated by the solutions of that basis
    and by the kernel elements.  ``_check_fixing_group`` proves from the
    returned elements alone that it is exactly the group those
    generators make, applying only the generators to the states; a
    wrong solve or a wrong skip fails it, so it raises rather than
    returns.  ``budget`` caps shifts x equation rows, read off the
    support masks, and elements x generators, the products of that check.
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
    w, digit, lanes = _lane_width(p), (1 << _lane_width(p)) - 1, 1 + n * r
    labels, trace, rows, basis, brows = {}, {}, linalg.Echelon(p, lanes), [], []
    for v in states:  # a row depends on its label alone: one row per label
        labels.update({x: v.exps for x in v.exps if x not in labels})
    for x, exps in labels.items():
        row = _equation_row(f, n, x, trace)
        if rows.insert(row):
            basis.append((exps, x))
            brows.append(row)
    kernel = linalg.kernel(p, lanes, brows)

    def element(c0, a, z):  # a is a tuple, built once per coset
        return PauliElement(f, c0 + step * (z & digit), a, _lanes_vec(f, n, z >> w))

    add = _lane_adder(p, lanes)
    anchor = next(iter(v0.exps))
    shifts = linalg.Echelon(p, n * r)
    minus_anchor = shifts.scale(anchor, p - 1)
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
        trials.append((c0, a))
        rhss.append([(d - c0) // step for d in diffs])
    aug = [row | _lane_pack(col, w) << lanes * w for row, col in zip(brows, zip(*rhss))]
    cosets, gens, rejected = [], [], set()
    for (c0, a), z in zip(trials, linalg.solve(p, lanes, aug, len(trials))):
        u = shifts.reduce(a)
        if u in rejected:
            continue
        e = element(c0, _lanes_vec(f, n, a), z)
        if u:
            if not all(is_fixed(e, v) for v in states):
                rejected.add(u)
                continue
            shifts.insert(u)
            rejected = {shifts.reduce(x) for x in rejected}
            gens.append(e)
        cosets.append((e, c0, z))
    gens += [element(0, (0,) * n, k) for k in kernel]
    work = len(cosets) * p ** len(kernel) * len(gens)
    if work > budget:
        raise BudgetExceeded("stab_of_span elements x generators", work, budget)
    found = []
    for e, c0, z0 in cosets:  # the walk starts at z0, whose element e is built
        rest = itertools.islice(_gray_span(p, kernel, add, z0), 1, None)
        found += [e] + [element(c0, e.a, z) for z in rest]
    _check_fixing_group(states, found, gens)
    for x in found + gens:  # the self-check's apply work is no part of the result
        x._packed = None
    return found


def fix_dim(s, budget: int = DEFAULT_BUDGET) -> int:
    """Dimension of the joint fixed space of a generator list.

    Accepts anything with ``field``, ``num_qudits``, ``generators`` or a
    bare list of PauliElements.  A vector v is fixed by z^c X(a) Z(b)
    exactly when v(x + a) = z^(c + step tr(b.x)) v(x) on every label x, so
    the translations by the X parts split the labels into orbits, the
    cosets of their span, and each orbit carries one fixed vector or none.

    A diagonal generator z^c Z(b) gives v(x) = z^(c + step tr(b.x)) v(x),
    so a fixed vector vanishes off the coset A = t + V where every one
    of them acts as 1: c + step tr(b.x) = 0 mod M.  The dimension is 0
    when some c is not a multiple of step or the system in x has no
    solution (t from one ``linalg.solve``, V from ``linalg.kernel``),
    and also when another generator's X part a lies outside V, since
    then x + a leaves A for every x in A.  Otherwise everything runs on
    slot arrays over the p^(dim V) labels of A, held as a ``_Basis`` with
    t reduced at its pivots, the form of every state: a lies in V, so
    it translates the slots by its digits at the pivot lanes, and its
    cost c + step tr(b.x) is affine in the slot digits, as in ``apply``.
    The tree generators are those whose translations are independent,
    and the slots zero at the pivot columns of their echelon form meet
    each orbit once.  Phases start at 0 there and spread along the tree
    generators; then every generator is checked on every slot, the
    slots where one breaks the relation are closed under the tree
    translations, and the orbits left untouched are counted.  With no
    diagonal generator, A is the whole space.  ``budget`` caps the q^N
    labels of the whole space.
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
    p, lanes, w = f.p, n * f.degree, _lane_width(f.p)
    modulus, step = phase_modulus(f), phase_step(f)
    diagonal = [g for g in gens if not any(g.a)]
    if any(g.phase % step for g in diagonal):
        return 0
    rows = [_lane_pack(f.trace_rows(g.b), w) for g in diagonal]
    t = linalg.solve(p, lanes, [row | -(g.phase // step) % p << lanes * w
                                for row, g in zip(rows, diagonal)], 1)[0]
    if t is None:
        return 0
    basis = _Basis(p, lanes, modulus, linalg.kernel(p, lanes, rows))
    t, slots = basis.reduce(t), basis.slots

    def cost(g):
        """(c + step tr(b.t), [tr(b.v_i)]): g's cost on t + sum_i X_i v_i,
        affine in the X_i, each trace up to a multiple of p, by the
        popcount form of ``apply``."""
        rep, big = _trace_form(f, g.b)
        return (g.phase + step * ((t * rep) & big).bit_count(),
                [((v * rep) & big).bit_count() for v in basis.rows])

    rank = len(linalg.Echelon(p, lanes, rows).lead)
    if len(basis.rows) != lanes - rank or any(
            c % modulus or any(x % p for x in row) for c, row in map(cost, diagonal)):
        raise ArithmeticError("diagonal generators do not vanish on their coset; linear algebra corrupt")
    shifts, costs = [], []
    for g in gens:
        if any(g.a):
            a = _vec_lanes(f, g.a)
            if basis.reduce(a):
                return 0
            shifts.append([(a >> shift) & basis.digit for shift in basis.shifts])
            costs.append(slots.affine(*cost(g)))
    span = linalg.Echelon(p, len(basis.rows))
    tree = [i for i, u in enumerate(shifts) if span.insert(_lane_pack(u, w))]
    transversal = slots.full
    for j in span.pivots:
        transversal &= slots.mask(j, p - 1)[0]
    phases, known = 0, transversal
    for i in tree:
        phases, known = slots.spread(phases, known, shifts[i], costs[i])
    if known != slots.full:
        raise ArithmeticError("tree translations miss a label; slot arrays corrupt")
    broken = bad = 0
    for u, arr in zip(shifts, costs):
        broken |= _moved(slots.add(phases, arr), slots.plan(u)) ^ phases
    if broken:
        bad = slots.nonzero(broken)
        for i in tree:
            bad = slots.spread(bad, slots.full, shifts[i], 0)[0]
    return (transversal & slots.ones & ~bad).bit_count()
