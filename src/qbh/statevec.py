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
``_act``, the one action core of ``apply``, ``is_fixed`` and the
packed trials of ``stab_of_span``, costs a few big-int operations per
basis row and none per label, keeps its work for the last basis and
offset it met, and on a full mask moves the exponent array alone.
The code states of m blocks of one code object share the product
basis it keeps and fill it, each one sum of m slot arrays, each
spread by one multiply from a compact array of |C| slots kept per
scalar or matrix row (``_fold``).  ``exps`` (label -> exponent) and
``amps`` (label tuple -> CycAmp) are read-only views.  ``fix_dim``
runs on the same form, over the coset where the generator list's
diagonal elements z^c Z(b) act as 1: a fixed vector vanishes
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


def _trace_lanes(f, n: int, x: int) -> int:
    """The lane-packed trace row of the lane-packed label x, tr(x . y) as
    a row on the lanes of y: x itself at degree 1, else each coordinate's
    ``Field.trace_row``."""
    if f.degree == 1:
        return x
    w = _lane_width(f.p)
    return _lane_pack([_lane_pack(f.trace_row(a), w) for a in _lanes_vec(f, n, x)], f.degree * w)


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


def _act(c: int, packed: list, v: StateVector) -> tuple:
    """(offset, mask, arr) of z^c X(a) Z(b) v; the zero state maps to itself.

    ``packed`` is [a, rep, big, basis, offset, t, plan, phase]: the
    lane-packed a and the trace form of b, then, refilled in place when
    v has another basis or offset, those of the last call: the offset t
    + a reduced at the pivot lanes, the plan that translates by the
    digits of a there, and the phase array c + step tr(b.t) + sum_i step
    tr(b.v_i) X_i.  A partial support is translated with its off-support
    slots all ones, then split (``slots._Slots.split``)."""
    if not v.mask:
        return v.offset, v.mask, v.arr
    a, rep, big, basis, offset, t, plan, phase = packed
    b, slots = v.basis, v.basis.slots
    if basis is not b or offset != v.offset:
        x = b.add(v.offset, a)
        t, plan = b.reduce(x), slots.plan([(x >> shift) & b.digit for shift in b.shifts])
        phase = slots.affine(c + slots.step * ((v.offset * rep) & big).bit_count(),
                             [((row * rep) & big).bit_count() for row in b.rows])
        packed[3:] = b, v.offset, t, plan, phase
    arr = slots.add(v.arr, phase) if phase else v.arr
    if v.mask == slots.full:
        return t, v.mask, _moved(arr, plan)
    return (t, *slots.split(_moved(arr & v.mask | slots.full ^ v.mask, plan)))


def _packed_of(e: PauliElement, v: StateVector) -> list:
    """``e._packed`` for ``_act``, filled once e is checked to act on v's space."""
    f = v.field
    if e.field is not f and e.field != f:
        raise DimensionMismatch("operator and state over different fields")
    if len(e.a) != v.length:
        raise LengthMismatch(f"operator on {len(e.a)} qudits, state on {v.length}")
    if e._packed is None:
        row = _lane_pack(f.trace_rows(e.b), _lane_width(f.p))
        e._packed = [_vec_lanes(f, e.a), *_trace_form(f, v.length, row)] + [None] * 5
    return e._packed


def apply(e: PauliElement, v: StateVector) -> StateVector:
    """Act with z^c X(a) Z(b) on v, by ``_act`` on ``e._packed``."""
    return StateVector(v.field, v.length, v.basis, *_act(e.phase, _packed_of(e, v), v), v.scale)


def is_fixed(e: PauliElement, v: StateVector) -> bool:
    """Whether e fixes v exactly, by ``_act`` alone: no state is built."""
    return _act(e.phase, _packed_of(e, v), v) == (v.offset, v.mask, v.arr)


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


def _check_generators(states, gens) -> list:
    """Raise unless ``gens`` commute pairwise, fix every state and have
    F_p-independent rows; return each as (c, row, rep, big).

    A generator z^c X(a) Z(b) comes as (c, row, packed): its lane-packed
    (a | b), a in the low lanes, and its form for ``_act``.  (rep, big)
    is the trace form T(y) = tr(a . y) of its a, symmetric, so x g =
    z^(c_x + c_g + step T_g(b_x)) X(a_x + a_g) Z(b_x + b_g), and g and h
    commute when T_h(b_g) = T_g(b_h) mod p.  Each generator fixes a
    nonzero state, so its p-th power, a pure phase, is 1.  With the rows
    independent, the p^|gens| products g_1^k_1 ... g_s^k_s, 0 <= k_i < p,
    have distinct rows, so they are the whole group, whose only pure
    phase is 1.
    """
    f, n = states[0].field, states[0].length
    p, lanes = f.p, n * f.degree
    shift = lanes * _lane_width(p)
    packed = [(c, row, *_trace_form(f, n, _trace_lanes(f, n, row & (1 << shift) - 1)))
              for c, row, _ in gens]
    for i, (_, rg, rep, big) in enumerate(packed):
        for _, rh, rep_h, big_h in packed[:i]:
            if (((rg >> shift) * rep_h & big_h).bit_count()
                    - ((rh >> shift) * rep & big).bit_count()) % p:
                raise ArithmeticError("fixing generators are not abelian; span data corrupt")
    for c, _, act in gens:
        if not all(_act(c, act, v) == (v.offset, v.mask, v.arr) for v in states):
            raise ArithmeticError("a fixing generator moves a state; span data corrupt")
    if len(linalg.Echelon(p, 2 * lanes, [row for _, row, _, _ in packed]).lead) != len(gens):
        raise ArithmeticError("generator rows are F_p-dependent; span data corrupt")
    return packed


def _equation_row(f, n: int, x: int) -> int:
    """1 | L(x) << w, the row of label x in ``stab_of_span``, L = ``_trace_lanes``."""
    return 1 | _trace_lanes(f, n, x) << _lane_width(f.p)


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
    row basis.  A candidate shift a must move an anchor label of the
    first state into its support, so at most |support| shifts are
    tried, and one ``linalg.solve`` on the row basis solves them all.

    The fixing elements form a group, so their shifts form an F_p-space
    S.  A solution is unique up to the kernel of the rows, whose
    elements fix every state; so a shift lies in S exactly when its
    solved element fixes every state.  With the accepted shifts in an
    echelon, a trial in their span is accepted, and one in k r + span,
    for a rejected r and any k != 0, is rejected (else r would lie in
    S), neither by an action: rejected shifts are kept reduced and
    scaled to 1 at their lowest nonzero lane.  The rest act, as packed
    (c, row, form) trials, by ``_act`` on every state, and those
    accepted are a basis of S.

    Their solutions and the kernel elements are the generators, which
    ``_check_generators`` proves commute, fix every state and are
    independent, so the group they make has p^|gens| elements and is the
    result; a wrong solve or skip raises there.  One ``gf._gray_span``
    walk over them makes every element by the group law, the only
    ``PauliElement``s built.  ``budget`` caps shifts x equation rows,
    read off the support masks, and the p^|gens| elements.
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
    sizes = [v.mask.bit_count() // v.basis.slots.width for v in states]
    work = sizes[0] * sum(sizes)
    if work > budget:
        raise BudgetExceeded("stab_of_span shifts x rows", work, budget)
    w, digit, lanes = _lane_width(p), (1 << _lane_width(p)) - 1, 1 + n * r
    half = n * r * w
    rows, basis, brows, supports = linalg.Echelon(p, lanes), [], [], {}
    for v in states:
        supports.setdefault((v.basis.rows, v.offset, v.mask), v)
    for v in supports.values():  # t and each t + v_i first, then the rest till dim + 1 rows
        exps, b, last = v.exps, v.basis, len(basis) + len(v.basis.rows) + 1
        first = [x for x in [v.offset, *(b.add(v.offset, row) for row in b.rows)] if x in exps]
        for x in itertools.chain(first, exps):
            row = _equation_row(f, n, x)
            if rows.insert(row):
                basis.append((exps, x))
                brows.append(row)
                if len(basis) == last:
                    break

    def trial(c0, a, z):  # z^c X(a) Z(b), b and c read off the solution z
        b = z >> w
        return (c0 + step * (z & digit), a | b << half,
                [a, *_trace_form(f, n, _trace_lanes(f, n, b))] + [None] * 5)

    add = _lane_adder(p, lanes)
    anchor = next(iter(v0.exps))
    shifts = linalg.Echelon(p, n * r)
    minus_anchor = shifts.scale(anchor, p - 1)
    trials, rhss = [], []
    for y in v0.exps:
        a, diffs = add(y, minus_anchor), []
        for exps, x in basis:
            ey = exps.get(add(x, a))
            if ey is None:
                break
            diffs.append((ey - exps[x]) % modulus)
        else:
            c0 = diffs[0] % step
            if not any((d - c0) % step for d in diffs):
                trials.append((c0, a))
                rhss.append([(d - c0) // step for d in diffs])
    aug = [row | _lane_pack(col, w) << lanes * w for row, col in zip(brows, zip(*rhss))]

    def key(a):  # a reduced by the accepted shifts, scaled to 1 at its lowest lane
        u = shifts.reduce(a)
        low = (u & -u).bit_length() - 1
        return shifts.scale(u, pow(u >> (low - low % w) & digit, -1, p)) if u else 0

    gens, rejected = [], set()
    for (c0, a), z in zip(trials, linalg.solve(p, lanes, aug, len(trials))):
        u = key(a)
        if not u or u in rejected:
            continue
        c, _, act = g = trial(c0, a, z)
        if all(_act(c, act, v) == (v.offset, v.mask, v.arr) for v in states):
            shifts.insert(u)
            rejected = {key(x) for x in rejected}
            gens.append(g)
        else:
            rejected.add(u)
    gens += [trial(0, 0, k) for k in linalg.kernel(p, lanes, brows)]
    if p ** len(gens) > budget:
        raise BudgetExceeded("stab_of_span elements", p ** len(gens), budget)
    row_add = _lane_adder(p, 2 * n * r)
    vec = functools.cache(functools.partial(_lanes_vec, f, n))  # an a or b many elements share

    def times(x, g):  # x g by the group law of ``_check_generators``
        (c, row), (cg, rg, rep, big) = x, g
        return (c + cg + step * ((row >> half) * rep & big).bit_count()) % modulus, row_add(row, rg)

    return [PauliElement(f, c, vec(row & (1 << half) - 1), vec(row >> half))
            for c, row in _gray_span(p, _check_generators(states, gens), times, (0, 0))]


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
        popcount form of ``_act``."""
        rep, big = _trace_form(f, n, _lane_pack(f.trace_rows(g.b), w))
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
