"""Exact state vectors for desk-scale verification.

Every state here is monomial: on each label of its support the
amplitude is a root of unity, w^e with w = e^(2 pi i/p).  At p = 2
operator phases are powers of i, so there the amplitude is i^e and a
trace contribution t enters as i^(2t) = (-1)^t.  A state is therefore
stored as a dict from lane-packed label (the vector format of ``gf``,
coordinate i in chunk i) to the exponent e mod M, with M = 4 at p = 2
and M = p otherwise.  Sums of amplitudes, such as inner products, are
cyclotomic integers in Z[w] (Gaussian integers at p = 2), kept exactly
as ``CycAmp``.  Normalisation factors (powers of 1/sqrt(p)) ride along
as a symbolic exponent on the state, never as a float.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from types import SimpleNamespace

from . import linalg
from .errors import BudgetExceeded, DimensionMismatch, LengthMismatch, NotACodeword
from .gf import (
    FieldElement,
    _lane_adder,
    _lane_pack,
    _lane_span,
    _lane_width,
    _pack_digits,
    _unpack_digits,
    field_make,
)
from .lincode import LinearCode, contains, iter_codewords
from .pauli import PauliElement, phase_modulus, symp_ip_int
from .pauli import mul as pauli_mul

LABEL_BUDGET = 1 << 16
# stab_of_span: candidate shifts x equation rows of its linear solve,
# and (elements found)^2, the products of its group self-check.
STAB_BUDGET = 1 << 20
SPAN_BUDGET = 1 << 14


class CycAmp:
    """One exact amplitude.

    p odd: coefficient vector of length p over the power basis of w,
    canonicalised modulo 1 + w + ... + w^(p-1) so the last coordinate
    is zero.  p = 2: a Gaussian integer stored as (re, im).  Canonical
    forms are unique, so equality is plain tuple equality.
    """

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs):
        self.p = p
        if p == 2:
            self.coeffs = (int(coeffs[0]), int(coeffs[1]))
        else:
            c = list(coeffs)
            last = c[-1]
            self.coeffs = tuple(x - last for x in c)

    @classmethod
    def zero(cls, p: int) -> "CycAmp":
        return cls(p, (0, 0) if p == 2 else (0,) * p)

    @classmethod
    def one(cls, p: int) -> "CycAmp":
        return cls(p, (1, 0) if p == 2 else (1,) + (0,) * (p - 1))

    @classmethod
    def root(cls, p: int, e: int) -> "CycAmp":
        """w^e for p odd; i^e for p = 2 (e taken mod 4)."""
        if p == 2:
            return cls(p, ((1, 0), (0, 1), (-1, 0), (0, -1))[e % 4])
        c = [0] * p
        c[e % p] = 1
        return cls(p, c)

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other: "CycAmp") -> "CycAmp":
        return CycAmp(self.p, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CycAmp") -> "CycAmp":
        return CycAmp(self.p, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "CycAmp":
        return CycAmp(self.p, tuple(-a for a in self.coeffs))

    def __mul__(self, other: "CycAmp") -> "CycAmp":
        p = self.p
        if p == 2:
            a, b = self.coeffs
            c, d = other.coeffs
            return CycAmp(2, (a * c - b * d, a * d + b * c))
        out = [0] * p
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[(i + j) % p] += a * b
        return CycAmp(p, out)

    def rot(self, e: int) -> "CycAmp":
        """Multiply by w^e (i^e at p = 2)."""
        p = self.p
        if p == 2:
            a, b = self.coeffs
            return CycAmp(2, ((a, b), (-b, a), (-a, -b), (b, -a))[e % 4])
        e %= p
        if not e:
            return self
        c = self.coeffs
        return CycAmp(p, tuple(c[(i - e) % p] for i in range(p)))

    def conj(self) -> "CycAmp":
        p = self.p
        if p == 2:
            a, b = self.coeffs
            return CycAmp(2, (a, -b))
        c = self.coeffs
        return CycAmp(p, tuple(c[(-i) % p] for i in range(p)))

    def as_int(self) -> int:
        """The value as a rational integer; raises if it is not one."""
        if any(self.coeffs[1:]):
            raise ValueError(f"{self!r} is not a rational integer")
        return self.coeffs[0]

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


def _pack(f, vec) -> int:
    """The lane-packed label of a vector over f, coordinate i in chunk i."""
    return _lane_pack([d for x in vec for d in f.digits(x)], _lane_width(f.p))


def _unpack(f, n, label) -> tuple:
    """The vector of length n over f named by a lane-packed label."""
    w, r = _lane_width(f.p), f.degree
    mask = (1 << w) - 1
    digs = [(label >> (j * w)) & mask for j in range(n * r)]
    return tuple(_pack_digits(digs[i * r:(i + 1) * r], f.p) for i in range(n))


def _exponent(amp: CycAmp) -> int:
    """e with amp = w^e (i^e at p = 2)."""
    p = amp.p
    for e in range(4 if p == 2 else p):
        if CycAmp.root(p, e) == amp:
            return e
    raise ValueError(f"{amp!r} is not a root of unity")


def _trace_form(f, b):
    """(rep, big) with tr(b.x) = popcount((x * rep) & big) mod p.

    Here x is a lane-packed label of length len(b).  tr(b.x) is the sum
    over lanes of x_l tr(b_i p^j), lane l holding digit j of coordinate
    i, so each bit of x carries a fixed coefficient v mod p.  Multiplying
    by rep lays p - 1 copies of x side by side, and big keeps in copy s
    the bits whose coefficient exceeds s, so one popcount counts each
    set bit v times.  At p = 2, rep = 1 and big is the bit mask of b.
    """
    p, w = f.p, _lane_width(f.p)
    width = len(b) * f.degree * w
    big, lane = 0, 0
    for bi in b:
        for j in range(f.degree):
            t = f.trace_int(f.mul(bi, p ** j))
            for k in range((p - 1).bit_length()):
                for s in range((t << k) % p):
                    big |= 1 << (s * width + lane * w + k)
            lane += 1
    rep = sum(1 << (s * width) for s in range(p - 1))
    return rep, big


class StateVector:
    """Immutable sparse monomial state over F_q^N.

    ``exps`` maps each lane-packed label of the support to its phase
    exponent mod M.  ``scale`` counts powers of p^(-1/2) pulled out in
    front; two states are equal only when supports, exponents and scale
    all agree.  The constructor takes the readable form, a dict from
    label tuple to CycAmp; zero amplitudes are dropped, and any other
    amplitude must be a root of unity.  ``amps`` and ``support`` give
    the readable form back, built on first access and cached.
    """

    __slots__ = ("field", "length", "exps", "scale", "_amps")

    def __init__(self, field, length: int, amps: dict, scale: int = 0):
        self.field = field
        self.length = length
        self.exps = {
            _pack(field, label): _exponent(amp) for label, amp in amps.items() if not amp.is_zero
        }
        self.scale = scale
        self._amps = None

    @property
    def amps(self) -> dict:
        """Label tuple -> CycAmp."""
        if self._amps is None:
            f, n = self.field, self.length
            self._amps = {_unpack(f, n, x): CycAmp.root(f.p, e) for x, e in self.exps.items()}
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
            and self.exps == other.exps
        )

    def __repr__(self):
        return (
            f"StateVector(len={self.length}, support={len(self.exps)},"
            f" scale={self.scale})"
        )


def _state(field, length: int, exps: dict, scale: int) -> StateVector:
    """A StateVector straight from its packed exponent dict."""
    v = object.__new__(StateVector)
    v.field, v.length, v.exps, v.scale, v._amps = field, length, exps, scale, None
    return v


def state_make(field, length: int, amps: dict, scale: int = 0) -> StateVector:
    for label in amps:
        if len(label) != length:
            raise LengthMismatch(f"label {label} is not length {length}")
    return StateVector(field, length, amps, scale)


def phi(code: LinearCode, table, lam) -> StateVector:
    """The state sum_{c in C} w^{f_lam(c)} |c>, scaled by q^{-k/2}."""
    if table.code is not code and table.code != code:
        raise DimensionMismatch("functional table belongs to a different code")
    f = code.field
    if code.size > LABEL_BUDGET:
        raise BudgetExceeded(f"code has {code.size} words, budget {LABEL_BUDGET}")
    lam = lam.value if isinstance(lam, FieldElement) else int(lam)
    mult = 2 if f.p == 2 else 1
    exps = {_pack(f, w): mult * table.f_int(lam, w) for w in iter_codewords(code)}
    return _state(f, code.n, exps, f.degree * code.k)


def phi_from_matrix(matrix, code: LinearCode, row: int) -> StateVector:
    """Row ``row`` of a BH matrix read as a state on the codewords of C.

    Column label x names the codeword with message digits of x in base q,
    most significant first; the entry is the amplitude exponent.  No
    functional structure is assumed, which is the point: this is how
    states of an arbitrary scrambled matrix are built.
    """
    from .lincode import encode

    f = code.field
    q = f.order
    if matrix.order != code.size:
        raise DimensionMismatch(
            f"matrix order {matrix.order} != number of codewords {code.size}"
        )
    if matrix.p != f.p:
        raise DimensionMismatch(f"matrix entries mod {matrix.p}, field characteristic {f.p}")
    mult = 2 if f.p == 2 else 1
    exps = {}
    row_entries = matrix.rows[row]
    for col, label in enumerate(matrix.col_labels):
        word = encode(code, _unpack_digits(label, q, code.k)[::-1])
        exps[_pack(f, word)] = mult * row_entries[col]
    return _state(f, code.n, exps, f.degree * code.k)


def tensor(v: StateVector, w: StateVector) -> StateVector:
    if v.field != w.field:
        raise DimensionMismatch("tensor factors over different fields")
    if len(v.exps) * len(w.exps) > LABEL_BUDGET:
        raise BudgetExceeded("tensor support beyond budget")
    f = v.field
    shift = v.length * f.degree * _lane_width(f.p)
    modulus = phase_modulus(f)
    exps = {
        lv | (lw << shift): (ev + ew) % modulus
        for lv, ev in v.exps.items()
        for lw, ew in w.exps.items()
    }
    return _state(f, v.length + w.length, exps, v.scale + w.scale)


def big_phi(code: LinearCode, d_code: LinearCode, table, lam_word) -> StateVector:
    """Tensor product of the phi states named by one codeword of D."""
    lam_word = tuple(
        x.value if isinstance(x, FieldElement) else int(x) for x in lam_word
    )
    if not contains(d_code, lam_word):
        raise NotACodeword(f"{lam_word} is not in the outer code")
    if code.size ** d_code.n > LABEL_BUDGET:
        raise BudgetExceeded("tensor support beyond budget")
    out = phi(code, table, lam_word[0])
    for lam in lam_word[1:]:
        out = tensor(out, phi(code, table, lam))
    return out


def big_phi_from_matrix(matrix, code: LinearCode, rows) -> StateVector:
    out = phi_from_matrix(matrix, code, rows[0])
    for r in rows[1:]:
        out = tensor(out, phi_from_matrix(matrix, code, r))
    return out


def _images(e: PauliElement, v: StateVector):
    """(x + a, exponent at x + c + mult * tr(b.x)) for each label x of v."""
    f = v.field
    if e.field != f:
        raise DimensionMismatch("operator and state over different fields")
    if len(e.a) != v.length:
        raise LengthMismatch(f"operator on {len(e.a)} qudits, state on {v.length}")
    add = _lane_adder(f.p, v.length * f.degree)
    a = _pack(f, e.a)
    rep, big = _trace_form(f, e.b)
    c, modulus = e.phase, phase_modulus(f)
    mult = 2 if f.p == 2 else 1
    return (
        (add(x, a), (ex + c + mult * ((x * rep) & big).bit_count()) % modulus)
        for x, ex in v.exps.items()
    )


def apply(e: PauliElement, v: StateVector) -> StateVector:
    """Act with w^c X(a) Z(b): labels shift by a, phases pick up tr(b.x)."""
    return _state(v.field, v.length, dict(_images(e, v)), v.scale)


def is_fixed(e: PauliElement, v: StateVector) -> bool:
    """Whether apply(e, v) == v, decided at the first label that moves.

    The shift is a bijection of labels, so v is fixed exactly when every
    image lands on a support label with the exponent that label has.
    """
    exps = v.exps
    return all(exps.get(y) == ey for y, ey in _images(e, v))


def inner(v: StateVector, w: StateVector) -> CycAmp:
    """<v, w> without the scale factors: sum of conj(v) * w.

    Each common label contributes w^(e_w - e_v), so the sum is the
    histogram of exponent differences read as a cyclotomic integer.
    """
    p = v.field.p
    modulus = phase_modulus(v.field)
    counts = [0] * modulus
    ve, we = v.exps, w.exps
    for x in ve.keys() & we.keys():
        counts[(we[x] - ve[x]) % modulus] += 1
    if p == 2:
        return CycAmp(2, (counts[0] - counts[2], counts[1] - counts[3]))
    return CycAmp(p, counts)


def norm_sq(v: StateVector):
    """Squared norm as (integer, scale): value = integer * p^(-scale).

    Every amplitude is a root of unity, so the integer is the support size.
    """
    return len(v.exps), v.scale


def equal_sum_states(code: LinearCode, m: int) -> list:
    """For each c in C, the flat sum over all m-tuples of codewords adding to c."""
    if code.size ** m > SPAN_BUDGET:
        raise BudgetExceeded("equal-sum enumeration beyond budget")
    f = code.field
    words = list(iter_codewords(code))
    out = []
    for c in words:
        exps = {}
        for prefix in itertools.product(words, repeat=m - 1):
            total = c
            for blk in prefix:
                total = tuple(f.sub(t, x) for t, x in zip(total, blk))
            exps[_pack(f, tuple(itertools.chain.from_iterable(prefix)) + total)] = 0
        out.append(_state(f, code.n * m, exps, 0))
    return out


# Q as the field that linalg.rref reduces over; Fraction(0) is falsy.
_RATIONALS = SimpleNamespace(inv=lambda x: 1 / x, mul=operator.mul, sub=operator.sub)


def span_equal(states_a, states_b) -> bool:
    """Equality of row spaces over the field Q(w), computed exactly.

    A Q(w)-span is the Q-span of the w-multiples of its vectors, so each
    state gives deg rational rows, w^j v for j < deg, read in the power
    basis of Q(w) (deg = 2 at p = 2, p - 1 otherwise), and the spans are
    compared by their reduced echelon forms over Q.  Scale exponents are
    ignored; a global nonzero scalar never moves a span.  Reduction runs
    over the union support, so disjointly supported nonzero states
    compare unequal without special casing.
    """
    states_a, states_b = list(states_a), list(states_b)
    if not states_a or not states_b:
        return not states_a and not states_b
    f = states_a[0].field
    n = states_a[0].length
    for v in itertools.chain(states_a, states_b):
        if v.field != f or v.length != n:
            raise DimensionMismatch("states to compare live in different spaces")
    support = sorted(set().union(*(v.exps for v in itertools.chain(states_a, states_b))))
    if len(support) * (len(states_a) + len(states_b)) > SPAN_BUDGET:
        raise BudgetExceeded("span comparison beyond budget")
    p = f.p
    modulus = phase_modulus(f)
    deg = 2 if p == 2 else p - 1
    roots = [CycAmp.root(p, e).coeffs[:deg] for e in range(modulus)]
    zero = (0,) * deg

    def echelon(states):
        rows = [
            [Fraction(c)
             for s in support
             for c in (roots[(v.exps[s] + j) % modulus] if s in v.exps else zero)]
            for v in states
            for j in range(deg)
        ]
        return linalg.rref(_RATIONALS, rows)[0]

    return echelon(states_a) == echelon(states_b)


def stab_of_span(states) -> list:
    """Every w^c X(a) Z(b) fixing each spanning state exactly.

    With mult = 2 at p = 2 and 1 otherwise, w^c X(a) Z(b) fixes a state
    with exponents e exactly when, on every support label x,

        e(x + a) - e(x) = c + mult * tr(b.x)   (mod M).

    At odd p this is F_p-linear in the unknowns (c, digits of b).  At
    p = 2 the left side fixes c mod 2, and halving leaves the same
    system in (c div 2, b).  The coefficient row (1, tr(p^j x_i)) of a
    label depends on the label alone, so a row basis and its solving map
    are echelonned once per call.  A candidate shift a must move an
    anchor label of the first state into that state's support, so at
    most |support| shifts are tried.  Each costs one solve on the row
    basis and an ``is_fixed`` check of that solution on every state,
    which holds exactly when the whole system is consistent; the fixing
    elements of that shift are then the solution plus the kernel.

    The returned list is checked to be closed under multiplication and
    abelian, and each element to fix each state, before it is handed
    back; a failure would mean the solve itself is wrong, so it raises
    rather than returns.
    """
    states = list(states)
    v0 = states[0]
    f, n = v0.field, v0.length
    for v in states:
        if v.field != f or v.length != n:
            raise DimensionMismatch("states of one span live in different spaces")
    p, r = f.p, f.degree
    modulus = phase_modulus(f)
    mult = 2 if p == 2 else 1
    shifts = len(v0.exps)
    rows = sum(len(v.exps) for v in states)
    if shifts * rows > STAB_BUDGET:
        raise BudgetExceeded(
            f"{shifts} shifts x {rows} rows exceed stab_of_span budget {STAB_BUDGET}"
        )
    prime = field_make(p, 1)
    ncols = 1 + n * r

    def row_of(x):
        return (1,) + tuple(
            f.trace_int(f.mul(p ** j, xi)) for xi in _unpack(f, n, x) for j in range(r)
        )

    # A basis of the rows, as (state, label) pairs whose rows are independent.
    basis, brows, rrows, pivots = [], [], [], []
    for v in states:
        for x in v.exps:
            if len(basis) == ncols:
                break
            row = row_of(x)
            if any(linalg.reduce_vector(prime, rrows, pivots, row)):
                basis.append((v.exps, x))
                brows.append(row)
                rrows, pivots = linalg.rref(prime, brows)
    # The rows are independent, so reducing [rows | I] puts every pivot
    # among the unknowns, and the identity part of each reduced row
    # holds that pivot unknown as a combination of the right-hand sides.
    rank = len(brows)
    solved, spivots = linalg.rref(
        prime, [row + tuple(int(i == k) for i in range(rank)) for k, row in enumerate(brows)]
    )
    solver = [(col, row[ncols:]) for row, col in zip(solved, spivots)]
    kernel = linalg.nullspace(prime, brows, ncols)

    def element(c0, a, z):
        b = tuple(_pack_digits(z[1 + i * r:1 + (i + 1) * r], p) for i in range(n))
        return PauliElement(f, c0 + mult * z[0], a, b)

    add = _lane_adder(p, n * r)
    anchor = next(iter(v0.exps))
    minus_anchor = _pack(f, [f.neg(x) for x in _unpack(f, n, anchor)])
    cosets = []
    for y in v0.exps:
        a = add(y, minus_anchor)
        diffs = []
        for exps, x in basis:
            ey = exps.get(add(x, a))
            if ey is None:
                break
            diffs.append((ey - exps[x]) % modulus)
        if len(diffs) < rank:
            continue
        c0 = diffs[0] % mult
        if any((d - c0) % mult for d in diffs):
            continue
        rhs = [(d - c0) // mult for d in diffs]
        z = [0] * ncols
        for col, comb in solver:
            z[col] = sum(u * h for u, h in zip(comb, rhs)) % p
        g = element(c0, _unpack(f, n, a), z)
        if all(is_fixed(g, v) for v in states):
            cosets.append((c0, g.a, z))
    size = len(cosets) * p ** len(kernel)
    if size * size > STAB_BUDGET:
        raise BudgetExceeded(
            f"{size} fixing elements, {size * size} self-check products, exceed"
            f" stab_of_span budget {STAB_BUDGET}"
        )
    found = []
    for c0, a, z0 in cosets:
        for coeffs in itertools.product(range(p), repeat=len(kernel)):
            z = list(z0)
            for t, k in zip(coeffs, kernel):
                z = [(zi + t * ki) % p for zi, ki in zip(z, k)]
            found.append(element(c0, a, z))
    keyset = {(g.phase, g.a, g.b) for g in found}
    for x in found:
        if not all(is_fixed(x, v) for v in states):
            raise ArithmeticError("solved element moves a state; span data corrupt")
        for y in found:
            if symp_ip_int(f, x.a, x.b, y.a, y.b):
                raise ArithmeticError("fixing set is not abelian; span data corrupt")
            z = pauli_mul(x, y)
            if (z.phase, z.a, z.b) not in keyset:
                raise ArithmeticError("fixing set not closed; span data corrupt")
    return found


def fix_dim(s) -> int:
    """Dimension of the joint fixed space of a generator list.

    Accepts anything with ``field``, ``num_qudits``, ``generators`` or a
    bare list of PauliElements.  Works by orbit tracing: the X parts
    partition the basis labels into orbits, relation v(x + a) =
    w^(c + tr(b.x)) v(x) propagates a phase along each orbit, and an
    orbit contributes one dimension exactly when the propagated phases
    are consistent around every cycle.
    """
    if hasattr(s, "generators"):
        gens = list(s.generators)
        f = s.field
        n = s.num_qudits
    else:
        gens = list(s)
        if not gens:
            raise ValueError("cannot infer the space from an empty generator list")
        f = gens[0].field
        n = len(gens[0].a)
    if f.order ** n > LABEL_BUDGET:
        raise BudgetExceeded(f"{f.order ** n} labels exceed budget {LABEL_BUDGET}")
    if not gens:
        return f.order ** n
    modulus = phase_modulus(f)
    mult = 2 if f.p == 2 else 1
    lanes = n * f.degree
    moves = [(_pack(f, g.a), g.phase, *_trace_form(f, g.b)) for g in gens]
    add = _lane_adder(f.p, lanes)
    w = _lane_width(f.p)
    units = [1 << (i * w) for i in range(lanes)]
    phase_of = {}
    dim = 0
    for start in _lane_span(f.p, units, lanes):
        if start in phase_of:
            continue
        phase_of[start] = 0
        stack = [start]
        ok = True
        while stack:
            x = stack.pop()
            base = phase_of[x]
            for a, phase, rep, big in moves:
                y = add(x, a)
                ph = (base + phase + mult * ((x * rep) & big).bit_count()) % modulus
                seen = phase_of.get(y)
                if seen is None:
                    phase_of[y] = ph
                    stack.append(y)
                elif seen != ph:
                    ok = False
        if ok:
            dim += 1
    return dim


def state_to_text(v: StateVector) -> str:
    """Debug dump; line oriented, not a stable interface."""
    f = v.field
    lines = [f"state p={f.p} q={f.order} N={v.length} scale={v.scale}"]
    for label, e in sorted((_unpack(f, v.length, x), e) for x, e in v.exps.items()):
        coeffs = " ".join(str(c) for c in CycAmp.root(f.p, e).coeffs)
        lines.append(f"{' '.join(str(x) for x in label)} : {coeffs}")
    return "\n".join(lines) + "\n"
