"""Exact state vectors for desk-scale verification.

Amplitudes live in the ring of cyclotomic integers Z[w], w = e^(2 pi i/p),
with one twist at p = 2: operator phases there are powers of i, so the
amplitude ring is the Gaussian integers and a trace contribution t enters
as i^(2t) = (-1)^t.  Everything is integer arithmetic; normalisation
factors (powers of 1/sqrt(p)) ride along as a symbolic exponent on the
state, never as a float.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from types import SimpleNamespace

from . import linalg
from .errors import BudgetExceeded, DimensionMismatch, LengthMismatch, NotACodeword
from .gf import FieldElement, _lane_adder, _lane_pack, _lane_span, _lane_width, _unpack_digits
from .lincode import LinearCode, contains, iter_codewords
from .pauli import PauliElement, phase_modulus

LABEL_BUDGET = 1 << 16
TRIAL_BUDGET = 1 << 22
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


class StateVector:
    """Immutable sparse vector over F_q^N with CycAmp amplitudes.

    ``scale`` counts powers of p^(-1/2) pulled out in front; two states
    are equal only when supports, amplitudes, and scale all agree.
    """

    __slots__ = ("field", "length", "amps", "scale")

    def __init__(self, field, length: int, amps: dict, scale: int = 0):
        self.field = field
        self.length = length
        self.amps = {k: v for k, v in amps.items() if not v.is_zero}
        self.scale = scale

    @property
    def support(self):
        return frozenset(self.amps)

    def __eq__(self, other):
        return (
            isinstance(other, StateVector)
            and self.field == other.field
            and self.length == other.length
            and self.scale == other.scale
            and self.amps == other.amps
        )

    def __repr__(self):
        return (
            f"StateVector(len={self.length}, support={len(self.amps)},"
            f" scale={self.scale})"
        )


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
    p = f.p
    mult = 2 if p == 2 else 1
    amps = {
        w: CycAmp.root(p, mult * table.f_int(lam, w)) for w in iter_codewords(code)
    }
    return StateVector(f, code.n, amps, scale=f.degree * code.k)


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
    amps = {}
    row_entries = matrix.rows[row]
    for col, label in enumerate(matrix.col_labels):
        word = encode(code, _unpack_digits(label, q, code.k)[::-1])
        amps[word] = CycAmp.root(f.p, mult * row_entries[col])
    return StateVector(f, code.n, amps, scale=f.degree * code.k)


def tensor(v: StateVector, w: StateVector) -> StateVector:
    if v.field != w.field:
        raise DimensionMismatch("tensor factors over different fields")
    if len(v.amps) * len(w.amps) > LABEL_BUDGET:
        raise BudgetExceeded("tensor support beyond budget")
    amps = {}
    for lv, av in v.amps.items():
        for lw, aw in w.amps.items():
            amps[lv + lw] = av * aw
    return StateVector(v.field, v.length + w.length, amps, v.scale + w.scale)


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


def apply(e: PauliElement, v: StateVector) -> StateVector:
    """Act with w^c X(a) Z(b): labels shift by a, phases pick up tr(b.x)."""
    f = v.field
    if e.field != f:
        raise DimensionMismatch("operator and state over different fields")
    if len(e.a) != v.length:
        raise LengthMismatch(f"operator on {len(e.a)} qudits, state on {v.length}")
    mult = 2 if f.p == 2 else 1
    a, b = e.a, e.b
    amps = {}
    for x, amp in v.amps.items():
        exponent = e.phase
        for bi, xi in zip(b, x):
            if bi and xi:
                exponent += mult * f.trace_int(f.mul(bi, xi))
        y = tuple(f.add(xi, ai) for xi, ai in zip(x, a))
        amps[y] = amp.rot(exponent)
    return StateVector(f, v.length, amps, v.scale)


def inner(v: StateVector, w: StateVector) -> CycAmp:
    """<v, w> without the scale factors: sum of conj(v) * w."""
    acc = CycAmp.zero(v.field.p)
    small, big = (v.amps, w.amps) if len(v.amps) < len(w.amps) else (w.amps, v.amps)
    for label in small:
        if label in big:
            acc = acc + v.amps[label].conj() * w.amps[label]
    return acc


def norm_sq(v: StateVector):
    """Squared norm as (integer, scale): value = integer * p^(-scale)."""
    acc = CycAmp.zero(v.field.p)
    for amp in v.amps.values():
        acc = acc + amp * amp.conj()
    return acc.as_int(), v.scale


def equal_sum_states(code: LinearCode, m: int) -> list:
    """For each c in C, the flat sum over all m-tuples of codewords adding to c."""
    if code.size ** m > SPAN_BUDGET:
        raise BudgetExceeded("equal-sum enumeration beyond budget")
    f = code.field
    one = CycAmp.one(f.p)
    words = list(iter_codewords(code))
    out = []
    for c in words:
        amps = {}
        for prefix in itertools.product(words, repeat=m - 1):
            total = c
            for blk in prefix:
                total = tuple(f.sub(t, x) for t, x in zip(total, blk))
            label = tuple(itertools.chain.from_iterable(prefix)) + total
            amps[label] = one
        out.append(StateVector(f, code.n * m, amps))
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
    support = sorted(set().union(*(v.support for v in itertools.chain(states_a, states_b))))
    if len(support) * (len(states_a) + len(states_b)) > SPAN_BUDGET:
        raise BudgetExceeded("span comparison beyond budget")
    p = f.p
    deg = 2 if p == 2 else p - 1
    zero = CycAmp.zero(p)

    def echelon(states):
        rows = [
            [Fraction(c) for s in support for c in v.amps.get(s, zero).rot(j).coeffs[:deg]]
            for v in states
            for j in range(deg)
        ]
        return linalg.rref(_RATIONALS, rows)[0]

    return echelon(states_a) == echelon(states_b)


def _phase_of_ratio(modulus, target: CycAmp, source: CycAmp):
    """e with target = w^e * source, or None."""
    for e in range(modulus):
        if source.rot(e) == target:
            return e
    return None


def stab_of_span(states) -> list:
    """Every w^c X(a) Z(b) fixing each spanning state exactly.

    The returned list is checked to be closed under multiplication and
    abelian before it is handed back; a failure of either would mean the
    span enumeration itself is wrong, so it raises rather than returns.
    """
    from .pauli import mul as pauli_mul
    from .pauli import symp_ip_int

    states = list(states)
    v0 = states[0]
    f = v0.field
    n = v0.length
    modulus = phase_modulus(f)
    total = (f.order ** (2 * n)) * modulus
    if total > TRIAL_BUDGET:
        raise BudgetExceeded(f"{total} trials exceed budget {TRIAL_BUDGET}")
    supports = [v.support for v in states]
    anchor = next(iter(v0.amps))
    found = []
    for a in itertools.product(range(f.order), repeat=n):
        shifted_ok = all(
            frozenset(tuple(f.add(x, y) for x, y in zip(lbl, a)) for lbl in sup) == sup
            for sup in supports
        )
        if not shifted_ok:
            continue
        for b in itertools.product(range(f.order), repeat=n):
            e = PauliElement(f, 0, a, b)
            image = apply(e, v0)
            phase = _phase_of_ratio(modulus, v0.amps[anchor], image.amps[anchor])
            if phase is None:
                continue
            candidate = PauliElement(f, phase, a, b)
            if all(apply(candidate, v) == v for v in states):
                found.append(candidate)
    for x in found:
        for y in found:
            if symp_ip_int(f, x.a, x.b, y.a, y.b):
                raise ArithmeticError("fixing set is not abelian; span data corrupt")
    keyset = {(g.phase, g.a, g.b) for g in found}
    for x in found:
        for y in found:
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
    p, r = f.p, f.degree
    # Labels are lane-packed, coordinate i in chunk i of r lanes; the
    # trace tables are keyed by the lane code of one coordinate.
    w = _lane_width(p)
    lane_code = [_lane_pack(f.digits(x), w) for x in range(f.order)]
    cmask = (1 << (r * w)) - 1
    moves = []
    for g in gens:
        terms = [
            (i * r * w,
             {lane_code[x]: mult * f.trace_int(f.mul(bi, x)) for x in range(f.order)})
            for i, bi in enumerate(g.b) if bi
        ]
        a = _lane_pack([d for ai in g.a for d in f.digits(ai)], w)
        moves.append((a, g.phase, terms))
    add = _lane_adder(p, n * r)
    units = [1 << (i * w) for i in range(n * r)]
    phase_of = {}
    dim = 0
    for start in _lane_span(p, units, n * r):
        if start in phase_of:
            continue
        phase_of[start] = 0
        stack = [start]
        ok = True
        while stack:
            x = stack.pop()
            base = phase_of[x]
            for a, phase, terms in moves:
                y = add(x, a)
                ph = base + phase
                for shift, table in terms:
                    ph += table[(x >> shift) & cmask]
                ph %= modulus
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
    lines = [
        f"state p={v.field.p} q={v.field.order} N={v.length} scale={v.scale}"
    ]
    for label in sorted(v.amps):
        coeffs = " ".join(str(c) for c in v.amps[label].coeffs)
        lines.append(f"{' '.join(str(x) for x in label)} : {coeffs}")
    return "\n".join(lines) + "\n"
