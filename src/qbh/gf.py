"""Exact arithmetic in finite fields F_{p^t} and their subfield towers.

An element of F_{p^t} is a packed integer in [0, p^t): the base-p digits
of the integer are the coefficients of the residue polynomial, constant
term first.  Every field precomputes exp/log tables over its smallest
primitive element at construction time, in O(order t) steps, so
multiplication, inversion, Frobenius and trace are table lookups on
plain ints.

Addition is digitwise mod p, with no dense table: XOR of the packed
digits at p = 2, and (a + b) mod p at degree 1.  Above that at odd p
every field keeps one table pair, each element's lane-packed digits (the
lane format below) and its inverse, and a + b is one lane add read back
through the inverse.

The default modulus for F_{p^t} is the monic irreducible polynomial of
degree t whose non-leading coefficient vector, read as a packed integer,
is smallest.  This makes field construction deterministic, so two calls
to ``field_make(p, t)`` agree everywhere.
"""

from __future__ import annotations

import functools
import operator

from .errors import BudgetExceeded, NoEmbedding, NotPrime, ReducibleModulus

# Elements are packed into machine ints; keep orders desk-sized.
FIELD_SIZE_LIMIT = 1 << 16


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# --- polynomial helpers ------------------------------------------------
# Polynomials over F_p are tuples of ints, constant term first.


def _poly_trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a, m, p):
    # m monic
    a = list(a)
    dm = len(m) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] % p
        if c:
            a[i] = 0
            for j in range(dm):
                a[i - dm + j] = (a[i - dm + j] - c * m[j]) % p
    return _poly_trim(a[:dm])


def _is_irreducible(m, p):
    """Trial division by every monic polynomial of degree <= deg(m)/2."""
    deg = len(m) - 1
    if deg < 1 or any(c % p for c in (m[-1] - 1,)):
        return False
    if deg == 1:
        return True
    if m[0] == 0:
        return False  # divisible by x
    for d in range(1, deg // 2 + 1):
        for packed in range(p ** d):
            div = list(_unpack_digits(packed, p, d)) + [1]
            if not _poly_mod(m, div, p):
                return False
    return True


def _smallest_irreducible(p, t):
    for packed in range(p ** t):
        m = tuple(_unpack_digits(packed, p, t)) + (1,)
        if _is_irreducible(m, p):
            return m
    raise ReducibleModulus(f"no irreducible polynomial of degree {t} over F_{p}")


def _poly_powmod(a, e, m, p):
    out = (1,)
    while e:
        if e & 1:
            out = _poly_mod(_poly_mul(out, a, p), m, p)
        a = _poly_mod(_poly_mul(a, a, p), m, p)
        e >>= 1
    return out


def _smallest_primitive(m, p, t):
    """The residue g of multiplicative order p^t - 1 modulo m whose packed
    value is smallest, as a polynomial.

    g has the full order n = p^t - 1 exactly when g^(n/l) != 1 for each
    prime l dividing n, which is one square-and-multiply per prime.
    """
    n = p ** t - 1
    primes, rest, l = [], n, 2
    while l * l <= rest:
        if rest % l == 0:
            primes.append(l)
            while rest % l == 0:
                rest //= l
        l += 1
    if rest > 1:
        primes.append(rest)
    for g in range(1, n + 1):
        base = _poly_trim(_unpack_digits(g, p, t))
        if all(_poly_powmod(base, n // l, m, p) != (1,) for l in primes):
            return base
    raise ReducibleModulus("no element of full order; modulus reducible")  # pragma: no cover


def _unpack_digits(v, p, t):
    digs = []
    for _ in range(t):
        v, r = divmod(v, p)
        digs.append(r)
    return tuple(digs)


# --- lane packing --------------------------------------------------------
# A vector over F_{p^t} packs into one int with one F_p digit per bit
# lane, lane i holding digit i of ``Field.vec_digits``, so coordinate i
# fills chunk i.  Lanes are 1 bit wide at p = 2, where addition is XOR.
# For odd p a lane is w = (p-1).bit_length() + 1 bits wide, the width
# at which ``_slot_adder`` adds mod p (SWAR; Warren, Hacker's Delight,
# ch. 2).  The adder at p = 2 is the builtin XOR, so hot loops call the
# adder at every p.


def _lane_width(p):
    return 1 if p == 2 else (p - 1).bit_length() + 1


def _lane_pack(digs, w):
    v = 0
    for d in reversed(digs):
        v = (v << w) | d
    return v


def _check_entries(f, entries) -> None:
    """Refuse, by the first one, entries of a sequence that are not packed
    elements of the field f; min and max pass a clean one at C speed."""
    if entries and (min(entries) < 0 or max(entries) >= f.order):
        x = next(x for x in entries if not 0 <= x < f.order)
        raise ValueError(f"entry {x} is not a packed element of {f!r}")


def _vec_lanes(f, vec):
    """The lane-packed label of a vector over the field f, one chunk of
    r lanes per coordinate.  A packed element is already its chunk at
    p = 2 and at r = 1; above that the chunk is read from the field's
    lane table."""
    if f._lanes is not None:
        vec = [f._lanes[a] for a in vec]
    return _lane_pack(vec, f.degree * _lane_width(f.p))


def _lanes_vec(f, n, label):
    """The vector of length n over the field f named by a lane-packed
    label: each coordinate's chunk, read back through the inverse of the
    field's lane table above p = 2 and r = 1."""
    size = f.degree * _lane_width(f.p)
    chunks = [label >> i & (1 << size) - 1 for i in range(0, n * size, size)]
    return tuple(chunks if f._lanes is None else [f._from_lanes[x] for x in chunks])


def _trace_lanes(f, x):
    """The lane-packed trace row of the lane-packed vector x, tr(x . y) as a
    row on the lanes of y: x at degree 1, else each nonzero chunk's
    ``Field.trace_row``, lane-packed once into the field's ``_row_lanes``."""
    if f.degree == 1:
        return x
    w = _lane_width(f.p)
    chunk, rows, row = f.degree * w, f._row_lanes, 0
    while x:
        shift = ((x & -x).bit_length() - 1) // chunk * chunk
        c = x >> shift & (1 << chunk) - 1
        if c not in rows:
            rows[c] = _lane_pack(f.trace_row(_lanes_vec(f, 1, c)[0]), w)
        row |= rows[c] << shift
        x ^= c << shift
    return row


def _slot_adder(modulus, width, slots):
    """Slotwise addition mod ``modulus`` of two ints packed as ``slots``
    slots of ``width`` bits, each slot holding a value in [0, modulus).

    Needs modulus <= 2^(width-1): a slot sum never carries into the next
    slot, and adding 2^(width-1) - modulus sets the top bit of exactly
    the slots whose sum reaches the modulus, which then drop it.
    """
    ones = ((1 << slots * width) - 1) // ((1 << width) - 1)
    bias = ones * ((1 << (width - 1)) - modulus)
    high = ones << (width - 1)
    shift = width - 1

    def add(x, y):
        s = x + y
        return s - (((s + bias) & high) >> shift) * modulus

    return add


def _lane_adder(p, lanes):
    """Lanewise addition mod p of two packed vectors of ``lanes`` lanes."""
    if p == 2:
        return operator.xor
    return _slot_adder(p, _lane_width(p), lanes)


def _lane_flags(p, x, ones):
    """Bit 0 of each lane of x set when the lane is nonzero, for ``ones``
    holding bit 0 of every lane: the OR of its w - 1 value bits."""
    flags = x
    for i in range(1, _lane_width(p) - 1):
        flags |= x >> i
    return flags & ones


def _valuation(i, p):
    j = 0
    while i % p == 0:
        i //= p
        j += 1
    return j


def _block_rows(p, dim, most=4096):
    """The rows of one block: the most, up to dim, whose p^low
    combinations number at most ``most``."""
    low = 0
    while low < dim and p ** (low + 1) <= most:
        low += 1
    return low


@functools.cache
def _ruler(p, low):
    """v_p(i) for 0 < i < p^low: the steps of one block of ``_gray_span``."""
    return tuple(_valuation(i, p) for i in range(1, p ** low))


def _gray_span(p, rows, add, start=0):
    """Every F_p-combination of ``rows`` added to ``start``, start first.

    ``add`` adds two vectors in whatever format ``rows`` are in, such as
    the lane adder of ``_lane_adder``.  The order is the modular p-ary
    Gray code: step idx adds row v_p(idx), the p-adic valuation of idx.
    With d the base-p digits of idx, step idx lands on the combination
    with coefficient d_j - d_{j+1} mod p on row j, so each combination
    comes once, and it lies in the span of the first s rows exactly when
    idx < p^s.  The valuations come from a ``_ruler`` table of at most
    4096 steps, reused block by block.
    """
    dim = len(rows)
    low = _block_rows(p, dim)
    steps = _ruler(p, low)
    cur = start
    for block in range(p ** (dim - low)):
        if block:
            cur = add(cur, rows[low + _valuation(block, p)])
        yield cur
        for j in steps:
            cur = add(cur, rows[j])
            yield cur


def _linear_orbit(p, t, images, count):
    """Lanes of v_0 = 1, v_{i+1} = g v_i for i < count - 1.

    v -> g v is F_p-linear, given by the lane-packed ``images`` g p^d of
    the digit units.  The orbit runs a chunk of c digits at a time, c the
    most digits with at most 256 combinations: a table per chunk maps the
    chunk's lanes to their image under g, so a step is one table lookup
    and one lane add per chunk.
    """
    w = _lane_width(p)
    add = _lane_adder(p, t)
    c = 1
    while c < t and p ** (c + 1) <= 256:
        c += 1
    tables = []
    for lo in range(0, t, c):
        table = {0: 0}
        for d in range(lo, min(lo + c, t)):
            multiples = [0]
            for _ in range(p - 1):
                multiples.append(add(multiples[-1], images[d]))
            table = {key | (a << (d - lo) * w): add(image, multiples[a])
                     for a in range(p) for key, image in table.items()}
        tables.append((lo * w, table))
    mask = (1 << c * w) - 1
    out = []
    cur = 1
    for _ in range(count):
        out.append(cur)
        nxt = 0
        for shift, table in tables:
            nxt = add(nxt, table[(cur >> shift) & mask])
        cur = nxt
    return out


# --- the field itself --------------------------------------------------


class Field:
    """F_{p^t} with table-backed arithmetic on packed-int elements.

    Do not call the constructor directly; use :func:`field_make`, which
    validates inputs and memoizes instances.
    """

    __slots__ = (
        "p", "degree", "order", "modulus",
        "_exp", "_log", "_trace", "_frob", "_embed_cache", "_rows", "_row_lanes",
        "_lanes", "_from_lanes", "_lane_add",
    )

    def __init__(self, p: int, degree: int, modulus: tuple):
        self.p = p
        self.degree = degree
        self.order = p ** degree
        self.modulus = modulus
        self._embed_cache, self._rows, self._row_lanes = {}, {}, {}
        self._build_tables()

    def __reduce__(self):
        # the lane adder is a closure, so a field pickles as its arguments
        return field_make, (self.p, self.degree, self.modulus)

    # -- construction helpers

    def _build_tables(self):
        p, t, order = self.p, self.degree, self.order
        w = _lane_width(p)
        # above p = 2 and degree 1, each element's lanes: the constant
        # digit a mod p below the lanes of a div p; and their inverse
        self._lanes = self._from_lanes = None
        if p != 2 and t > 1:
            lanes = [0] * order
            for a in range(1, order):
                lanes[a] = lanes[a // p] << w | a % p
            self._lanes = tuple(lanes)
            self._from_lanes = {x: a for a, x in enumerate(lanes)}
            self._lane_add = _lane_adder(p, t)
        n = order - 1
        # exp/log over the smallest primitive element g, by iterating the
        # F_p-linear map v -> g v given by the images g p^d of the digit units
        g = _smallest_primitive(self.modulus, p, t)
        images = [
            _lane_pack(_poly_mod(_poly_mul(g, (0,) * d + (1,), p), self.modulus, p), w)
            for d in range(t)
        ]
        exp = _linear_orbit(p, t, images, n)
        if self._lanes is not None:
            exp = [self._from_lanes[x] for x in exp]
        if len(set(exp)) != n or not all(exp):  # pragma: no cover - field_make checks the modulus
            raise ReducibleModulus("multiplicative group is not cyclic; modulus reducible")
        log = [0] * order
        for i, v in enumerate(exp):
            log[v] = i
        self._exp = exp
        self._log = log

        self._frob = [0] + [exp[(i * p) % n] for i in log[1:]]

        # the trace is F_p-linear: extend it one digit at a time from the
        # traces of the digit units, tr(a p^d + b) = a tr(p^d) + tr(b) for b < p^d
        trace = [0]
        for d in range(t):
            unit, acc = p ** d, 0
            for _ in range(t):
                acc = self.add(acc, unit)
                unit = self._frob[unit]
            trace = [(a * acc + x) % p for a in range(p) for x in trace]
        self._trace = trace

    # -- int-level arithmetic

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.degree == 1:
            return (a + b) % self.p
        return self._from_lanes[self._lane_add(self._lanes[a], self._lanes[b])]

    def neg(self, a: int) -> int:
        """-a = (p - 1) a."""
        return self.mul(self.p - 1, a)

    def mul(self, a: int, b: int) -> int:
        if not a or not b:
            return 0
        if self.degree == 1:
            return (a * b) % self.p
        return self._exp[(self._log[a] + self._log[b]) % (self.order - 1)]

    def inv(self, a: int) -> int:
        if not a:
            raise ZeroDivisionError("inverse of zero field element")
        if self.degree == 1:
            return pow(a, self.p - 2, self.p)
        return self._exp[(-self._log[a]) % (self.order - 1)]

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        out = 1
        while e:
            if e & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            e >>= 1
        return out

    def frobenius(self, a: int) -> int:
        """x -> x^p, the generating automorphism over F_p (the identity at degree 1)."""
        return self._frob[a]

    def trace_int(self, a: int) -> int:
        """Absolute trace down to F_p, returned as an int in [0, p)."""
        if self.degree == 1:
            return a
        return self._trace[a]

    def trace_row(self, a: int) -> tuple:
        """(tr(a p^d) for d < degree): tr(a.x) as a row on the digits of x;
        kept per element once asked for."""
        row = self._rows.get(a)
        if row is None:
            row = self._rows[a] = tuple(self.trace_int(self.mul(a, self.p ** d))
                                        for d in range(self.degree))
        return row

    def trace_rows(self, vec) -> tuple:
        """tr(vec . x) as a row on ``vec_digits(x)``."""
        if self.degree == 1:
            return tuple(vec)
        return tuple(t for a in vec for t in self.trace_row(a))

    # -- representation plumbing

    def digits(self, a: int) -> tuple:
        """Base-p digit vector of a packed element, constant term first."""
        return _unpack_digits(a, self.p, self.degree)

    def vec_digits(self, vec) -> tuple:
        """F_p digit vector of a vector over the field: the digits of each
        coordinate in turn, constant digit first."""
        if self.degree == 1:
            return tuple(vec)
        return tuple(d for a in vec for d in self.digits(a))

    def elements(self):
        return range(self.order)

    def embed_table(self, sub: "Field") -> tuple:
        """Packed-value table of the canonical embedding of ``sub`` into self.

        The embedding sends the class of x in the subfield to the smallest
        root of the subfield modulus in this field, so it is deterministic.
        """
        key = (sub.p, sub.degree, sub.modulus)
        cached = self._embed_cache.get(key)
        if cached is not None:
            return cached
        if sub.p != self.p or self.degree % sub.degree != 0:
            raise NoEmbedding(
                f"no embedding of GF({sub.p}^{sub.degree}) into GF({self.p}^{self.degree})"
            )
        root = None
        for cand in self.elements():
            acc = 0
            for coeff in reversed(sub.modulus):  # Horner
                acc = self.add(self.mul(acc, cand), coeff)
            if acc == 0:
                root = cand
                break
        if root is None:  # pragma: no cover - subfield modulus always splits
            raise NoEmbedding("subfield modulus has no root; fields incompatible")
        table = []
        for v in sub.elements():
            acc, power = 0, 1
            for d in sub.digits(v):
                if d:
                    acc = self.add(acc, self.mul(d, power))
                power = self.mul(power, root)
            table.append(acc)
        table = tuple(table)
        self._embed_cache[key] = table
        return table

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Field)
            and self.p == other.p
            and self.degree == other.degree
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.degree, self.modulus))

    def __repr__(self):
        if self.degree == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.degree})"


_FIELD_CACHE: dict = {}


def field_make(p: int, t: int, modulus=None) -> Field:
    """Construct (or fetch the memoized) F_{p^t}.

    ``modulus`` is an optional coefficient sequence of length t + 1,
    constant term first, monic.  When omitted the deterministic smallest
    irreducible is used.  Raises NotPrime, ReducibleModulus or
    BudgetExceeded on bad input.
    """
    if not isinstance(p, int) or p < 2:
        raise NotPrime(f"characteristic {p} is not prime")
    if not isinstance(t, int) or t < 1:
        raise ReducibleModulus(f"extension degree {t} must be a positive integer")
    # p >= 2 bounds t: p ** t runs only at t <= 16, trial division at p <= 2^16.
    if t >= FIELD_SIZE_LIMIT.bit_length():
        raise BudgetExceeded("field degree", t, FIELD_SIZE_LIMIT.bit_length() - 1, flag=None)
    if p <= FIELD_SIZE_LIMIT and not _is_prime(p):
        raise NotPrime(f"characteristic {p} is not prime")
    if p ** t > FIELD_SIZE_LIMIT:
        raise BudgetExceeded("field order", p ** t, FIELD_SIZE_LIMIT, flag=None)
    key = (p, t, tuple(c % p for c in modulus) if modulus is not None else None)
    cached = _FIELD_CACHE.get(key)
    if cached is not None:
        return cached
    if modulus is None:
        mod = _smallest_irreducible(p, t)
    else:
        mod = tuple(c % p for c in modulus)
        if len(mod) != t + 1 or mod[-1] != 1:
            raise ReducibleModulus(
                f"modulus must be monic of degree {t} (got {len(mod) - 1} coefficients + leading)"
            )
        if not _is_irreducible(mod, p):
            raise ReducibleModulus(f"modulus {list(mod)} is reducible over F_{p}")
        if t == 1:
            # Every linear modulus gives the same arithmetic; one Field per prime.
            mod = _smallest_irreducible(p, 1)
    fld = _FIELD_CACHE.get((p, t, mod))
    if fld is None:
        fld = Field(p, t, mod)
        _FIELD_CACHE[(p, t, mod)] = fld
    _FIELD_CACHE[key] = fld
    return fld


# --- text formats ---------------------------------------------------------
# Shared by the code, matrix and stabilizer formats.


def _text_lines(text: str) -> list:
    """The lines of a text format, stripped, without blanks and # comments."""
    lines = (ln.strip() for ln in text.splitlines())
    return [ln for ln in lines if ln and not ln.startswith("#")]


def _modulus_lines(field: Field) -> list:
    """The optional 'modulus:' line of the code and stabilizer formats."""
    if field.degree == 1:
        return []
    return ["modulus: " + " ".join(str(c) for c in field.modulus)]


def _field_from_body(p: int, t: int, body: list):
    """GF(p^t), with the modulus of a leading 'modulus:' line if ``body``
    has one; returns the field and the lines after it."""
    modulus = None
    if body and body[0].startswith("modulus:"):
        modulus = [int(c) for c in body[0].split(":", 1)[1].split()]
        body = body[1:]
    return field_make(p, t, modulus), body
