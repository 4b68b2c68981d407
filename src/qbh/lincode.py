"""Classical linear codes over a finite field, with exact enumeration.

A code is stored by the reduced row echelon form of its generator
matrix, which is canonical for the row space: two codes are equal
exactly when their ``gen`` attributes are equal.  Codewords and vectors
are tuples of packed field values.  Vectors compare lexicographically
as tuples, which matches ordering by the big-endian packed integer
sum(v[i] * q^(n-1-i)).
"""

from __future__ import annotations

import functools
import itertools

from . import linalg
from .errors import DEFAULT_BUDGET, BudgetExceeded, LengthMismatch, ZeroCode
from .gf import (Field, _block_rows, _check_entries, _field_from_body, _gray_span, _lane_adder,
                 _lane_width, _lanes_vec, _modulus_lines, _text_lines, _trace_lanes, _vec_lanes)


def weight(v) -> int:
    """Hamming weight."""
    return sum(1 for x in v if x)


class LinearCode:
    """A k-dimensional length-n code over ``field``, held in RREF, read off ``lanes``, its
    reduced echelon basis over F_p (``fp_basis``, lane-packed); ``_products``, ``_labels`` and
    ``_parity``, None until first used, keep its ``statevec`` product bases and message-label
    order, and its parity rows (not in ``==``)."""

    __slots__ = ("field", "n", "k", "gen", "pivots", "lanes", "_products", "_labels", "_parity")

    def __init__(self, field: Field, n: int, lanes: tuple):
        self.field = field
        self.n = n
        self.gen, self.pivots = _fq_rref(field, n, lanes)
        self.k = len(self.gen)
        self.lanes = lanes
        self._products = self._labels = self._parity = None

    @property
    def size(self) -> int:
        return self.field.order ** self.k

    def __eq__(self, other):
        return (
            isinstance(other, LinearCode)
            and self.field == other.field
            and self.n == other.n
            and self.gen == other.gen
        )

    def __hash__(self):
        return hash((self.field, self.n, self.gen))

    def __repr__(self):
        return f"[{self.n},{self.k}] code over {self.field!r}"


def code_make(field: Field, rows) -> LinearCode:
    """Build a code from spanning rows. Rejects empty spans with ZeroCode."""
    rows = [tuple(int(x) for x in r) for r in rows]
    if not rows:
        raise ZeroCode("no generator rows given")
    n = len(rows[0])
    if n == 0:
        raise LengthMismatch("codewords must have positive length")
    for r in rows:
        if len(r) != n:
            raise LengthMismatch("generator rows have differing lengths")
        _check_entries(field, r)
    lanes = linalg.Echelon(field.p, n * field.degree,
                           [_vec_lanes(field, row) for row in _fp_rows(field, rows)]).rows
    if not lanes:
        raise ZeroCode("generator rows span only the zero vector")
    return LinearCode(field, n, tuple(lanes))


def dual(code: LinearCode) -> LinearCode:
    """Dual code under the standard dot product; involutive.  As C is
    F_q-linear and the trace form non-degenerate, x . c = 0 on C exactly
    when tr(x . c) = 0 on an F_p-basis of C: one kernel over F_p."""
    f, lanes = code.field, code.n * code.field.degree
    rows = [_trace_lanes(f, x) for x in code.lanes]
    return LinearCode(f, code.n, tuple(linalg.Echelon(f.p, lanes, rows).kernel(lanes)))


def _fq_rref(f: Field, n: int, rows) -> tuple:
    """(rows, pivots) over F_q of an F_q-linear space of length-n vectors
    from its packed echelon rows over F_p: the F_q rows times each p^d,
    led by digit d of their F_q pivot, so the F_q rows are those led by a digit 0."""
    leads = [((x & -x).bit_length() - 1) // _lane_width(f.p) for x in rows]
    keep = [(lane // f.degree, x) for lane, x in zip(leads, rows) if lane % f.degree == 0]
    return tuple(_lanes_vec(f, n, x) for _, x in keep), tuple(j for j, _ in keep)


def encode(code: LinearCode, message) -> tuple:
    """message . G for a length-k message tuple."""
    if len(message) != code.k:
        raise LengthMismatch(f"message length {len(message)} != dimension {code.k}")
    f = code.field
    word = [0] * code.n
    for m, row in zip(message, code.gen):
        if m:
            for j, g in enumerate(row):
                if g:
                    word[j] = f.add(word[j], f.mul(m, g))
    return tuple(word)


def contains(code: LinearCode, word) -> bool:
    """Whether ``word`` has syndrome 0: x_j = sum_i x_(p_i) G_ij at each non-pivot j, p_i the
    pivot of row i of the RREF G, by the parity rows (j, [(p_i, -G_ij)]) kept as ``code._parity``."""
    f = code.field
    if len(word) != code.n or not (0 <= min(word) and max(word) < f.order):
        return False
    if code._parity is None:
        code._parity = [(j, [(i, f.neg(row[j])) for i, row in zip(code.pivots, code.gen) if row[j]])
                        for j in range(code.n) if j not in code.pivots]
    add, mul = f.add, f.mul
    for j, row in code._parity:
        s = word[j]
        for i, g in row:
            s = add(s, mul(word[i], g))
        if s:
            return False
    return True


def iter_codewords(code: LinearCode):
    """All codewords, messages in lexicographic order (zero word first)."""
    q = code.field.order
    for message in itertools.product(range(q), repeat=code.k):
        yield encode(code, message)


def fp_basis(code: LinearCode) -> list:
    """F_p-basis of the code: generator rows times each digit basis scalar.

    Ordered row-major, digit index inner, so the result is deterministic.
    Over a prime field this is just the generator rows.  As gen is in
    RREF, this is the reduced echelon basis over F_p: the code's ``lanes``.
    """
    return [_lanes_vec(code.field, code.n, x) for x in code.lanes]


def _fp_rows(f: Field, rows) -> list:
    """F_p-basis of the F_q-span of the F_q-independent ``rows``, in the
    order of ``fp_basis``."""
    if f.degree == 1:
        return [tuple(row) for row in rows]
    return [tuple(f.mul(f.p ** d, x) for x in row) for row in rows for d in range(f.degree)]


@functools.lru_cache(maxsize=128)
def _walk_shape(p: int, N: int, r: int, fold: int, dim: int) -> tuple:
    """The constants of ``_min_weight_outside`` that depend on its shape
    alone, not its rows: (size, b, steps, ones, tree, low, high, guard,
    add).  ``steps`` holds, per table row, its lane adder, the slot ones
    of the table so far and its bits; ``ones`` holds bit 0 of each slot
    of a block, ``tree`` the popcount tree's (shift, mask) pairs, ``low``
    and ``high`` the value bits below and the top bit of each weighed
    chunk, ``guard`` each slot's top bit, and ``add`` the block adder.
    A shape holds up to about 0.6 MB, for blocks of 2^18 bits, and the
    last 128 shapes are kept: a certify pass walks 64."""
    w = _lane_width(p)
    chunk = r * w
    width = N * chunk * (2 if fold else 1)
    size = chunk  # a slot holds an element and a count up to 2N + 1 below its top bit
    while size < width or 1 << size - 1 <= 2 * N + 1:
        size *= 2
    b = _block_rows(p, dim, min(4096, (1 << 18) // size))
    steps, ones, n = [], 1, size  # ones: bit 0 of each slot of the table so far, of n bits
    for _ in range(b):
        steps.append((_lane_adder(p, n // w), ones, n))
        ones, n = sum(ones << c * n for c in range(p)), p * n
    tree, lanes, f = [], ones, size // 2  # lanes: bit 0 of every 2f bits
    while f >= chunk:
        up = lanes << f
        tree.insert(0, (f, up - lanes))  # the low f bits of every 2f
        lanes |= up
        f //= 2
    firsts = ((ones << N * chunk) - ones) & lanes  # bit 0 of each weighed chunk
    low, high = firsts * ((1 << chunk - 1) - 1), firsts << chunk - 1
    return (size, b, tuple(steps), ones, tuple(tree), low, high, ones << size - 1,
            _lane_adder(p, n // w))


def _min_weight_outside(p: int, srows, rest, N: int, r: int, fold: int = 0) -> int:
    """Minimum weight of span(srows + rest) outside span(srows).

    Rows are F_p-independent lane-packed vectors of N coordinates of r
    digits, or with ``fold`` (a | b) pairs, b from bit ``fold`` on, whose
    weight is that of a OR b: the coordinates with a nonzero digit.  With
    no rest the minimum is over the nonzero span.

    The walk weighs a block of up to 4096 elements, and of at most 2^18
    bits, per big-int pass (SWAR; Warren, Hacker's Delight, ch. 2), so
    wide slots of long vectors get fewer of them.  A table holds every
    combination of the first b rows, one per slot of ``size`` bits, slot
    i the combination whose coefficients are the base-p digits of i.
    ``_gray_span`` walks the other rows, each copied into every slot, from
    the table on: one lane add per block.  A popcount tree over the
    nonzero chunks leaves each slot holding its weight.  The e excluded
    rows (srows, or none) span the first p^e elements of that order: the
    first p^(e-b) blocks, skipped, or the first p^e slots of the first
    block, lifted above N.  Only the table, the lift and the walk read the
    rows; the rest is built once per shape by ``_walk_shape``.
    """
    rows = srows + rest
    e = len(srows) if rest else 0
    size, b, steps, ones, tree, low, high, guard, add = _walk_shape(p, N, r, fold, len(rows))
    table = 0  # every combination of the rows so far, one per slot of its n bits
    for row, (lane_add, slot_ones, n) in zip(rows, steps):
        step, cur = row * slot_ones, table
        for c in range(1, p):
            cur = lane_add(cur, step)
            table |= cur << c * n
    if e >= b:
        skip, lift = p ** (e - b), 0
    else:
        skip, lift = 0, (N + 1) * (ones & (1 << p ** e * size) - 1)
    best = N + 1
    below = guard - best * ones  # plus a weight, its top bit is set when not below best
    top = r * _lane_width(p) - 1
    blocks = _gray_span(p, [row * ones for row in rows[b:]], add, table)
    for x in itertools.islice(blocks, skip, None):
        if fold:
            x |= x >> fold
        # one bit per nonzero chunk: its top bit, or a carry out of the rest
        x = (((x & low) + low | x) & high) >> top
        for f, m in tree:
            x = (x & m) + (x >> f & m)
        if lift:
            x, lift = x + lift, 0
        if (x + below) & guard != guard:  # some slot below best: bisect for the least
            least = 1  # no slot weighs less than least
            while best - least > 1:
                mid = (least + best) // 2
                if (x + guard - mid * ones) & guard != guard:
                    best = mid
                else:
                    least = mid
            best = least
            if best == 1:
                return 1
            below = guard - best * ones
    return best


def min_distance(code: LinearCode, budget: int = DEFAULT_BUDGET) -> int:
    """Exact minimum Hamming distance, by the min-weight walk over an
    F_p-basis of the code: up to 4096 codewords per big-int pass."""
    if code.k == 0:
        raise ZeroCode("minimum distance of the zero code is undefined")
    if code.size > budget:
        raise BudgetExceeded("codeword walk words", code.size, budget)
    return _min_weight_outside(code.field.p, [], list(code.lanes), code.n, code.field.degree)


# --- code files ----------------------------------------------------------
# Line 1: "p t n k".  Optional "modulus: c0 c1 ... ct" line.  Then k rows
# of n packed integers.


def code_to_text(code: LinearCode) -> str:
    f = code.field
    lines = [f"{f.p} {f.degree} {code.n} {code.k}", *_modulus_lines(f)]
    for row in code.gen:
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def code_from_text(text: str) -> LinearCode:
    lines = _text_lines(text)
    if not lines:
        raise ValueError("empty code file")
    head = lines[0].split()
    if len(head) != 4:
        raise ValueError("code file header must be 'p t n k'")
    p, t, n, k = (int(x) for x in head)
    field, body = _field_from_body(p, t, lines[1:])
    if len(body) != k:
        raise ValueError(f"expected {k} generator rows, found {len(body)}")
    rows = [[int(x) for x in ln.split()] for ln in body]
    for r in rows:
        if len(r) != n:
            raise ValueError(f"row length {len(r)} != declared n = {n}")
    code = code_make(field, rows)
    if code.k != k:
        raise ValueError(f"declared dimension {k} but rows span dimension {code.k}")
    return code
