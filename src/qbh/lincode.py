"""Classical linear codes over a finite field, with exact enumeration.

A code is stored by the reduced row echelon form of its generator
matrix, which is canonical for the row space: two codes are equal
exactly when their ``gen`` attributes are equal.  Codewords and vectors
are tuples of packed field values.  Vectors compare lexicographically
as tuples, which matches ordering by the big-endian packed integer
sum(v[i] * q^(n-1-i)).
"""

from __future__ import annotations

import itertools

from . import linalg
from .errors import DEFAULT_BUDGET, BudgetExceeded, LengthMismatch, ZeroCode
from .gf import (Field, _field_from_body, _gray_span, _lane_adder, _lane_pack, _lane_width,
                 _modulus_lines, _text_lines)


def weight(v) -> int:
    """Hamming weight."""
    return sum(1 for x in v if x)


class LinearCode:
    """A k-dimensional length-n code over ``field``, held in RREF."""

    __slots__ = ("field", "n", "k", "gen", "pivots")

    def __init__(self, field: Field, n: int, gen: tuple, pivots: tuple):
        self.field = field
        self.n = n
        self.k = len(gen)
        self.gen = gen
        self.pivots = pivots

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
        for x in r:
            if not 0 <= x < field.order:
                raise ValueError(f"entry {x} is not a packed element of {field!r}")
    gen, pivots = linalg.rref(field, rows)
    if not gen:
        raise ZeroCode("generator rows span only the zero vector")
    return LinearCode(field, n, tuple(gen), tuple(pivots))


def dual(code: LinearCode) -> LinearCode:
    """Dual code under the standard dot product; involutive."""
    gen, pivots = linalg.rref(code.field, linalg.nullspace(code.field, list(code.gen), code.n))
    return LinearCode(code.field, code.n, tuple(gen), tuple(pivots))


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
    if len(word) != code.n:
        return False
    if code.k == 0:
        return not any(word)
    return encode(code, tuple(word[j] for j in code.pivots)) == tuple(word)


def iter_codewords(code: LinearCode):
    """All codewords, messages in lexicographic order (zero word first)."""
    q = code.field.order
    for message in itertools.product(range(q), repeat=code.k):
        yield encode(code, message)


def fp_basis(code: LinearCode) -> list:
    """F_p-basis of the code: generator rows times each digit basis scalar.

    Ordered row-major, digit index inner, so the result is deterministic.
    Over a prime field this is just the generator rows.
    """
    return _fp_rows(code.field, code.gen)


def _fp_rows(f: Field, rows) -> list:
    """F_p-basis of the F_q-span of the F_q-independent ``rows``, in the
    order of ``fp_basis``."""
    if f.degree == 1:
        return [tuple(row) for row in rows]
    return [tuple(f.mul(f.p ** d, x) for x in row) for row in rows for d in range(f.degree)]


def _min_weight_outside(p: int, srows, rest, N: int, per_qudit: int) -> int:
    """Minimum weight of span(srows + rest) outside span(srows).

    Rows are F_p-independent digit vectors with ``per_qudit`` digits for
    each of the N qudits, qudit by qudit, and the weight counts the
    qudits with a nonzero digit.  The Gray-code walk over srows then rest reaches
    span(srows) first: its first p^{len(srows)} elements are exactly that
    span.  With no rest the minimum is over the nonzero span.
    """
    w = _lane_width(p)
    rows = [_lane_pack(v, w) for v in srows + rest]
    chunk = per_qudit * w
    ones = _lane_pack((1,) * N, chunk)
    low = ones * ((1 << (chunk - 1)) - 1)
    high = ones << (chunk - 1)
    best = N + 1
    first = p ** len(srows) if rest else 1
    walk = _gray_span(p, rows, _lane_adder(p, N * per_qudit))
    for cur in itertools.islice(walk, first, None):
        # one bit per nonzero chunk: its top bit, or a carry out of the rest
        wt = ((((cur & low) + low) | cur) & high).bit_count()
        if wt < best:
            if wt == 1:
                return 1
            best = wt
    return best


def min_distance(code: LinearCode, budget: int = DEFAULT_BUDGET) -> int:
    """Exact minimum Hamming distance, by the Gray-code walk over an
    F_p-basis of the code: one lane add per codeword."""
    if code.k == 0:
        raise ZeroCode("minimum distance of the zero code is undefined")
    if code.size > budget:
        raise BudgetExceeded("codeword walk words", code.size, budget)
    f = code.field
    rows = [f.vec_digits(row) for row in fp_basis(code)]
    return _min_weight_outside(f.p, [], rows, code.n, f.degree)


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
