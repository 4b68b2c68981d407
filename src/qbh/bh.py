"""Butson-Hadamard matrices of prime root order, in exponent form.

A matrix is stored as its exponent table: entry e in row i, column j
stands for omega^e where omega is a fixed primitive p-th root of unity.
For prime p a row pair is orthogonal exactly when the multiset of
exponent differences hits every residue mod p equally often, because
1 + x + ... + x^(p-1) is the minimal polynomial of omega.  That makes
every check here exact integer work.

Row and column labels, when present, are packed integers naming vectors
of F_p^t (base-p digits of the label, constant term first).  They record
how a matrix's columns line up with a group enumeration, which is what
``linear_rows_check`` inspects.
"""

from __future__ import annotations

from . import linalg
from .errors import BudgetExceeded, DegenerateForm, LabelsNotGroup, LengthMismatch, NotBh
from .gf import _lane_pack, _lane_width, _text_lines, _unpack_digits, field_make

KRON_ORDER_LIMIT = 1 << 12


class BhMatrix:
    """Exponent-form matrix with optional row/column labels."""

    __slots__ = ("order", "p", "rows", "row_labels", "col_labels")

    def __init__(self, order, p, rows, row_labels=None, col_labels=None):
        if order < 1:
            raise LengthMismatch(f"matrix order {order} must be at least 1")
        if len(rows) != order or any(len(r) != order for r in rows):
            raise LengthMismatch(f"need a square {order} x {order} exponent table")
        self.order = order
        self.p = p
        self.rows = tuple(tuple(e % p for e in r) for r in rows)
        self.row_labels = tuple(row_labels) if row_labels is not None else None
        self.col_labels = tuple(col_labels) if col_labels is not None else None
        if self.row_labels is not None and len(self.row_labels) != order:
            raise LengthMismatch("row label count != order")
        if self.col_labels is not None and len(self.col_labels) != order:
            raise LengthMismatch("column label count != order")

    def __eq__(self, other):
        return (
            isinstance(other, BhMatrix)
            and self.order == other.order
            and self.p == other.p
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.order, self.p, self.rows))

    def __repr__(self):
        return f"BH({self.order},{self.p}) exponent matrix"


def bh_verify(m: BhMatrix) -> bool:
    """Exact orthogonality check over all row pairs."""
    p = m.p
    if m.order % p != 0 and m.order > 1:
        return False
    quota = m.order // p
    for i, ri in enumerate(m.rows):
        for rj in m.rows[i + 1:]:
            counts = [0] * p
            for a, b in zip(ri, rj):
                counts[(a - b) % p] += 1
            if any(c != quota for c in counts):
                return False
    return True


def kron_fourier(p: int, t: int) -> BhMatrix:
    """The t-fold Kronecker power of the prime Fourier matrix.

    Rows and columns are labeled by the packed vectors of F_p^t in
    increasing order; the exponent at (x, y) is the digit dot product
    x . y mod p, the form matrix of the identity Gram matrix.
    """
    field_make(p, 1)  # validates primality
    if p ** t > KRON_ORDER_LIMIT:
        raise BudgetExceeded("matrix order", p ** t, KRON_ORDER_LIMIT, flag=None)
    return form_matrix(BilinearForm(p, [[int(i == j) for j in range(t)] for i in range(t)]), 1)


def normalize(m: BhMatrix) -> BhMatrix:
    """Scale rows and columns so the first row and column are all zero."""
    if not bh_verify(m):
        raise NotBh("cannot normalize a matrix that is not Butson-Hadamard")
    p = m.p
    first = m.rows[0]
    shifted = [tuple((e - c) % p for e, c in zip(row, first)) for row in m.rows]
    rows = [tuple((e - row[0]) % p for e in row) for row in shifted]
    return BhMatrix(m.order, p, rows, row_labels=m.row_labels, col_labels=m.col_labels)


def _shift_class(row, p):
    c = row[0]
    return tuple((e - c) % p for e in row)


def row_equivalence(m1: BhMatrix, m2: BhMatrix):
    """Row permutation and scalar shifts mapping m1 onto m2, if any.

    Returns (perm, shifts) with m2.rows[i] == m1.rows[perm[i]] + shifts[i]
    entrywise mod p, or None when no such pair exists.  The match is
    canonical: each row of m2, in index order, takes the first unused
    row of m1 in its shift class, so the result is deterministic.
    """
    if m1.order != m2.order or m1.p != m2.p:
        return None
    p = m1.p
    c1 = [_shift_class(r, p) for r in m1.rows]
    c2 = [_shift_class(r, p) for r in m2.rows]
    if sorted(c1) != sorted(c2):
        return None
    pools: dict = {}
    for idx, c in enumerate(c1):
        pools.setdefault(c, []).append(idx)
    pools = {c: iter(pool) for c, pool in pools.items()}
    perm = [next(pools[c]) for c in c2]
    shifts = [(row[0] - m1.rows[src][0]) % p for row, src in zip(m2.rows, perm)]
    for i in range(m2.order):
        src, s = perm[i], shifts[i]
        if tuple((e + s) % p for e in m1.rows[src]) != m2.rows[i]:
            return None  # pragma: no cover - classes matched, so this cannot fire
    return tuple(perm), tuple(shifts)


def linear_rows_check(m: BhMatrix) -> bool:
    """Is every row additive as a function of the column labels?

    Column labels must enumerate all of F_p^t for N = p^t; the label
    group operation is digitwise addition mod p.  An additive map on
    F_p^t is F_p-linear, so a row passes exactly when its entry at every
    label x is sum_d x_d * (its entry at the unit label p^d) mod p: t
    products per label rather than a test of every label pair.
    """
    p, order = m.p, m.order
    t = 0
    while p ** t < order:
        t += 1
    if p ** t != order:
        raise LabelsNotGroup(f"order {order} is not a power of {p}")
    labels = m.col_labels if m.col_labels is not None else tuple(range(order))
    if sorted(labels) != list(range(order)):
        raise LabelsNotGroup("column labels must enumerate 0 .. p^t - 1")
    pos = {lab: j for j, lab in enumerate(labels)}
    digs = [_unpack_digits(x, p, t) for x in range(order)]
    for row in m.rows:
        units = [row[pos[p ** d]] for d in range(t)]
        for x in range(order):
            if row[pos[x]] != sum(c * u for c, u in zip(digs[x], units)) % p:
                return False
    return True


class BilinearForm:
    """A bilinear form on F_p^t given by an invertible Gram matrix."""

    __slots__ = ("p", "dim", "gram")

    def __init__(self, p: int, gram):
        field_make(p, 1)
        rows = [tuple(int(x) % p for x in r) for r in gram]
        t = len(rows)
        if t == 0 or any(len(r) != t for r in rows):
            raise LengthMismatch("Gram matrix must be square and nonempty")
        self.p = p
        self.dim = t
        self.gram = tuple(rows)
        if len(linalg.Echelon(p, t, [_lane_pack(r, _lane_width(p)) for r in rows]).lead) != t:
            raise DegenerateForm(f"Gram matrix {rows} is singular over F_{p}")

    def apply(self, x, y) -> int:
        """x^T G y mod p for digit vectors x, y."""
        p = self.p
        acc = 0
        for i, xi in enumerate(x):
            if xi:
                row = self.gram[i]
                acc += xi * sum(g * yj for g, yj in zip(row, y))
        return acc % p

    def __repr__(self):
        return f"BilinearForm(p={self.p}, dim={self.dim})"


def form_matrix(form: BilinearForm, scalar: int) -> BhMatrix:
    """Exponent matrix [scalar * (x^T G y)] over all labeled pairs.

    ``scalar`` must be a unit mod p; the result is always Butson-Hadamard
    because the form is non-degenerate.
    """
    p, t = form.p, form.dim
    if scalar % p == 0:
        raise DegenerateForm(f"scalar {scalar} is not a unit mod {p}")
    order = p ** t
    if order > KRON_ORDER_LIMIT:
        raise BudgetExceeded("matrix order", order, KRON_ORDER_LIMIT, flag=None)
    a = scalar % p
    digs = [_unpack_digits(v, p, t) for v in range(order)]
    rows = [
        tuple((a * form.apply(digs[x], digs[y])) % p for y in range(order))
        for x in range(order)
    ]
    labels = tuple(range(order))
    return BhMatrix(order, p, rows, row_labels=labels, col_labels=labels)


# --- matrix files ---------------------------------------------------------
# Line 1: "N p".  Then N exponent rows.  Optional trailing label lines
# "rowlabels: ..." and "collabels: ...".


def bh_to_text(m: BhMatrix) -> str:
    lines = [f"{m.order} {m.p}"]
    for row in m.rows:
        lines.append(" ".join(str(e) for e in row))
    if m.row_labels is not None:
        lines.append("rowlabels: " + " ".join(str(v) for v in m.row_labels))
    if m.col_labels is not None:
        lines.append("collabels: " + " ".join(str(v) for v in m.col_labels))
    return "\n".join(lines) + "\n"


def bh_from_text(text: str) -> BhMatrix:
    lines = _text_lines(text)
    if not lines:
        raise ValueError("empty matrix file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("matrix file header must be 'N p'")
    order, p = int(head[0]), int(head[1])
    field_make(p, 1)
    rows, row_labels, col_labels = [], None, None
    for ln in lines[1:]:
        if ln.startswith("rowlabels:"):
            row_labels = [int(x) for x in ln.split(":", 1)[1].split()]
        elif ln.startswith("collabels:"):
            col_labels = [int(x) for x in ln.split(":", 1)[1].split()]
        else:
            rows.append([int(x) for x in ln.split()])
    if len(rows) != order:
        raise ValueError(f"expected {order} rows, found {len(rows)}")
    return BhMatrix(order, p, rows, row_labels=row_labels, col_labels=col_labels)
