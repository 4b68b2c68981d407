"""Assembly of the stabilizer code attached to a code pair (C, D).

The stabilizer group is generated by two families.  X-type generators
carry an m-tuple of codewords of C lying in the common kernel of every
summed functional indexed by D, which is the dual of D concatenated
with C: the tuples whose packed messages form a word of D^perp.  Z-type
generators carry one dual codeword in one block.  Both families are
phase-free, the group is abelian, and the F_p-span of the symplectic
rows has full rank r(nm - ks), so the fixed space has dimension q^{ks};
``build`` checks all of it with ``verify_generators``.

Distances come in two independent flavours: ``distance`` evaluates the
closed form min{d(C), ell} from the construction data, deciding ell
only below d(C) and so walking just the words of D that can beat it,
lane-packed as every walk of the package, while ``distance_bruteforce``
enumerates the symplectic centralizer, found as one nullspace
(``centralizer_basis``) from the generator list alone, and never reads
the construction data (a CSS list walks its two halves apart).  The test
suite holds the two against each other.

This is the one module of the symplectic oracle: the Pauli products
(``mul``, ``symp_ip``, ``commutes``, ``detectable``), ``_lane_dot`` and
the pairing rows.  No module that ``statevec`` or ``slots`` reaches
imports it.
"""

from __future__ import annotations

import itertools
import math

from . import linalg
from .errors import DEFAULT_BUDGET, BudgetExceeded, DimensionBounds, DimensionMismatch, LengthMismatch
from .functional import FunctionalTable, big_f_kernel, table_make, validate_d
from .gf import (Field, _check_entries, _field_from_body, _gray_span, _lane_adder, _lane_flags,
                 _lane_pack, _lane_width, _lanes_vec, _modulus_lines, _text_lines, _trace_lanes,
                 _vec_lanes)
from .lincode import LinearCode, _min_weight_outside, min_distance
from .pauli import PauliElement, phase_step


class StabilizerCode:
    """An [[nm, ks]]_q stabilizer code with its generating set.

    ``code``, ``d_code`` and ``table`` hold the construction data when
    the object was built rather than parsed; the closed-form distance
    needs them, the brute-force one does not.  ``_rows`` holds the
    generators' lane-packed rows as ``build`` made them, and is None on
    other codes until ``_own_rows`` first packs them; ``_sbar_echelon`` is
    None until ``_sbar`` first computes it.
    """

    __slots__ = (
        "field", "n", "k", "m", "s", "generators",
        "code", "d_code", "table", "delta",
        "_rows", "_sbar_echelon",
    )

    def __init__(self, field, n, k, m, s, generators,
                 code=None, d_code=None, table=None, delta=None):
        self.field = field
        self.n = n
        self.k = k
        self.m = m
        self.s = s
        self.generators = tuple(generators)
        self.code = code
        self.d_code = d_code
        self.table = table
        self.delta = delta
        self._rows = None
        self._sbar_echelon = None

    @property
    def num_qudits(self) -> int:
        return self.n * self.m

    @property
    def log_dim_exp(self) -> int:
        """K with dim = q^K; K = ks."""
        return self.k * self.s

    @property
    def sympl_matrix(self) -> list:
        """Generator symplectic rows flattened to F_p digit vectors."""
        return [self.field.vec_digits(g.a + g.b) for g in self.generators]

    def _sbar(self) -> linalg.Echelon:
        """The echelon over F_p of the generator rows, lane-packed (a | b)."""
        if self._sbar_echelon is None:
            f = self.field
            self._sbar_echelon = linalg.Echelon(f.p, 2 * self.num_qudits * f.degree,
                                                _own_rows(self))
        return self._sbar_echelon

    def same_row_space(self, other: StabilizerCode) -> bool:
        """Whether the generator rows of both codes span one F_p-space.

        For a code of ``build`` that is equality of the groups whenever
        ``other``'s generators carry phase 0, as those of ``stab_from_text``
        do.  The pair's pure-X and pure-Z generators commute, so
        tr(b . a') = 0 between them, and its group holds one element over
        each row (a | b): the phase-free X(a) Z(b).  Each generator of
        ``other`` is then in that group, and both groups cover the rows.
        Codes over other fields or of other lengths never match, even
        where their rows pack to as many lanes.
        """
        return ((self.field, self.num_qudits) == (other.field, other.num_qudits)
                and self._sbar().rows == other._sbar().rows)

    def contains_symplectic(self, a, b) -> bool:
        """Membership of (a|b) in the F_p-span of the generator rows; a and
        b must have N entries each, every one an element of the field."""
        a, b, f = tuple(a), tuple(b), self.field
        if len(a) != self.num_qudits or len(b) != self.num_qudits:
            raise LengthMismatch(f"(a|b) needs {self.num_qudits} entries per part")
        _check_entries(f, a + b)
        return not self._sbar().reduce(_vec_lanes(f, a + b))

    def __repr__(self):
        d = f", delta={self.delta}" if self.delta is not None else ""
        return (
            f"[[{self.num_qudits},{self.log_dim_exp}]]_{self.field.order}"
            f" stabilizer code ({len(self.generators)} generators{d})"
        )


def _dot_trace(field: Field, u, v) -> int:
    acc = 0
    for x, y in zip(u, v):
        if x and y:
            acc += field.trace_int(field.mul(x, y))
    return acc % field.p


def mul(e1: PauliElement, e2: PauliElement) -> PauliElement:
    """Group product, reordering e2's X part past e1's Z part."""
    if e1.field != e2.field:
        raise ValueError("operators act on different fields")
    if e1.length != e2.length:
        raise LengthMismatch("operators act on different qudit counts")
    f = e1.field
    phase = e1.phase + e2.phase + phase_step(f) * _dot_trace(f, e1.b, e2.a)
    return PauliElement(f, phase, tuple(map(f.add, e1.a, e2.a)), tuple(map(f.add, e1.b, e2.b)))


def symp_ip(u: PauliElement, v: PauliElement) -> int:
    """Trace symplectic inner product tr(u.b . v.a - v.b . u.a), an int in [0, p)."""
    if u.field != v.field:
        raise ValueError("vectors over different fields")
    if u.length != v.length:
        raise LengthMismatch("vectors of different lengths")
    return (_dot_trace(u.field, u.b, v.a) - _dot_trace(u.field, v.b, u.a)) % u.field.p


def commutes(e1: PauliElement, e2: PauliElement) -> bool:
    return symp_ip(e1, e2) == 0


def detectable(scode, e: PauliElement) -> bool:
    """Error detectability against a stabilizer code.

    An error is detectable exactly when it lies in the stabilizer up to
    phase, or fails to commute with some generator.  ``scode`` is a
    StabilizerCode; only its symplectic data is consulted.
    """
    if e.field != scode.field or e.length != scode.num_qudits:
        raise LengthMismatch("error does not act on the code's qudits")
    if scode.contains_symplectic(e.a, e.b):
        return True
    for g in scode.generators:
        if symp_ip(e, g) != 0:
            return True
    return False


def build(code: LinearCode, d_code: LinearCode) -> StabilizerCode:
    """Assemble the stabilizer code of the pair (C, D).

    D lives over the scalar field F_{q^k}; its length m and dimension s
    must satisfy 1 <= s < m, and C must satisfy 1 <= k < n.  The X rows
    come lane-packed from ``big_f_kernel`` and the Z rows from the rows of
    ``table.dual_code`` laid into each block; each generator is decoded
    from its row once, and the code keeps the rows as made (``_own_rows``).
    """
    if not 1 <= code.k < code.n:
        raise DimensionBounds(
            f"need 1 <= k < n, got k = {code.k}, n = {code.n}"
        )
    table = table_make(code, d_code.field)
    validate_d(d_code)
    f = code.field
    n, k, m, s = code.n, code.k, d_code.n, d_code.k

    N, chunk = n * m, n * f.degree * _lane_width(f.p)  # chunk: the bits of one block
    xs = big_f_kernel(table, d_code)
    zs = [u << i * chunk for i in range(m) for u in table.dual_code.lanes]
    zero = (0,) * N
    gens = [PauliElement(f, 0, _lanes_vec(f, N, x), zero) for x in xs]
    gens += [PauliElement(f, 0, zero, _lanes_vec(f, N, z)) for z in zs]
    sc = StabilizerCode(f, n, k, m, s, gens, code=code, d_code=d_code, table=table)
    sc._rows = xs + [z << m * chunk for z in zs]
    problems = verify_generators(sc)
    if problems:
        raise ArithmeticError(f"{problems[0]}; construction data corrupt")
    return sc


def _leader_weights(table: FunctionalTable, below: int | None = None) -> list:
    """w(lam) = min { wt(x) : lambda_of(x) = lam } for every packed lam in K.

    The x with lambda_of(x) = lam form the coset theta(lam) + C^perp, so
    w(lam) is its coset-leader weight.  lambda_of is F_p-linear, so w is
    the distance from 0 in the graph on K whose steps lambda_of(u e_j), u
    in F_q^*, are the F_p-combinations of the images lambda_of(p^d e_j),
    one ``_gray_span`` per coordinate j: one breadth-first search,
    |K| n (q - 1) field adds.  Every lam is reached, since
    lambda_of(theta(lam)) = lam.  The search stops after depth below - 1
    and every lam it did not reach reads ``below``: the list is then
    min(w, below).  No leader weighs more than n, so ``below`` defaults
    to n + 1, which caps nothing.
    """
    K, f, n = table.scalars, table.code.field, table.code.n
    below = n + 1 if below is None else below
    steps = {
        step for j in range(n)
        for step in _gray_span(K.p, [table.lambda_of((0,) * j + (f.p ** d,) + (0,) * (n - 1 - j))
                                     for d in range(f.degree)], K.add)
    } - {0}
    weights = [below] * K.order  # unreached
    weights[0] = 0
    frontier, w = [0], 0
    while frontier and w < below - 1:
        w += 1
        reached = []
        for lam in frontier:
            for step in steps:
                mu = K.add(lam, step)
                if weights[mu] == below:
                    weights[mu] = w
                    reached.append(mu)
        frontier = reached
    return weights


def _subcode_basis(d_code: LinearCode, support) -> list:
    """F_p-basis of D_S = D cap K^S, S = ``support`` increasing, each word as
    the lane-packed vector of its coordinates in S, the others being 0:
    one echelon of D's ``lanes`` with S's coordinates moved above the
    others, whose rows that are 0 below S span D_S, reduced once shifted."""
    K, m = d_code.field, d_code.n
    size = K.degree * _lane_width(K.p)  # the bits of one coordinate
    digits, top = (1 << size) - 1, (m - len(support)) * size
    order = [j for j in range(m) if j not in support] + list(support)
    moved = [sum((x >> j * size & digits) << i * size for i, j in enumerate(order))
             for x in d_code.lanes]
    return [x >> top for x in linalg.Echelon(K.p, m * K.degree, moved).rows
            if not x & (1 << top) - 1]


def ell(code: LinearCode, d_code: LinearCode, table: FunctionalTable,
        budget: int = DEFAULT_BUDGET, below: int | None = None) -> int:
    """min(ell, below), ell = min over nonzero Lam in D of sum_i w(Lam_i).

    A vector x of F_q^n represents the functional f_lam with lam =
    lambda_of(x), so the lightest m-tuple of vectors representing Lam weighs
    sum_i w(Lam_i), with w(lam) the coset-leader weight of theta(lam) +
    C^perp from ``_leader_weights``.  As w(lam) >= 1 for lam != 0, a word
    of D weighing less than ``below`` has at most h = below - 1 nonzero
    coordinates, so it lies in D_S = D cap K^S for some set S of h
    coordinates: one echelon each (``_subcode_basis``).  The words of each
    D_S are walked lane-packed, by the Gray code over its basis, one lane
    add per step, and weighed by one lookup of w per coordinate, w capped at
    ``below``; when every D_S is {0} nothing is walked and the leader search
    is skipped.  No word of D weighs more than n m, so ``below`` defaults to
    n m + 1, which caps nothing.  The walk covers D itself, over its
    ``lanes``, once, when h >= m, or when the D_S hold at least |D| words
    together.  Each D_S holds its zero word, so the D_S are built only when
    there are fewer sets S than words of D and than the budget.  ``budget``
    caps the words requested: sum_S |D_S|, or |D| for D itself.
    """
    if table.code != code:
        raise DimensionMismatch("functional table belongs to a different code")
    if table.scalars != d_code.field:
        raise DimensionMismatch("outer code is not defined over the scalar field")
    K, m = d_code.field, d_code.n
    below = code.n * m + 1 if below is None else below
    if below < 1:
        raise ValueError(f"below must be at least 1, got {below}")
    h = below - 1
    cover = [d_code.lanes]
    if h < m and math.comb(m, h) < min(d_code.size, budget + 1):
        subcodes = [_subcode_basis(d_code, S) for S in itertools.combinations(range(m), h)]
        if sum(K.p ** len(rows) for rows in subcodes) < d_code.size:
            cover = subcodes
    requested = sum(K.p ** len(rows) for rows in cover)
    if requested > budget:
        raise BudgetExceeded("outer code walk words", requested, budget)
    if not any(cover):  # every D_S is {0}: no word of D weighs below ``below``
        return below
    weights = _leader_weights(table, below)
    if K._lanes is not None:  # keyed by each scalar's lanes
        weights = dict(zip(K._lanes, weights))
    size = K.degree * _lane_width(K.p)  # the bits of one coordinate
    digits, add, best = (1 << size) - 1, _lane_adder(K.p, m * K.degree), below
    for rows in cover:
        for word in itertools.islice(_gray_span(K.p, rows, add), 1, None):
            total = 0
            while word:  # one lookup per coordinate, up to the last nonzero one
                total += weights[word & digits]
                word >>= size
            if total < best:
                best = total
    return best


def distance(sc: StabilizerCode, budget: int = DEFAULT_BUDGET) -> int:
    """The closed-form distance min{d(C), ell}; cached on the code.

    d(C) comes first, and ell is then decided only below it:
    ``ell(..., below=d(C))`` walks just the words of D that can weigh
    less.  ``budget`` caps the codewords of C and of D that the two
    walks request.
    """
    if sc.delta is not None:
        return sc.delta
    if sc.code is None:
        raise ValueError(
            "no construction data on this code; parsed codes carry only"
            " a stored delta"
        )
    d = min_distance(sc.code, budget)
    sc.delta = ell(sc.code, sc.d_code, sc.table, budget, below=d)
    return sc.delta


def _own_rows(sc: StabilizerCode) -> list:
    """Each generator's own (a | b), lane-packed: for a code of ``build`` the
    rows it decoded the generators from, else packed from the entries, once."""
    if sc._rows is None:
        sc._rows = [_vec_lanes(sc.field, g.a + g.b) for g in sc.generators]
    return sc._rows


def _pairings(sc: StabilizerCode) -> list:
    """For the centralizer kernel alone, each generator's pairing with an
    unknown (a | b), tr(g.a . b) - tr(g.b . a), as a row."""
    f = sc.field
    return [_lane_pack([-t % f.p for t in f.trace_rows(g.b)] + list(f.trace_rows(g.a)),
                       _lane_width(f.p)) for g in sc.generators]


def centralizer_basis(sc: StabilizerCode) -> list:
    """F_p-basis of the symplectic centralizer of the generator rows, each
    vector (a | b) as its lane-packed digits, a's before b's (``gf``'s
    vector format, ``_lanes_vec`` unpacks them).

    The basis is the kernel of the pairing rows of the generators,
    computed from the generator list alone, so built and parsed codes
    take the same path and the brute-force distance never reads
    construction data.  Every returned vector v is checked to pair to
    zero with every generator g the other way round, apart from those
    rows: v's own ``_pairing_row``, dotted with g's ``_own_rows`` where the two share a nonzero
    lane (``_lane_flags``; a bare AND would not do: at p = 3 the digits 1 and 2 share no bit).
    """
    f, N = sc.field, sc.num_qudits
    lanes = 2 * N * f.degree
    out = linalg.Echelon(f.p, lanes, _pairings(sc)).kernel(lanes)
    ones = _lane_pack([1] * lanes, _lane_width(f.p))
    own = [(y, _lane_flags(f.p, y, ones)) for y in _own_rows(sc)]
    for v in out:
        row = _pairing_row(f, N, v)
        flags = _lane_flags(f.p, row, ones)
        if any(_lane_dot(f.p, row, y) for y, fy in own if fy & flags):
            raise ArithmeticError(
                "centralizer vector fails to commute; construction data corrupt"
            )
    return out


def _lane_dot(p, x, y):
    """x . y mod p for packed vectors: popcount(x & y) mod 2 at p = 2, else
    the popcounts of bit i of each lane of x and bit j of y's, times 2^(i+j)."""
    if p == 2:
        return (x & y).bit_count() & 1
    w = _lane_width(p)
    ones = ((1 << (max(x, y).bit_length() // w + 1) * w) - 1) // ((1 << w) - 1)
    return sum((x >> i & y >> j & ones).bit_count() << i + j
               for i in range(w - 1) for j in range(w - 1)) % p


def _pairing_row(f, N: int, v: int) -> int:
    """The pairing of a lane-packed (a | b) of length N with an unknown
    (a' | b'), tr(b . a') - tr(a . b'), as a row on the digits of (a' | b'),
    apart from ``_pairings``: the trace row (tr(a .) | tr(b .)) of
    ``gf._trace_lanes``, halves swapped, tr(a .) negated as p - d on its nonzero lanes."""
    w = _lane_width(f.p)
    half, row = N * f.degree * w, _trace_lanes(f, v)
    low = (1 << half) - 1
    a = row & low
    return row >> half | (_lane_flags(f.p, a, low // ((1 << w) - 1)) * f.p - a) << half


def distance_bruteforce(sc: StabilizerCode, budget: int = DEFAULT_BUDGET) -> int:
    """Minimum symplectic weight over the centralizer outside the stabilizer.

    Reads only the generator list, as lane-packed (a | b) rows.  When
    every generator is pure X (b = 0) or pure Z (a = 0) the code is CSS,
    and its centralizer splits as A x B: A the X-parts a with
    tr(a . z) = 0 for every Z-part z, B the Z-parts b with tr(b . x) = 0
    for every X-part x.  Its pairing rows are block diagonal, so the
    reduced basis from ``centralizer_basis`` is pure-X vectors (a|0), a
    in a basis of A, and pure-Z vectors (0|b), told apart by the lanes
    they fill; a mixed vector in it raises.  The stabilizer splits as
    S_X x S_Z the same way.  An element (a|b) outside S_X x S_Z has a
    outside S_X or b outside S_Z, and wt(a|b) >= max(wt a, wt b), with
    equality for (a|0) and (0|b).  So the distance is the smaller of the
    minimum weights of A outside S_X and of B outside S_Z, walked apart:
    p^{dim A} + p^{dim B} elements instead of p^{dim A + dim B}.  Other
    generator lists walk the whole centralizer, weighing (a|b) by a OR b.
    The stabilizer is read off its cached echelon ``_sbar``, which reduces
    each centralizer vector before one elimination; reduction keeps pure
    rows pure, so for a CSS list both echelons split into the halves.
    The minimum is over the nonzero stabilizer when no element lies
    outside it.  ``budget`` caps the total number of elements walked.
    """
    f = sc.field
    p, r, N = f.p, f.degree, sc.num_qudits
    half = N * r * _lane_width(p)  # the bit offset of the b digits
    low = (1 << half) - 1

    def split(vecs):  # (the pure-X a's, the pure-Z b's)
        return [v for v in vecs if not v >> half], [v >> half for v in vecs if not v & low]

    centralizer, sbar = centralizer_basis(sc), sc._sbar()
    rest = linalg.Echelon(p, 2 * N * r, map(sbar.reduce, centralizer)).rows
    walks, fold = [(sbar.rows, rest)], half
    if all(not g & low or not g >> half for g in _own_rows(sc)):
        if sum(map(len, split(centralizer))) != len(centralizer):
            raise ArithmeticError(
                "centralizer vector of a CSS generator list is neither pure X"
                " nor pure Z; construction data corrupt"
            )
        walks, fold = list(zip(split(sbar.rows), split(rest))), 0
    requested = sum(p ** (len(srows) + len(rest)) for srows, rest in walks)
    if requested > budget:
        raise BudgetExceeded("centralizer walk elements", requested, budget)
    if any(rest for _, rest in walks):
        walks = [(srows, rest) for srows, rest in walks if rest]
    return min(_min_weight_outside(p, srows, rest, N, r, fold) for srows, rest in walks)


def verify_generators(sc: StabilizerCode) -> list:
    """Diagnostics for a parsed generator set; empty means clean.

    At p = 2 a phase-free X(a) Z(b) squares to (-1)^tr(b.a), so an odd
    trace puts -I in the group and leaves only the zero vector fixed.
    At odd p, (X(a) Z(b))^p = I always.  Generators i < j commute when
    the packed dot of j's digits with i's ``_pairing_row`` is 0, as it is
    when they share no nonzero lane (``_lane_flags``: X-X and Z-Z pairs);
    those rows are built apart from the ones the centralizer kernel reads.
    """
    f, N = sc.field, sc.num_qudits
    rows = _own_rows(sc)
    pairings = [_pairing_row(f, N, x) for x in rows]
    low = (1 << N * f.degree) - 1  # the a digits, one bit each at p = 2
    ones = _lane_pack([1] * 2 * N * f.degree, _lane_width(f.p))
    flags = [_lane_flags(f.p, x, ones) for x in rows]
    problems = []
    for i, (g, x, y) in enumerate(zip(sc.generators, rows, pairings)):
        if g.phase:
            problems.append(f"generator {i} carries phase exponent {g.phase}")
        elif f.p == 2 and (x & y & low).bit_count() & 1:
            problems.append(f"generator {i} squares to -I: tr(b.a) is odd")
    for i, y in enumerate(pairings):
        fy = _lane_flags(f.p, y, ones)
        for j in range(i + 1, len(rows)):
            if fy & flags[j] and _lane_dot(f.p, rows[j], y):
                problems.append(f"generators {i} and {j} do not commute")
    rank = len(sc._sbar().rows)
    expected = f.degree * (sc.n * sc.m - sc.k * sc.s)
    if rank != expected:
        problems.append(
            f"symplectic rank {rank} != r(nm-ks) = {expected}"
        )
    if len(sc.generators) != expected:
        problems.append(
            f"generator count {len(sc.generators)} != r(nm-ks) = {expected}"
        )
    return problems


# --- stabilizer files -----------------------------------------------------
# Line 1: "p r n k m s N K delta".  Optional "modulus: ..." line for the
# base field.  Then one generator per line: N packed a-values, a pipe,
# N packed b-values.


def stab_to_text(sc: StabilizerCode) -> str:
    f = sc.field
    delta = sc.delta if sc.delta is not None else "-"
    lines = [
        f"{f.p} {f.degree} {sc.n} {sc.k} {sc.m} {sc.s}"
        f" {sc.num_qudits} {sc.log_dim_exp} {delta}",
        *_modulus_lines(f),
    ]
    for g in sc.generators:
        a = " ".join(str(x) for x in g.a)
        b = " ".join(str(x) for x in g.b)
        lines.append(f"{a} | {b}")
    return "\n".join(lines) + "\n"


def stab_from_text(text: str) -> StabilizerCode:
    lines = _text_lines(text)
    if not lines:
        raise ValueError("empty stabilizer file")
    head = lines[0].split()
    if len(head) != 9:
        raise ValueError("stabilizer file header must be 'p r n k m s N K delta'")
    p, r, n, k, m, s, N, K = (int(x) for x in head[:8])
    delta = None if head[8] == "-" else int(head[8])
    if min(n, m) < 1 or min(k, s) < 0:
        raise ValueError(f"header needs n, m >= 1 and k, s >= 0: {head}")
    if N != n * m or K != k * s:
        raise ValueError(f"header inconsistent: N != n*m or K != k*s in {head}")
    if delta is not None and not 1 <= delta <= N:
        raise ValueError(f"stored delta {delta} lies outside [1, N = {N}]")
    f, body = _field_from_body(p, r, lines[1:])
    gens = []
    for ln in body:
        parts = ln.split("|")
        if len(parts) != 2:
            raise ValueError(f"generator line needs exactly one a|b separator: {ln!r}")
        a_txt, b_txt = parts
        a, b = tuple(map(int, a_txt.split())), tuple(map(int, b_txt.split()))
        if len(a) != N or len(b) != N:
            raise ValueError(f"generator parts must have length {N}: {ln!r}")
        gens.append(PauliElement(f, 0, a, b))
    return StabilizerCode(f, n, k, m, s, gens, delta=delta)
