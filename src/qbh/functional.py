"""Linear functionals on a code C indexed by the extension field F_{q^k}.

For C of dimension k over F_q = F_{p^r} and K = F_{q^k} = F_{p^{rk}},
every scalar lam in K induces the F_p-linear functional

    f_lam(c) = tr_{K/p}( lam * pack(msg(c)) )

where msg(c) is the message of c under the echelon generator and pack
sends a message to K coordinatewise over the basis 1, g, ..., g^{k-1}
(g the canonical generator of K, which has degree exactly k over the
embedded F_q).  The map lam -> f_lam is an isomorphism onto the full
dual space of C over F_p, because the trace pairing of K is
non-degenerate and pack . msg is an F_p-isomorphism of C onto K.

``FunctionalTable.theta`` inverts the representation through the
ambient space: it returns the lexicographically smallest x in F_q^n
whose trace pairing
rho_x(c) = tr_{q/p}(c . x) agrees with f_lam on C.  The solution set is
a coset of the dual code, so theta(lam) names that coset canonically.
``unpack_message`` inverts P = pack . msg on the message side.  All four
maps are F_p-linear, and the table keeps each as the lane-packed images
of the digit units, applied by one ``linalg.lincomb``: P's from
construction on, the other three from their first call.  ``big_f_kernel``
solves the X generators' trace system on P alone.
"""

from __future__ import annotations

import itertools

from . import linalg
from .errors import DegenerateD, DimensionMismatch, LengthMismatch, NotACodeword
from .gf import (Field, _check_entries, _lane_adder, _lane_pack, _lane_width, _lanes_vec,
                 _trace_lanes, _vec_lanes, field_make)
from .lincode import LinearCode, code_make, contains, dual, encode


class FunctionalTable:
    """The family { f_lam : lam in K } attached to one code C, with its lift.

    Construction keeps two things: P = pack . msg as its lane-packed
    images of the digit units, P(p^d e_j) in ``Field.vec_digits`` order,
    and ``dual_code``, C^perp, one kernel of the pairing rows of C
    (``lincode.dual``), which ``construct.build`` lays its Z generators
    from.  ``theta``, ``lambda_of`` and ``unpack_message`` are trace
    systems over P's trace rows, each echelonned once, with every unit's
    right-hand side appended, on its first call; each then keeps its
    images of the digit units, theta(p^t) and the message of p^t for
    t < deg K, and lambda_of(p^d e_j), as ``Echelon.solutions`` returns
    them, theta's reduced against C^perp.  ``big_f_kernel`` reads none
    of the three.

    ``_state_parts`` holds the compact tr(lam P(m)) arrays that
    ``statevec._phi_states`` builds off P's unit images, for the table's lifetime.
    """

    __slots__ = ("code", "scalars", "prime", "dual_code", "_add", "_pack", "_theta", "_lambda",
                 "_unpack", "_state_parts")

    def __init__(self, code: LinearCode, scalars: Field):
        self.code = code
        self.scalars = scalars
        self.prime = field_make(scalars.p, 1)
        self._theta = self._lambda = self._unpack = None
        self._state_parts = {}

        f, K = code.field, scalars
        self._add = _lane_adder(K.p, code.n * f.degree)  # k <= n: wide enough for K's kr lanes too
        # P(p^d e_j) = embed(p^d) g^j, g packed as p (at degree 1 only g^0 is
        # read), is P(msg e) for row e = p^d gen_j of C's ``lanes``
        embed = K.embed_table(f)
        self._pack = [_vec_lanes(K, (K.mul(embed[K.p ** d], K.pow(K.p, j)),))
                      for j in range(code.k) for d in range(f.degree)]
        self.dual_code = dual(code)

    def _functional(self) -> list:
        """Per row e of C's ``lanes``, f_{p^t}(e) = tr(p^t P(e)) for t < deg K: the
        trace rows of P's unit images."""
        K = self.scalars
        return [K.trace_row(_lanes_vec(K, 1, u)[0]) for u in self._pack]

    def _columns(self) -> list:
        """Per t < deg K, f_{p^t} as a lane-packed row on the digits of a message:
        the t-th column of ``_functional``."""
        w = _lane_width(self.scalars.p)
        return [_lane_pack(col, w) for col in zip(*self._functional())]

    def _pairs(self) -> list:
        """Per row e of C's ``lanes``, the lane-packed pair (tr_{q/p}(e . x) as a row on
        the digits of x, coordinate by coordinate; f_{p^t}(e) for t < deg K)."""
        f, w = self.code.field, _lane_width(self.scalars.p)
        return [(_trace_lanes(f, e), _lane_pack(b, w))
                for e, b in zip(self.code.lanes, self._functional())]

    def _solve(self, lanes: int, count: int, rows, why: str) -> list:
        """Per unit right-hand side, the solution of one trace system given as
        [A | B] rows, A on ``lanes`` lanes and the ``count`` right-hand sides
        beside it: one elimination, raising with ``why`` when one has none."""
        out = linalg.Echelon(self.scalars.p, lanes + count, rows).solutions(lanes, count)
        if None in out:  # pragma: no cover - each caller's system is consistent, as it says
            raise ArithmeticError(f"{why}; field tables corrupt")
        return out

    def _apply(self, f: Field, n: int, images, digits) -> tuple:
        """The length-n vector over f that the map with unit ``images`` sends ``digits`` to."""
        return _lanes_vec(f, n, linalg.lincomb(self._add, images, digits))

    # -- scalar side

    def pack_message(self, message) -> int:
        """Message tuple over F_q -> packed element of K."""
        message = _vector(self.code.field, message, self.code.k, "message")
        return self._apply(self.scalars, 1, self._pack, self.code.field.vec_digits(message))[0]

    def unpack_message(self, y: int) -> tuple:
        """Packed element of K -> message tuple over F_q; inverse of pack_message."""
        K, kr = self.scalars, self.scalars.degree
        _check_entries(K, (y,))
        if self._unpack is None:
            # The message digits v of P^-1(y) solve functional^T . v = trace_row(y),
            # digits ordered as C's ``lanes``: coordinate-major, digit inner.  Entry
            # t of the right-hand side for y = p^u is tr(p^u p^t), which is
            # entry u of trace_row(p^t).
            w = _lane_width(K.p)
            rows = [col | _lane_pack(K.trace_row(K.p ** t), w) << kr * w
                    for t, col in enumerate(self._columns())]
            # P is an F_p-isomorphism
            self._unpack = self._solve(kr, kr, rows, "message not recoverable")
        return self._apply(self.code.field, self.code.k, self._unpack, K.digits(y))

    def f_int(self, lam: int, word) -> int:
        """f_lam evaluated on a codeword, as an int in [0, p)."""
        msg = tuple(word[j] for j in self.code.pivots)
        return self.scalars.trace_int(self.scalars.mul(lam, self.pack_message(msg)))

    # -- the lift

    def theta(self, lam: int) -> tuple:
        """Lexicographically smallest x with rho_x = f_lam on C."""
        f, K, n = self.code.field, self.scalars, self.code.n
        _check_entries(K, (lam,))
        if self._theta is None:
            # The unknowns are the digits of x, coordinate by coordinate, and
            # the right-hand sides the f_{p^t}.  Reducing a solution against
            # the reduced echelon basis of the kernel then gives the
            # lexicographically smallest one, comparing vectors as tuples of
            # packed values, whatever the digit order inside a coordinate:
            # C^perp is F_q-linear, so given the earlier coordinates each
            # coordinate of the solution coset is either forced or free over
            # all of F_q.  The reduction is linear too.
            nr, w = n * f.degree, _lane_width(K.p)
            rows = [a | b << nr * w for a, b in self._pairs()]
            # the trace pairing is non-degenerate
            theta = self._solve(nr, K.degree, rows, "inconsistent trace system")
            kernel = linalg.Echelon.of_reduced(K.p, nr, self.dual_code.lanes)
            self._theta = [kernel.reduce(x) for x in theta]
        return self._apply(f, n, self._theta, K.digits(lam))

    def lambda_of(self, x) -> int:
        """The unique scalar lam whose functional agrees with rho_x on C."""
        f, K = self.code.field, self.scalars
        x = _vector(f, x, self.code.n, "vector")
        if self._lambda is None:
            kr, w = K.degree, _lane_width(K.p)
            rows = [b | a << kr * w for a, b in self._pairs()]
            # lam -> f_lam is onto the dual of C
            self._lambda = self._solve(kr, self.code.n * f.degree, rows, "functional not representable")
        return self._apply(K, 1, self._lambda, f.vec_digits(x))[0]

    def __repr__(self):
        return f"functional table for {self.code!r} over {self.scalars!r}"


def _vector(f: Field, vec, length: int, what: str) -> tuple:
    """``vec`` as a tuple, refused unless it has ``length`` entries, each an element of f."""
    vec = tuple(vec)
    if len(vec) != length:
        raise LengthMismatch(f"{what} needs {length} entries, got {len(vec)}")
    _check_entries(f, vec)
    return vec


def table_make(code: LinearCode, scalars: Field) -> FunctionalTable:
    """Validate the tower F_p < F_q < K and build the functional family."""
    if scalars.p != code.field.p:
        raise DimensionMismatch(
            f"scalar field characteristic {scalars.p} != code characteristic {code.field.p}"
        )
    if code.k < 1:
        raise DimensionMismatch("code must have positive dimension")
    if scalars.degree != code.field.degree * code.k:
        raise DimensionMismatch(
            f"scalar field degree {scalars.degree} != r*k = {code.field.degree * code.k}"
        )
    return FunctionalTable(code, scalars)


def f_eval(table: FunctionalTable, lam, word) -> int:
    """f_lam(word) in F_p, an int in [0, p); lam must be a packed element of
    K and word must lie in C."""
    lam = int(lam)
    _check_entries(table.scalars, (lam,))
    word = tuple(word)
    if not contains(table.code, word):
        raise NotACodeword(f"{word} is not in {table.code!r}")
    return table.f_int(lam, word)


def validate_d(d_code: LinearCode) -> None:
    """Reject outer codes the construction cannot use.

    The code must be neither zero nor the full space, and every
    coordinate must carry some nonzero codeword value (coordinates that
    are identically zero should be projected away first; see
    ``project_zero_coordinates``).
    """
    if d_code.k == 0:
        raise DegenerateD("outer code must be nonzero")
    if d_code.k >= d_code.n:
        raise DegenerateD(
            f"outer code dimension {d_code.k} must be strictly below its length {d_code.n}"
        )
    dead = [
        i for i in range(d_code.n) if all(row[i] == 0 for row in d_code.gen)
    ]
    if dead:
        raise DegenerateD(
            f"outer code coordinates {dead} are identically zero; project them away first"
        )


def project_zero_coordinates(d_code: LinearCode) -> LinearCode:
    """Drop coordinates on which every codeword vanishes."""
    keep = [
        i for i in range(d_code.n) if any(row[i] for row in d_code.gen)
    ]
    if not keep:
        raise DegenerateD("outer code is zero; nothing to project")
    if len(keep) == d_code.n:
        return d_code
    return code_make(d_code.field, [tuple(row[i] for i in keep) for row in d_code.gen])


def big_f_kernel(table: FunctionalTable, d_code: LinearCode) -> list:
    """F_p-basis of the joint kernel of all summed functionals, as lane-packed X rows.

    The functional indexed by a D-codeword Lam sends (c_1, ..., c_m) to
    sum_i f_{lam_i}(c_i) = tr(sum_i lam_i P(c_i)), with P = pack . msg.
    D is K-linear, so the joint kernel is cut out by the words delta of an
    F_p-basis of D: one trace system on the m k r message digits, unknown
    (i*k + j)*r + d being digit d of message coordinate j of block i, whose
    row for delta has entry tr(delta_i P(p^d e_j)) there.  That entry is
    sum_t (digit t of delta_i) f_{p^t}(p^d gen_j), so each row is a
    ``lincomb`` of the table's columns by the lanes of delta.  The kernel,
    in reduced echelon form, is mapped block by block through
    ``code.lanes`` (row j r + d is p^d gen_j): each basis element is the
    m-tuple of codewords, laid end to end as one vector of length n m and
    lane-packed in ``gf``'s vector format.
    """
    code, K = table.code, table.scalars
    if d_code.field != K:
        raise DimensionMismatch("outer code is not defined over the scalar field")
    p, m, kr, w = K.p, d_code.n, K.degree, _lane_width(K.p)
    lanes, chunk = m * kr, code.n * code.field.degree * w  # chunk: the bits of one block
    columns = table._columns()
    units = [col << i * kr * w for i in range(m) for col in columns]
    add = _lane_adder(p, lanes)
    rows = [linalg.lincomb(add, units, _lanes_vec(table.prime, lanes, x)) for x in d_code.lanes]
    words = [c << i * chunk for i in range(m) for c in code.lanes]
    add = _lane_adder(p, m * code.n * code.field.degree)
    return [linalg.lincomb(add, words, _lanes_vec(table.prime, lanes, v))
            for v in linalg.Echelon(p, lanes, rows).kernel(lanes)]


def table_matrix(table: FunctionalTable):
    """The exponent matrix [ f_lam(c) ] with canonical labels.

    Rows are indexed by packed scalars in increasing order; columns by
    codewords in message enumeration order.  Column labels pack the
    message big-endian so that label arithmetic matches the group
    structure of C; messages come in lexicographic order, so the label
    of column j is j.
    """
    from .bh import BhMatrix

    code = table.code
    K = table.scalars
    messages = itertools.product(range(code.field.order), repeat=code.k)
    words = [encode(code, msg) for msg in messages]
    rows = [
        tuple(table.f_int(lam, w) for w in words) for lam in range(K.order)
    ]
    return BhMatrix(
        K.order,
        table.prime.p,
        rows,
        row_labels=tuple(range(K.order)),
        col_labels=tuple(range(len(words))),
    )
