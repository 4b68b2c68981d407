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
of the digit units, applied by one ``linalg.lincomb``.
"""

from __future__ import annotations

import itertools

from . import linalg
from .errors import DegenerateD, DimensionMismatch, NotACodeword
from .gf import Field, _lane_adder, _lane_pack, _lane_width, _lanes_vec, _vec_lanes, field_make
from .lincode import LinearCode, code_make, contains, dual, encode, fp_basis


class FunctionalTable:
    """The family { f_lam : lam in K } attached to one code C, with its lift.

    P = pack . msg, ``theta``, ``lambda_of`` and ``unpack_message`` each
    keep their lane-packed images of the digit units: P(p^d e_j), theta(p^t)
    and the message of p^t for t < deg K, and lambda_of(p^d e_j), in
    ``Field.vec_digits`` order.  The last three are trace systems solved
    at construction, each echelonned once with every unit's right-hand
    side appended, and kept as ``Echelon.solutions`` returns them.
    ``dual_code`` is C^perp, the kernel of theta's echelon, which
    ``construct.build`` reads its Z generators off.

    ``_state_parts`` is None until ``statevec`` first builds a state of
    the table; it then holds P(u) per message digit unit and the compact
    tr(lam P(m)) arrays of ``statevec._phi_states`` for the table's lifetime.
    """

    __slots__ = ("code", "scalars", "prime", "dual_code", "_add", "_pack", "_theta", "_lambda",
                 "_unpack", "_state_parts")

    def __init__(self, code: LinearCode, scalars: Field):
        self.code = code
        self.scalars = scalars
        self.prime = field_make(scalars.p, 1)
        self._state_parts = None

        f, K, n, r = code.field, scalars, code.n, code.field.degree
        p, w, nr, kr = K.p, _lane_width(K.p), n * r, K.degree
        self._add = _lane_adder(p, nr)  # k <= n: wide enough for K's kr lanes too
        # P(p^d e_j) = embed(p^d) g^j, g packed as p (at degree 1 only g^0 is
        # read), is P(msg e) for fp_basis(C) row e = p^d gen_j, so its trace
        # row is functional[e][t] = f_{p^t}(e).
        embed = K.embed_table(f)
        units = [K.mul(embed[p ** d], K.pow(p, j)) for j in range(code.k) for d in range(r)]
        self._pack = [_vec_lanes(K, (u,)) for u in units]
        functional = [K.trace_row(u) for u in units]
        # pairing[e][column of digit d of x_j] = tr_{q/p}(e_j * p^d), the
        # unknowns ordered coordinate by coordinate.  Reducing a solution
        # against the reduced echelon basis of the kernel then gives the
        # lexicographically smallest one, comparing vectors as tuples of
        # packed values, whatever the digit order inside a coordinate:
        # C^perp is F_q-linear, so given the earlier coordinates each
        # coordinate of the solution coset is either forced or free over
        # all of F_q.  The reduction is linear too.
        pairing = [_lane_pack(f.trace_rows(e), w) for e in fp_basis(code)]
        packed = [_lane_pack(row, w) for row in functional]
        ech = linalg.Echelon(p, nr + kr, [a | b << nr * w for a, b in zip(pairing, packed)])
        theta = ech.solutions(nr, kr)
        if None in theta:  # pragma: no cover - trace pairing is non-degenerate
            raise ArithmeticError("inconsistent trace system; field tables corrupt")
        rows = [b | a << kr * w for a, b in zip(pairing, packed)]
        self._lambda = linalg.Echelon(p, kr + nr, rows).solutions(kr, nr)
        if None in self._lambda:  # pragma: no cover - lam -> f_lam is onto the dual
            raise ArithmeticError("functional not representable; field tables corrupt")
        # The message digits v of P^-1(y) solve functional^T . v = trace_row(y),
        # digits ordered as in fp_basis: coordinate-major, digit inner.  Entry
        # t of the right-hand side for y = p^u is tr(p^u p^t), which is
        # entry u of trace_row(p^t).
        rows = [_lane_pack(col, w) | _lane_pack(K.trace_row(p ** t), w) << kr * w
                for t, col in enumerate(zip(*functional))]
        self._unpack = linalg.Echelon(p, 2 * kr, rows).solutions(kr, kr)
        if None in self._unpack:  # pragma: no cover - P is an F_p-isomorphism
            raise ArithmeticError("message not recoverable; field tables corrupt")
        # all consistent, so no right-hand side leads: ech's kernel on nr lanes is C^perp
        self.dual_code = LinearCode(f, n, tuple(ech.kernel(nr)))
        kernel = linalg.Echelon.of_reduced(p, nr, self.dual_code.lanes)
        self._theta = [kernel.reduce(x) for x in theta]

    def _apply(self, f: Field, n: int, images, digits) -> tuple:
        """The length-n vector over f that the map with unit ``images`` sends ``digits`` to."""
        return _lanes_vec(f, n, linalg.lincomb(self._add, images, digits))

    # -- scalar side

    def pack_message(self, message) -> int:
        """Message tuple over F_q -> packed element of K."""
        return self._apply(self.scalars, 1, self._pack, self.code.field.vec_digits(message))[0]

    def unpack_message(self, y: int) -> tuple:
        """Packed element of K -> message tuple over F_q; inverse of pack_message."""
        return self._apply(self.code.field, self.code.k, self._unpack, self.scalars.digits(y))

    def f_int(self, lam: int, word) -> int:
        """f_lam evaluated on a codeword, as an int in [0, p)."""
        msg = tuple(word[j] for j in self.code.pivots)
        return self.scalars.trace_int(self.scalars.mul(lam, self.pack_message(msg)))

    # -- the lift

    def theta(self, lam: int) -> tuple:
        """Lexicographically smallest x with rho_x = f_lam on C."""
        return self._apply(self.code.field, self.code.n, self._theta, self.scalars.digits(lam))

    def lambda_of(self, x) -> int:
        """The unique scalar lam whose functional agrees with rho_x on C."""
        return self._apply(self.scalars, 1, self._lambda, self.code.field.vec_digits(x))[0]

    def __repr__(self):
        return f"functional table for {self.code!r} over {self.scalars!r}"


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
    """f_lam(word) in F_p, an int in [0, p); word must lie in C."""
    lam = int(lam)
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
    """F_p-basis of the joint kernel of all summed functionals.

    The functional indexed by a D-codeword Lam sends (c_1, ..., c_m) to
    sum_i f_{lam_i}(c_i) = tr(sum_i lam_i P(c_i)), with P = pack . msg.
    D is K-linear and the trace form of K is non-degenerate, so the
    joint kernel is {(c_i) : (P(c_1), ..., P(c_m)) in D^perp}: the dual
    of D concatenated with C through P^-1.  Each basis element is an
    m-tuple of codewords.  Deterministic: the basis is the reduced
    echelon form over message digits, unknown (i*k + j)*r + d being
    digit d of message coordinate j of block i.
    """
    code = table.code
    if d_code.field != table.scalars:
        raise DimensionMismatch("outer code is not defined over the scalar field")
    q, k = code.field, code.k
    rows = [
        _vec_lanes(q, sum(map(table.unpack_message, vec), ()))
        for vec in fp_basis(dual(d_code))
    ]
    basis = linalg.Echelon(q.p, d_code.n * k * q.degree, rows).rows
    return [
        tuple(encode(code, msgs[i * k:(i + 1) * k]) for i in range(d_code.n))
        for msgs in (_lanes_vec(q, d_code.n * k, x) for x in basis)
    ]


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
