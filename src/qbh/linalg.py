"""Exact linear algebra over F_p on lane-packed rows.

A row is one int in the vector format of ``gf``, column i in lane i, and
a row operation is one lane add: XOR at p = 2, as in the bit-packed
elimination of M4RI (Albrecht & Bard), and ``gf._lane_adder`` at odd p,
with multiples by double-and-add.  Rows stay packed from step to step.
Spaces over F_q are F_p-spaces too (``lincode``).  Reduced row echelon
form is canonical for a row space, and kernels are returned in it.
``Echelon`` is the one elimination: each caller builds one per linear
system and reads its ``rows``, ``kernel`` or ``solutions`` off it.
"""

from __future__ import annotations

from .gf import _lane_adder, _lane_width


def _times(combine, x, count: int):
    """x combined with itself ``count`` times, in O(log count) combines.

    ``combine`` must be associative; it is called on (out, out) to double
    and on (out, x) to add one, reading the bits of ``count`` from the top.
    """
    out = x
    for bit in bin(count)[3:]:
        out = combine(out, out)
        if bit == "1":
            out = combine(out, x)
    return out


def lincomb(add, units, digits) -> int:
    """sum_i digits[i] units[i] by lane adds through ``add``: the F_p-linear map whose
    lane-packed images of the digit units are ``units``, applied to ``digits`` in [0, p)."""
    out = 0
    for u, d in zip(units, digits):
        if d:
            out = add(out, u if d == 1 else _times(add, u, d))
    return out


class Echelon:
    """The reduced echelon basis of a row space over F_p, rows lane-packed
    over ``lanes`` lanes.

    Each row is 1 at its pivot lane, its lowest nonzero lane, and 0 at
    the pivot lanes of the other rows, so the basis is unique.  ``lead``
    maps each pivot lane's bit offset to its row; ``mask`` holds every bit
    of those lanes, and ``seen`` a bit of each lane a row was ever nonzero at.
    """

    __slots__ = ("p", "width", "add", "lead", "mask", "seen")

    def __init__(self, p: int, lanes: int, rows=()):
        self.p, self.width = p, _lane_width(p)
        self.add = _lane_adder(p, lanes)
        self.lead, self.mask, self.seen = {}, 0, 0
        for x in rows:
            self.insert(x)

    @classmethod
    def of_reduced(cls, p: int, lanes: int, rows) -> "Echelon":
        """The echelon whose basis is ``rows``, taken as they are: they must
        be reduced already, each 1 at its lowest nonzero lane and 0 at the
        pivot lanes of the others, in increasing pivot order.  One pass
        checks that with no elimination, and raises ArithmeticError
        otherwise: a row is 0 below its pivot, so at the earlier pivots,
        and the rows before it must be 0 at its pivot."""
        ech = cls(p, lanes)
        digit, last = (1 << ech.width) - 1, -1
        for x in rows:
            s = (x & -x).bit_length() - 1
            s -= s % ech.width
            if s <= last or x >> s & digit != 1:
                raise ArithmeticError("rows are not reduced echelon: a pivot not 1 or out of order")
            if ech.seen >> s & digit:
                raise ArithmeticError("rows are not reduced echelon: a row is nonzero at another pivot")
            ech.lead[s], last = x, s
            ech.mask |= digit << s
            ech.seen |= x
        return ech

    @property
    def rows(self) -> list:
        return [self.lead[s] for s in sorted(self.lead)]

    @property
    def pivots(self) -> list:
        return [s // self.width for s in sorted(self.lead)]

    def scale(self, x: int, c: int) -> int:
        """c x for c in [1, p), by double-and-add."""
        return _times(self.add, x, c)

    def reduce(self, x: int) -> int:
        """x less the combination of rows that clears its pivot lanes: each
        lane once, by the row it leads, which is 0 at the others."""
        lead, add, p, w = self.lead, self.add, self.p, self.width
        digit, at = (1 << w) - 1, x & self.mask
        while at:
            s = (at & -at).bit_length() - 1
            s -= s % w
            c = p - (x >> s & digit)
            x = add(x, lead[s] if c == 1 else self.scale(lead[s], c))
            at &= ~(digit << s)
        return x

    def insert(self, x: int) -> bool:
        """Add x to the row space; False when it lay there already."""
        x = self.reduce(x) if x & self.mask else x
        if not x:
            return False
        lead, p, w = self.lead, self.p, self.width
        digit, s = (1 << w) - 1, (x & -x).bit_length() - 1
        s -= s % w
        if x >> s & digit != 1:
            x = self.scale(x, pow(x >> s & digit, -1, p))
        if self.seen >> s & digit:  # else no row is nonzero at the new pivot
            for t, row in lead.items():
                c = p - (row >> s & digit)
                if c != p:
                    lead[t] = self.add(row, x if c == 1 else self.scale(x, c))
        lead[s] = x
        self.mask |= digit << s
        self.seen |= x
        return True

    def kernel(self, lanes: int) -> list:
        """The reduced echelon basis of {x : row . x = 0 for every row} on
        the first ``lanes`` lanes: for each of them that leads no row, e_j
        less each row's lane j at its pivot.  Lanes past those, which must
        lead no row, are not read."""
        p, w, lead = self.p, self.width, self.lead
        digit, out = (1 << w) - 1, Echelon(p, lanes)
        for j in range(0, lanes * w, w):
            if not self.mask >> j & 1:
                out.insert(1 << j | sum(p - (row >> j & digit) << s
                                        for s, row in lead.items() if row >> j & digit))
        return out.rows

    def solutions(self, lanes: int, count: int) -> list:
        """Per right-hand side b, the solution x of A x = b with free
        unknowns 0, lane-packed, or None when there is none, for rows
        inserted as A on the first ``lanes`` lanes, then entry i of each
        of the ``count`` right-hand sides.  The echelon is [A | B] times an
        invertible matrix on the left, so a system is consistent exactly
        when its lane is 0 in each row led by a lane of B; x is then its
        lane laid on the pivot lanes."""
        digit, edge = (1 << self.width) - 1, lanes * self.width
        out = []
        for j in range(edge, edge + count * self.width, self.width):
            led = [(s, row >> j & digit) for s, row in self.lead.items() if row >> j & digit]
            out.append(None if any(s >= edge for s, _ in led) else sum(d << s for s, d in led))
        return out

