"""Slot arrays, and the echelon bases that number a state's slots.

A function on the p^dim points of F_p^dim with values mod M is one int:
point X owns slot number sum_j X_j p^j, ``_slot_width(M)`` bits wide,
so ``_slot_adder`` adds slot values mod M.  Adding a vector u to
every point rotates digit j of each slot number by u_j mod p: two masked
shifts per nonzero digit of u.  ``statevec`` keeps a state's exponents
on the coordinates of its labels over a ``_Basis`` of its support's
span, and ``fix_dim`` keeps phases the same way on the coset where its
diagonal generators act as 1.
"""

from __future__ import annotations

import functools
import itertools

from .gf import _slot_adder
from .linalg import _times


def _slot_width(modulus: int) -> int:
    """The bits of one slot for values mod ``modulus``: one spare top bit
    above the largest value."""
    return (modulus - 1).bit_length() + 1


def _repunit(count: int, bits: int) -> int:
    """The int whose ``bits``-bit fields 0, ..., count - 1 each hold 1."""
    return ((1 << count * bits) - 1) // ((1 << bits) - 1)


def _join(values, bits: int) -> int:
    """The int whose ``bits``-bit field i holds values[i].

    Neighbours are paired level by level, so each level halves the list
    and every bit moves once per level.
    """
    while len(values) > 1:
        pairs = iter(values)
        values = [lo | hi << bits for lo, hi in itertools.zip_longest(pairs, pairs, fillvalue=0)]
        bits *= 2
    return values[0] if values else 0


class _Slots:
    """Slot arrays over F_p^dim with values mod ``modulus``, as described above."""

    def __init__(self, p: int, dim: int, modulus: int):
        self.p, self.dim = p, dim
        self.modulus, self.step = modulus, modulus // p
        self.width = _slot_width(modulus)
        self.size = p ** dim
        self.add = _slot_adder(modulus, self.width, self.size)
        self.add_p = self.add if modulus == p else _slot_adder(p, self.width, self.size)
        self.ones = _repunit(self.size, self.width)
        self.full = self.ones * ((1 << self.width) - 1)
        # bits[j]: how far a step of digit j moves a slot
        self.bits = [p ** j * self.width for j in range(dim)]
        self._masks, self._plans = {}, {}
        # coords[j]: the array of step * X_j mod M, X_j digit j of the slot number
        self.coords = [self.linear([0] * j + [1] + [0] * (dim - 1 - j)) * self.step for j in range(dim)]

    def _ramp(self, block, slots: int, count: int, inc: int):
        """``count`` copies of a ``slots``-slot array, copy d plus d * inc mod p."""
        add, ones, bits = self.add_p, self.ones, slots * self.width

        def combine(u, v):
            (n, lo), (m, hi) = u, v
            k = n * inc % self.p
            if k:
                hi = add(hi, (ones & ((1 << m * bits) - 1)) * k)
            return n + m, lo | hi << n * bits

        return _times(combine, (1, block), count)[1]

    def mask(self, j: int, t: int):
        """(slots whose digit j is below p - t, the other slots), all bits set."""
        masks = self._masks.get((j, t))
        if masks is None:
            slots = self.p ** j * (self.p - t)
            low = self._ramp((1 << slots * self.width) - 1, self.p ** (j + 1),
                             self.p ** (self.dim - 1 - j), 0)
            masks = self._masks[(j, t)] = (low, self.full ^ low)
        return masks

    def plan(self, digits) -> list:
        """The masked shifts of ``_moved`` that move each slot X to X + u, u
        given by its digits: (low, high, up, down) per nonzero digit.
        Built once per digit tuple, and shared: callers only read it.  The
        memo is emptied when it reaches 4096 plans; each holds a few kB of
        its own at most, its masks being those of ``mask``."""
        key = tuple(digits)
        plan = self._plans.get(key)
        if plan is None:
            if len(self._plans) == 4096:
                self._plans.clear()
            p, bits = self.p, self.bits
            plan = self._plans[key] = [(*self.mask(j, t), t * bits[j], (p - t) * bits[j])
                                       for j, t in enumerate(key) if t]
        return plan

    def linear(self, coeffs):
        """The array of sum_j coeffs[j] X_j mod p (not M) on p^len(coeffs) slots, a ramp per digit."""
        arr = 0
        for j, c in enumerate(coeffs):
            arr = self._ramp(arr, self.p ** j, self.p, c % self.p)
        return arr

    def affine(self, c: int, row):
        """The array of c + step * sum_j row_j X_j mod M."""
        add, p, arr = self.add, self.p, self.ones * (c % self.modulus)
        for coord, t in zip(self.coords, row):
            if t % p:
                arr = add(arr, _times(add, coord, t % p))
        return arr

    def split(self, arr):
        """(mask, arr with its off-support slots cleared) of an array whose
        slots off the support have every bit set, a value of at least M."""
        off = (arr >> (self.width - 1)) & self.ones
        mask = self.full ^ off * ((1 << self.width) - 1)
        return mask, arr & mask

    def values(self, arr) -> list:
        """The slot values of arr, slot 0 first.

        Halves are split off level by level, the inverse of ``_join``.
        """
        parts, bits = [arr], self.width << (self.size - 1).bit_length()
        while bits > self.width:
            bits //= 2
            low = (1 << bits) - 1
            parts = [y for x in parts for y in (x & low, x >> bits)]
        return parts[:self.size]

    def spread(self, phases, known, digits, cost):
        """Phases on known + {0, ..., p - 1} a, from those on ``known``.

        Along a, phase(x + a) = phase(x) + cost(x).  An element (n, phases,
        known, acc) holds the phases on known + {0, ..., n - 1} a and the
        cost of n steps, acc(x) = cost(x) + ... + cost(x + (n - 1) a); two
        of them combine by moving the second n steps along a.
        """
        p, add, plan = self.p, self.add, self.plan

        def combine(u, v):
            (n, ph, kn, acc), (m, ph2, kn2, acc2) = u, v
            fwd = plan([n * t % p for t in digits])
            back = plan([-n * t % p for t in digits])
            return (n + m, ph | _moved(add(ph2, acc) & kn2, fwd),
                    kn | _moved(kn2, fwd), add(acc, _moved(acc2, back)))

        return _times(combine, (1, phases, known, cost), p)[1:3]

    def nonzero(self, arr):
        """1 in each slot of arr that holds a nonzero value, else 0."""
        top = self.width - 1
        rest = self.ones * ((1 << top) - 1)
        return ((arr | ((arr & rest) + rest)) >> top) & self.ones


def _moved(arr, plan):
    """arr with its slots moved by a ``_Slots.plan``."""
    for low, high, up, down in plan:
        arr = (arr & low) << up | (arr & high) >> down
    return arr


@functools.cache
def _slots(p: int, dim: int, modulus: int) -> _Slots:
    """The one ``_Slots`` of each (p, dim, modulus), with its masks and
    coordinate arrays cached on it."""
    return _Slots(p, dim, modulus)


# --- bases ------------------------------------------------------------------
# A state's support lies in t + V; V is held by its reduced echelon basis
# over F_p on lane-packed labels (the vector format of ``gf``).


class _Basis:
    """A reduced echelon basis of a support's direction space, and its slot arrays.

    ``span`` is the ``linalg.Echelon`` of the basis: its rows are each 1
    at their pivot lane, their lowest nonzero lane, and 0 at the pivot
    lanes of the others, in increasing pivot order, and ``reduce`` is its
    reduction.  ``shifts[i]`` is the bit offset of the pivot lane of
    rows[i].  Two bases are equal when their rows are.
    """

    __slots__ = ("p", "rows", "shifts", "digit", "add", "slots", "reduce")

    def __init__(self, modulus: int, span):
        self.p, self.rows, self.add, self.reduce = span.p, tuple(span.rows), span.add, span.reduce
        self.shifts = tuple(sorted(span.lead))
        self.digit = (1 << span.width) - 1
        self.slots = _slots(span.p, len(self.rows), modulus)

    def labels(self, offset: int) -> list:
        """offset + sum_i X_i rows[i] for every slot sum_i X_i p^i, slot 0 first."""
        add, labels = self.add, [offset]
        for row in self.rows:  # the labels so far, then each plus row, 2 row, ..., (p - 1) row
            labels += [add(x, m) for m in itertools.accumulate([row] * (self.p - 1), add)
                       for x in labels]
        return labels

    def __eq__(self, other):
        return isinstance(other, _Basis) and self.rows == other.rows
