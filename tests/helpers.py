"""Deterministic instance family shared by the property and acceptance tests.

The family covers p in {2,3}, extension degrees r <= 2, inner lengths
n <= 4 with 1 <= k < n, outer lengths m <= 3 with 1 <= s < m, capped at
q^{nm} <= 2^16 so state-space enumerations stay exact and quick.
``counted_echelons`` counts the eliminations a call makes.
"""

import itertools

from qbh import linalg
from qbh.gf import field_make
from qbh.lincode import code_make

FAMILY_LABEL_CAP = 1 << 16


def pattern_code(field, n, k):
    """[I_k | A] with A cycling through the nonzero scalars."""
    q = field.order
    rows = []
    for i in range(k):
        row = [0] * n
        row[i] = 1
        for j in range(n - k):
            row[k + j] = 1 + (i + j) % (q - 1)
        rows.append(tuple(row))
    return code_make(field, rows)


def repetition(field, n):
    return code_make(field, [(1,) * n])


def family_instances():
    """All (C, D, meta) triples in the family, in a fixed order."""
    out = []
    for p in (2, 3):
        for r in (1, 2):
            q = p ** r
            for n in range(2, 5):
                for k in range(1, n):
                    for m in (2, 3):
                        for s in range(1, m):
                            if q ** (n * m) > FAMILY_LABEL_CAP:
                                continue
                            inner = field_make(p, r)
                            scalars = field_make(p, r * k)
                            c_code = pattern_code(inner, n, k)
                            d_code = pattern_code(scalars, m, s)
                            meta = {"p": p, "r": r, "q": q, "n": n, "k": k,
                                    "m": m, "s": s}
                            out.append((c_code, d_code, meta))
    return out


def repetition_instances(label_cap=1 << 12):
    """C from the family patterns paired with a full-repetition D.

    Capped by |C|^m <= label_cap so kernel membership can be checked by
    exhausting all m-tuples of codewords.
    """
    out = []
    for p in (2, 3):
        for r in (1, 2):
            q = p ** r
            for n in range(2, 5):
                for k in range(1, n):
                    for m in (2, 3):
                        if q ** (n * m) > FAMILY_LABEL_CAP:
                            continue
                        if q ** (k * m) > label_cap:
                            continue
                        inner = field_make(p, r)
                        scalars = field_make(p, r * k)
                        c_code = pattern_code(inner, n, k)
                        d_code = repetition(scalars, m)
                        meta = {"p": p, "r": r, "q": q, "n": n, "k": k,
                                "m": m, "s": 1}
                        out.append((c_code, d_code, meta))
    return out


def shor_pair():
    """C = [3,1] binary repetition; D = repetition of length 3 over F_{2^1}."""
    f2 = field_make(2, 1)
    return repetition(f2, 3), repetition(f2, 3)


def nine_qutrit_pair():
    f3 = field_make(3, 1)
    return repetition(f3, 3), repetition(f3, 3)


def four_one_pair():
    f2 = field_make(2, 1)
    return repetition(f2, 2), repetition(f2, 2)


def all_vectors(field, n):
    return itertools.product(range(field.order), repeat=n)


def counted_echelons(monkeypatch) -> list:
    """A list that gets, for each ``linalg.Echelon`` made from now on that
    is given rows, their number: one entry per elimination."""
    made, echelon = [], linalg.Echelon

    class Counted(echelon):
        __slots__ = ()

        def __init__(self, p, lanes, rows=()):
            rows = list(rows)
            if rows:
                made.append(len(rows))
            super().__init__(p, lanes, rows)

    monkeypatch.setattr(linalg, "Echelon", Counted)
    return made
