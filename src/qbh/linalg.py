"""Small exact linear algebra helpers over a Field.

Matrices are lists of equal-length int tuples (packed field values).
Everything is deterministic: reduced row echelon form is canonical for
a row space, and nullspace bases are themselves returned in RREF.
"""

from __future__ import annotations

from .gf import Field


def rref(field: Field, rows) -> tuple[list[tuple], list[int]]:
    """Reduced row echelon form. Returns (nonzero rows, pivot columns)."""
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(mat)):
            if mat[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = field.inv(mat[rank][col])
        if inv != 1:
            mat[rank] = [field.mul(inv, x) for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                c = mat[i][col]
                row_r = mat[rank]
                mat[i] = [field.sub(x, field.mul(c, y)) for x, y in zip(mat[i], row_r)]
        pivots.append(col)
        rank += 1
        if rank == len(mat):
            break
    return [tuple(r) for r in mat[:rank]], pivots


def rank(field: Field, rows) -> int:
    return len(rref(field, rows)[0])


def reduce_vector(field: Field, rrows, pivots, v) -> tuple:
    """Subtract the row-space component of v visible at the pivot columns."""
    v = list(v)
    for row, col in zip(rrows, pivots):
        c = v[col]
        if c:
            v = [field.sub(x, field.mul(c, y)) for x, y in zip(v, row)]
    return tuple(v)


def nullspace(field: Field, rows, ncols: int) -> list[tuple]:
    """Canonical basis of {x : rows . x = 0}, returned in RREF."""
    rrows, pivots = rref(field, rows) if rows else ([], [])
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [0] * ncols
        vec[free] = 1
        for row, col in zip(rrows, pivots):
            if row[free]:
                vec[col] = field.neg(row[free])
        basis.append(tuple(vec))
    rbasis, _ = rref(field, basis)
    return rbasis


def solve(field: Field, rows, rhss) -> list:
    """One solution of rows . x = rhs per rhs, free variables set to zero.

    The matrix is echelonned once with every right-hand side appended.
    Reduction multiplies [rows | rhss] on the left by an invertible
    matrix, so a system is consistent exactly when its column vanishes
    below the pivot rows of ``rows``, even where the echelon form put
    pivots in the appended columns.  Returns a list with a solution, or
    None for an inconsistent system, per right-hand side.
    """
    rhss = [tuple(b) for b in rhss]
    if not rows:
        return [None if any(b) else () for b in rhss]
    ncols = len(rows[0])
    aug = [tuple(r) + col for r, col in zip(rows, zip(*rhss))]
    rrows, pivots = rref(field, aug)
    rank = sum(1 for col in pivots if col < ncols)
    out = []
    for j in range(ncols, ncols + len(rhss)):
        if any(row[j] for row in rrows[rank:]):
            out.append(None)
            continue
        x = [0] * ncols
        for row, col in zip(rrows, pivots[:rank]):
            x[col] = row[j]
        out.append(tuple(x))
    return out
