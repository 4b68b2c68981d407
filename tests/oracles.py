"""Independent brute-force reference implementations.

Everything here recomputes values from first principles, without going
through the code paths under test: polynomial arithmetic is written out
longhand, orthogonality checks run in floating-point complex arithmetic,
and group orders come from explicit closure. Slow on purpose. The state
references are the exception: they build states through ``state_make``,
the readable constructor, and read them through ``inner``, exact in Z[z].
"""

import cmath
import functools
import itertools
import operator
from fractions import Fraction

from qbh.construct import mul
from qbh.errors import DEFAULT_BUDGET, BudgetExceeded, DimensionMismatch
from qbh.lincode import dual, iter_codewords
from qbh.pauli import PauliElement, identity, phase_modulus
from qbh.statevec import CycAmp, state_make


def poly_mul_mod(p, modulus, a, b):
    """Product of digit lists (constant term first) reduced mod modulus."""
    t = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    # long division by the monic modulus
    for d in range(len(prod) - 1, t - 1, -1):
        c = prod[d]
        if c:
            for j in range(t + 1):
                prod[d - t + j] = (prod[d - t + j] - c * modulus[j]) % p
    out = prod[:t]
    out += [0] * (t - len(out))
    return out


def oracle_trace(field, x):
    """tr(x) = x + x^p + ... + x^{p^{t-1}} via raw polynomial powers."""
    p, t = field.p, field.degree
    if t == 1:
        return x % p
    modulus = list(field.modulus)
    digits = list(field.digits(x))
    acc = [0] * t
    cur = digits
    for _ in range(t):
        acc = [(u + v) % p for u, v in zip(acc, cur)]
        nxt = cur
        for _ in range(p - 1):
            nxt = poly_mul_mod(p, modulus, nxt, cur)
        cur = nxt
    assert all(d == 0 for d in acc[1:]), "trace landed outside the prime field"
    return acc[0]


def oracle_codewords(field, gen_rows):
    n = len(gen_rows[0]) if gen_rows else 0
    words = set()
    for coeffs in itertools.product(range(field.order), repeat=len(gen_rows)):
        w = [0] * n
        for c, row in zip(coeffs, gen_rows):
            if c:
                w = [field.add(x, field.mul(c, y)) for x, y in zip(w, row)]
        words.add(tuple(w))
    return words


def oracle_min_distance(field, gen_rows):
    best = None
    for w in oracle_codewords(field, gen_rows):
        wt = sum(1 for x in w if x)
        if wt and (best is None or wt < best):
            best = wt
    return best


def from_digits(p, digits):
    """The packed element whose base-p digits, constant digit first, are ``digits``."""
    return sum(d * p ** i for i, d in enumerate(digits))


def min_weight_outside(field, n, srows, rest, fold=False):
    """Minimum weight of span_Fp(srows + rest) outside span_Fp(srows).

    Every F_p-coefficient tuple is formed as a vector over ``field``, its
    digits summed column by column mod p.  The rows are F_p-independent,
    so a combination lies in span(srows) exactly when its coefficients
    on ``rest`` are all zero.  Vectors have n coordinates, or 2n with
    ``fold``, where coordinate i counts when i or n + i is nonzero.  With
    no rest the minimum is over the nonzero span; n + 1 when no element
    is left.
    """
    rows = [field.vec_digits(row) for row in list(srows) + list(rest)]
    columns = list(zip(*rows))
    best = n + 1
    for coeffs in itertools.product(range(field.p), repeat=len(rows)):
        if not any(coeffs[len(srows):] if rest else coeffs):
            continue
        digits = [sum(map(operator.mul, coeffs, col)) % field.p for col in columns]
        r = field.degree
        v = [from_digits(field.p, digits[i:i + r]) for i in range(0, len(digits), r)]
        best = min(best, sum(1 for i in range(n) if v[i] or fold and v[n + i]))
    return best


def oracle_dual_set(field, n, codewords):
    out = set()
    for v in itertools.product(range(field.order), repeat=n):
        if all(_dot_is_zero(field, v, c) for c in codewords):
            out.add(v)
    return out


def _dot_is_zero(field, u, v):
    acc = 0
    for x, y in zip(u, v):
        acc = field.add(acc, field.mul(x, y))
    return acc == 0


def coset_leader_weight_oracle(field, codewords, v):
    best = None
    for c in codewords:
        diff = tuple(field.add(x, field.neg(y)) for x, y in zip(v, c))
        wt = sum(1 for z in diff if z)
        if best is None or wt < best:
            best = wt
    return best


def ell_by_words(table, d_code):
    """ell = min over the nonzero words Lam of D of sum_i w(Lam_i), with
    w(lam) the weight of a leader of the coset theta(lam) + C^perp: every
    word of D formed from its generator rows, and every leader searched
    over the words of C^perp."""
    f = table.code.field
    duals = oracle_codewords(f, dual(table.code).gen)
    leader = functools.cache(lambda lam: coset_leader_weight_oracle(f, duals, table.theta(lam)))
    return min(sum(map(leader, word)) for word in oracle_codewords(d_code.field, d_code.gen)
               if any(word))


def oracle_bh_complex(rows, p, tol=1e-7):
    """Row orthogonality checked in floating point."""
    n = len(rows)
    omega = cmath.exp(2j * cmath.pi / p)
    for i in range(n):
        for j in range(n):
            ip = sum(omega ** rows[i][c] * (omega ** rows[j][c]).conjugate()
                     for c in range(n))
            want = n if i == j else 0
            if abs(ip - want) > tol * n:
                return False
    return True


def bh_verify_entrywise(m):
    """``bh.bh_verify`` one entry at a time: every row pair's exponent
    differences must hit each residue mod p order / p times."""
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


def linear_rows_by_label(m):
    """``bh.linear_rows_check`` one label at a time, for labels that
    enumerate F_p^t: each row's entry at label x must be sum_d x_d times
    its entry at the unit label p^d, mod p."""
    p, order = m.p, m.order
    t = 0
    while p ** t < order:
        t += 1
    labels = m.col_labels if m.col_labels is not None else tuple(range(order))
    pos = {lab: j for j, lab in enumerate(labels)}
    digs = [[x // p ** d % p for d in range(t)] for x in range(order)]
    for row in m.rows:
        units = [row[pos[p ** d]] for d in range(t)]
        for x in range(order):
            if row[pos[x]] != sum(c * u for c, u in zip(digs[x], units)) % p:
                return False
    return True


def complex_rank(rows, tol=1e-9):
    """Rank of complex row vectors, by elimination with partial pivoting."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = max(range(rank, len(rows)), key=lambda i: abs(rows[i][col]), default=None)
        if pivot is None or abs(rows[pivot][col]) < tol:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for i in range(rank + 1, len(rows)):
            factor = rows[i][col] / top[col]
            rows[i] = [x - factor * y for x, y in zip(rows[i], top)]
        rank += 1
    return rank


def span_equal_by_rank(states_a, states_b):
    """span A = span B, decided as rank A = rank B = rank(A + B) in floating point.

    Each state is read from the tuple view ``amps``: a CycAmp with
    coefficients c_j stands for sum_j c_j z^j, z = e^(2 pi i/M), with
    M = 4 at p = 2 and M = p otherwise.  Scales are ignored.
    """
    states_a, states_b = list(states_a), list(states_b)
    both = states_a + states_b
    p = both[0].field.p
    z = cmath.exp(2j * cmath.pi / (4 if p == 2 else p))
    labels = sorted(set().union(*(v.amps for v in both)))

    def vec(v):
        return [sum(c * z ** j for j, c in enumerate(v.amps[x].coeffs)) if x in v.amps else 0j
                for x in labels]

    ranks = {complex_rank([vec(v) for v in s]) for s in (states_a, states_b, both)}
    return len(ranks) == 1


# --- state references ------------------------------------------------------
# The product of two states, the equal-sum states and span equality, which
# the package does not read: states built from their definitions through
# ``state_make``, and spans compared by an elimination over Q of their
# Gram rows.


def tensor(v, w):
    """v (x) w: amplitude v(x) w(y) at the label x + y, scale v.scale + w.scale."""
    amps = {x + y: a * b for x, a in v.amps.items() for y, b in w.amps.items()}
    return state_make(v.field, v.length + w.length, amps, v.scale + w.scale)


def equal_sum_states(code, m):
    """For each codeword c in message order, the flat sum over the m-tuples
    of codewords that add to c, at scale 0."""
    f, words = code.field, list(iter_codewords(code))
    sums, one = {c: {} for c in words}, CycAmp.one(f.p)
    for blocks in itertools.product(words, repeat=m):
        total = functools.reduce(lambda u, v: tuple(map(f.add, u, v)), blocks)
        sums[total][sum(blocks, ())] = one
    return [state_make(f, code.n * m, sums[c]) for c in words]


def inner(v, w) -> CycAmp:
    """<v, w> without the scale factors: sum of conj(v) * w, as an element
    of Z[z].  Each common label contributes z^(e_w - e_v), so the sum is
    the histogram of exponent differences read as a ``CycAmp``: the
    reference ``statevec.orthogonal`` is held to."""
    if v.field != w.field or v.length != w.length:
        raise DimensionMismatch("states to compare live in different spaces")
    modulus = phase_modulus(v.field)
    counts = [0] * modulus
    for x in v.exps.keys() & w.exps.keys():
        counts[(w.exps[x] - v.exps[x]) % modulus] += 1
    return CycAmp(v.field.p, counts)


def span_equal(states_a, states_b, budget: int = DEFAULT_BUDGET) -> bool:
    """Equality of row spaces over the field Q(z), read through ``inner``.

    With U both lists together, v -> (<u, v>)_{u in U} is Q(z)-linear and,
    the inner product being definite, one-to-one on span U; so the spans
    are equal exactly when the Gram rows of their states against U span
    the same space.  A Q(z)-span is the Q-span of the z-multiples of its
    vectors, so each state gives the rows z^j (<u, v>)_u for j < deg =
    [Q(z):Q], read in the power basis of Q(z), and the two sets of rows
    are compared by their reduced echelon forms over Q.  Scale exponents
    are ignored; a global nonzero scalar never moves a span.  States of
    different spaces raise ``DimensionMismatch`` from ``inner``.
    ``budget`` caps rows x columns x min(rows, columns) of the larger
    elimination, deg rows per state of the longer list by deg columns
    per state of both.
    """
    states_a, states_b = list(states_a), list(states_b)
    if not states_a or not states_b:
        return not states_a and not states_b
    union = states_a + states_b
    deg = len(CycAmp.one(union[0].field.p).coeffs)
    rows, cols = deg * max(len(states_a), len(states_b)), deg * len(union)
    work = rows * cols * min(rows, cols)
    if work > budget:
        raise BudgetExceeded("span_equal rows x columns x pivots", work, budget)

    def echelon(states):
        """Pivot column -> row of the reduced echelon form over Q, a row at a time."""
        lead = {}
        for gram in ([inner(u, v) for u in union] for v in states):
            for j in range(deg):
                row = [Fraction(c) for g in gram for c in g.rot(j).coeffs]
                for col, other in lead.items():
                    if row[col]:
                        row = [x - row[col] * y for x, y in zip(row, other)]
                col = next((i for i, x in enumerate(row) if x), None)
                if col is not None:
                    row = [x / row[col] for x in row]
                    lead = {c: [x - r[col] * y for x, y in zip(r, row)] if r[col] else r
                            for c, r in lead.items()}
                    lead[col] = row
        return lead

    return echelon(states_a) == echelon(states_b)


def pauli_matrix(e):
    """Dense complex matrix of omega^phase X(a) Z(b), labels big-endian."""
    f = e.field
    q, n = f.order, e.length
    dim = q ** n
    modulus = 4 if f.p == 2 else f.p
    mult = 2 if f.p == 2 else 1
    root = 1j if f.p == 2 else cmath.exp(2j * cmath.pi / f.p)
    mat = [[0j] * dim for _ in range(dim)]
    for col, x in enumerate(itertools.product(range(q), repeat=n)):
        expo = e.phase
        for bi, xi in zip(e.b, x):
            if bi and xi:
                expo += mult * f.trace_int(f.mul(bi, xi))
        y = tuple(f.add(xi, ai) for xi, ai in zip(x, e.a))
        row = 0
        for yi in y:
            row = row * q + yi
        mat[row][col] = root ** (expo % modulus)
    return mat


def mat_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def mat_close(a, b, tol=1e-9):
    return all(abs(x - y) <= tol for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def group_closure(gens, limit=1 << 16):
    """Explicit closure of a generating set of Pauli elements."""
    if not gens:
        return {None}
    start = identity(gens[0].field, gens[0].length)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                prod = mul(g, h)
                if prod not in seen:
                    if len(seen) >= limit:
                        raise RuntimeError("closure exceeded limit")
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return seen


def fix_dim_by_counting(field, n, gens):
    """dim fix(S) = q^n / |S| for an abelian S meeting the center trivially.

    Valid because tr(omega^c X(a) Z(b)) vanishes unless a = b = 0; the
    averaged projector then has trace q^n * (pure-phase sum) / |S|.
    """
    group = group_closure(list(gens))
    for e in group:
        if not any(e.a) and not any(e.b) and e.phase:
            return 0
    size = len(group)
    assert (field.order ** n) % size == 0
    return field.order ** n // size


def fix_dim_by_orbits(field, n, gens):
    """dim fix(S) for any list of generators, by tracing orbits of labels.

    A vector v is fixed by omega^c X(a) Z(b) exactly when v(x + a) is
    i^(c + 2 tr(b.x)) v(x) at p = 2, omega^(c + tr(b.x)) v(x) otherwise,
    on every label x.  Phases spread from the first label of each orbit
    along every generator, and the orbit counts once when no relation
    contradicts a phase already found.  Labels are tuples, sums go
    through ``field.add`` and traces through ``oracle_trace``.
    """
    f = field
    modulus = 4 if f.p == 2 else f.p
    mult = 2 if f.p == 2 else 1
    trace = [oracle_trace(f, v) for v in range(f.order)]
    phase_of = {}
    dim = 0
    for start in itertools.product(range(f.order), repeat=n):
        if start in phase_of:
            continue
        phase_of[start] = 0
        stack, ok = [start], True
        while stack:
            x = stack.pop()
            for g in gens:
                y = tuple(f.add(xi, ai) for xi, ai in zip(x, g.a))
                tr = sum(trace[f.mul(bi, xi)] for bi, xi in zip(g.b, x))
                ph = (phase_of[x] + g.phase + mult * tr) % modulus
                if y not in phase_of:
                    phase_of[y] = ph
                    stack.append(y)
                elif phase_of[y] != ph:
                    ok = False
        dim += ok
    return dim


def image(e, state):
    """The tuple view of omega^c X(a) Z(b) applied to the state.

    Read from ``state.amps``: the amplitude at label x moves to x + a and
    picks up omega^(c + tr(b.x)), or i^(c + 2 tr(b.x)) at p = 2, with the
    sum x + a taken by ``f.add`` and the trace by ``oracle_trace``.
    """
    f = e.field
    mult = 2 if f.p == 2 else 1
    out = {}
    for x, amp in state.amps.items():
        y = tuple(f.add(xi, ai) for xi, ai in zip(x, e.a))
        tr = sum(oracle_trace(f, f.mul(bi, xi)) for bi, xi in zip(e.b, x))
        out[y] = amp.rot(e.phase + mult * tr)
    return out


def fixes(e, state):
    """Does omega^c X(a) Z(b) fix the state exactly?"""
    return image(e, state) == state.amps


def stab_by_enumeration(states):
    """Every (phase, a, b) whose element fixes each state, by trying them all.

    Shifts a that move some support are skipped before the b and phase
    loops; everything else is tried against every state with ``fixes``.
    """
    states = list(states)
    f = states[0].field
    n = states[0].length
    q = f.order
    supports = [frozenset(v.amps) for v in states]
    found = set()
    for a in itertools.product(range(q), repeat=n):
        moved = (frozenset(tuple(f.add(xi, ai) for xi, ai in zip(x, a)) for x in sup)
                 for sup in supports)
        if any(m != sup for m, sup in zip(moved, supports)):
            continue
        for b in itertools.product(range(q), repeat=n):
            for c in range(4 if f.p == 2 else f.p):
                e = PauliElement(f, c, a, b)
                if all(fixes(e, v) for v in states):
                    found.add((e.phase, e.a, e.b))
    return found


def trace_system_kernel(table, d_code):
    """Joint kernel of the summed functionals, as a trace system.

    One F_p row per digit multiple p^t * Lam of each generator Lam of D;
    the entry of unknown (i*k + j)*r + d is tr(lam_i * P(p^d e_j)), with
    P read off ``pack_message``.  The nullspace, in reduced echelon form,
    is encoded block by block.
    """
    from qbh.lincode import encode

    code, K = table.code, table.scalars
    q, m, k = code.field, d_code.n, code.k
    r = q.degree
    units = []
    for j in range(k):
        for d in range(r):
            msg = [0] * k
            msg[j] = q.p ** d
            units.append(table.pack_message(tuple(msg)))
    rows = []
    for row in d_code.gen:
        for t in range(K.degree):
            lams = [K.mul(K.p ** t, lam) for lam in row]
            rows.append(tuple(K.trace_int(K.mul(lam, u)) for lam in lams for u in units))
    basis = nullspace(table.prime, rows, m * k * r)
    return [
        tuple(
            encode(code, tuple(from_digits(q.p, vec[(i * k + j) * r:(i * k + j + 1) * r])
                               for j in range(k)))
            for i in range(m)
        )
        for vec in basis
    ]


# --- F_p-linear data by Field ops ---------------------------------------
# The formulas that ``functional`` and ``lincode`` now keep as lane-packed
# images, written out one Field call per entry: the references the stored
# images are held against.


def pack_message(table, message):
    """P(m) = sum_j embed(m_j) g^j in K, g the canonical generator of K."""
    K = table.scalars
    embed = K.embed_table(table.code.field)
    g = from_digits(K.p, (0, 1)) if K.degree >= 2 else 1
    acc, power = 0, 1
    for m in message:
        acc = K.add(acc, K.mul(embed[m], power))
        power = K.mul(power, g)
    return acc


def digit_sum(field, digits, images, length):
    """sum_t digits[t] images[t] over the field, for tuple ``images``: an
    F_p-linear map applied to a digit vector, digit by digit."""
    out = (0,) * length
    for c, image in zip(digits, images):
        if c:
            out = tuple(field.add(a, field.mul(c, b)) for a, b in zip(out, image))
    return out


def fp_basis(code):
    """The generator rows of ``code`` times each p^d, row-major, digit inner."""
    f = code.field
    return [tuple(f.mul(f.p ** d, x) for x in row) for row in code.gen for d in range(f.degree)]


# --- tuple linear algebra -------------------------------------------------
# Gauss-Jordan on lists of tuples over any field, one Field call per entry:
# the reference the packed echelon of ``qbh.linalg`` is held against.


def rref(field, rows):
    """Reduced row echelon form. Returns (nonzero rows, pivot columns)."""
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    pivots = []
    rank = 0
    for col in range(len(mat[0])):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = field.inv(mat[rank][col])
        mat[rank] = [field.mul(inv, x) for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                c = mat[i][col]
                mat[i] = [field.add(x, field.neg(field.mul(c, y))) for x, y in zip(mat[i], mat[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(mat):
            break
    return [tuple(r) for r in mat[:rank]], pivots


def rank(field, rows):
    return len(rref(field, rows)[0])


def nullspace(field, rows, ncols):
    """Canonical basis of {x : rows . x = 0}, returned in RREF."""
    rrows, pivots = rref(field, rows)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [0] * ncols
        vec[free] = 1
        for row, col in zip(rrows, pivots):
            if row[free]:
                vec[col] = field.neg(row[free])
        basis.append(tuple(vec))
    return rref(field, basis)[0]


def solve(field, rows, rhss):
    """One solution of rows . x = rhs per rhs, free unknowns 0, or None."""
    ncols = len(rows[0])
    rrows, pivots = rref(field, [tuple(r) + tuple(b) for r, b in zip(rows, zip(*rhss))])
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
