"""Acceptance gate.

One test per shipped guarantee.  Each prints a single line

    acceptance NN: PASS|FAIL - detail

(visible under ``pytest -s``) before asserting, so a full run always
shows the verdict for every criterion.  Test 08 is the converse
evidence for normalized BH matrices.  At order 4 it cannot occur:
|AGL(2,2)| = 24 = 4!, so every column scramble is an affine relabeling
that the span absorbs, and the span stabilizer keeps all 2^(nm-ks)
elements.  At order 8 a normalized scramble gives a span whose
stabilizer has 8 < 32 elements and fixes a 32-dimensional space, so the
span sits strictly inside that fixed space and is not a stabilizer code.
"""

import itertools
import time

from qbh.errors import DEFAULT_BUDGET
from qbh.gf import field_make
from qbh.lincode import code_make, iter_codewords, min_distance
from qbh.functional import big_f_kernel, table_make, table_matrix
from qbh.pauli import PauliElement, detectable, swt
from qbh.construct import build, distance, distance_bruteforce
from qbh.statevec import (
    CycAmp,
    apply,
    big_phi,
    big_phi_from_matrix,
    fix_dim,
    inner,
    phi,
    stab_of_span,
)
from qbh.bh import (
    BhMatrix,
    bh_verify,
    form_matrix,
    kron_fourier,
    linear_rows_check,
    normalize,
    row_equivalence,
)

import helpers
import oracles
from oracles import equal_sum_states, span_equal
import test_lemmas as lemmas
from test_bh import invertible_grams
from test_construct import STANDARD_SHOR, rowspace
from test_functional import kernel_span_contains

F2 = field_make(2, 1)


def _line(num, failures, detail):
    verdict = "PASS" if not failures else "FAIL"
    print(f"acceptance {num:02d}: {verdict} - {detail}")


def test_acceptance_01_shor_reproduction():
    t0 = time.monotonic()
    failures = []
    sc = build(*helpers.shor_pair())
    params = (sc.num_qudits, sc.log_dim_exp, distance(sc))
    if params != (9, 1, 3):
        failures.append(f"parameters {params}, want (9, 1, 3)")
    x_gens = [g for g in sc.generators if any(g.a)]
    z_gens = [g for g in sc.generators if any(g.b)]
    if (len(x_gens), len(z_gens)) != (2, 6):
        failures.append(f"generator split {len(x_gens)} X / {len(z_gens)} Z")
    standard = [a + b for a, b in STANDARD_SHOR]
    if rowspace(F2, sc.sympl_matrix) != rowspace(F2, standard):
        failures.append("row space differs from the standard Shor stabilizer")
    elapsed = time.monotonic() - t0
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, bound 1s")
    _line(1, failures, f"[[9,1,3]]_2, 2 X + 6 Z generators, {elapsed:.2f}s")
    assert not failures, "; ".join(failures)


def test_acceptance_02_nine_qutrit_reproduction():
    t0 = time.monotonic()
    failures = []
    sc = build(*helpers.nine_qutrit_pair())
    params = (sc.field.order, sc.num_qudits, sc.log_dim_exp, distance(sc))
    if params != (3, 9, 1, 3):
        failures.append(f"parameters {params}, want (3, 9, 1, 3)")
    m = table_matrix(sc.table)
    if m.rows != ((0, 0, 0), (0, 1, 2), (0, 2, 1)):
        failures.append(f"matrix rows {m.rows}")
    if not bh_verify(m):
        failures.append("table matrix fails orthogonality")
    elapsed = time.monotonic() - t0
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, bound 1s")
    _line(2, failures, f"[[9,1,3]]_3 with the expected exponent matrix, {elapsed:.2f}s")
    assert not failures, "; ".join(failures)


def test_acceptance_03_parameter_law():
    t0 = time.monotonic()
    failures = []
    checked = 0
    for c_code, d_code, meta in helpers.family_instances():
        tag = "p{p} r{r} n{n} k{k} m{m} s{s}".format(**meta)
        sc = build(c_code, d_code)
        expected = meta["r"] * (meta["n"] * meta["m"] - meta["k"] * meta["s"])
        prime = field_make(meta["p"], 1)
        if len(sc.generators) != expected:
            failures.append(f"{tag}: {len(sc.generators)} generators, want {expected}")
            continue
        if oracles.rank(prime, sc.sympl_matrix) != expected:
            failures.append(f"{tag}: symplectic rank below {expected}")
        want_dim = meta["q"] ** (meta["k"] * meta["s"])
        if fix_dim(sc) != want_dim:
            failures.append(f"{tag}: fixed space dimension is not {want_dim}")
        states = [big_phi(c_code, d_code, sc.table, w)
                  for w in iter_codewords(d_code)]
        if len(states) != want_dim:
            failures.append(f"{tag}: {len(states)} code states, want {want_dim}")
        if not all(apply(g, st) == st for st in states for g in sc.generators):
            failures.append(f"{tag}: a code state moves under a generator")
        # Span equality: distinct code states differ in some tensor
        # factor, factors with distinct indices are orthogonal, and the
        # inner product multiplies across factors.  So the q^(ks) states
        # are pairwise orthogonal and span a q^(ks)-dimensional subspace
        # of the fixed space, which has exactly that dimension.
        K = sc.table.scalars
        phis = [phi(c_code, sc.table, lam) for lam in range(K.order)]
        for i in range(K.order):
            if inner(phis[i], phis[i]).is_zero:
                failures.append(f"{tag}: factor state {i} has zero norm")
            for j in range(i + 1, K.order):
                if not inner(phis[i], phis[j]).is_zero:
                    failures.append(f"{tag}: factors {i},{j} not orthogonal")
        for i, j in ((0, 1), (0, len(states) - 1), (1, len(states) // 2)):
            if i != j and not inner(states[i], states[j]).is_zero:
                failures.append(f"{tag}: code states {i},{j} not orthogonal")
        checked += 1
    elapsed = time.monotonic() - t0
    if elapsed >= 300.0:
        failures.append(f"took {elapsed:.1f}s, bound 300s")
    _line(3, failures, f"{checked} family instances, {elapsed:.1f}s")
    assert not failures, "; ".join(failures[:8])


def test_acceptance_04_distance_oracle_equivalence():
    t0 = time.monotonic()
    failures = []
    checked = 0
    instances = helpers.family_instances()
    for c_code, d_code, meta in instances:
        sc = build(c_code, d_code)
        got, want = distance(sc), distance_bruteforce(sc)
        if got != want:
            failures.append(
                "p{p} r{r} n{n} k{k} m{m} s{s}: ".format(**meta)
                + f"theorem {got} != brute force {want}"
            )
        checked += 1
    if checked != len(instances):
        failures.append(f"only {checked} of {len(instances)} instances checked")
    elapsed = time.monotonic() - t0
    _line(4, failures, f"{checked} instances against the centralizer walk, {elapsed:.1f}s")
    assert not failures, "; ".join(failures)


def test_acceptance_05_kernel_nullity():
    failures = []
    for c_code, d_code, meta in helpers.family_instances():
        table = table_make(c_code, d_code.field)
        want = meta["r"] * meta["k"] * (meta["m"] - meta["s"])
        got = len(big_f_kernel(table, d_code))
        if got != want:
            failures.append(
                "p{p} r{r} n{n} k{k} m{m} s{s}: ".format(**meta)
                + f"kernel dimension {got}, want {want}"
            )
    _line(5, failures, f"rk(m-s) on all {len(helpers.family_instances())} instances")
    assert not failures, "; ".join(failures)


def test_acceptance_06_corollaries():
    t0 = time.monotonic()
    failures = []
    forced = 0
    for c_code, d_code, meta in helpers.family_instances():
        dc = min_distance(c_code)
        if dc > min_distance(d_code):
            continue
        sc = build(c_code, d_code)
        if distance(sc) != dc:
            failures.append(
                "p{p} r{r} n{n} k{k} m{m} s{s}: ".format(**meta)
                + f"delta {distance(sc)} != d(C) = {dc}"
            )
        forced += 1
    span_checked = 0
    for c_code, d_code, meta in helpers.repetition_instances():
        f = c_code.field
        m = meta["m"]
        table = table_make(c_code, d_code.field)
        basis = big_f_kernel(table, d_code)
        words = list(iter_codewords(c_code))
        for tup in itertools.product(words, repeat=m):
            total = tuple(0 for _ in range(c_code.n))
            for blk in tup:
                total = tuple(f.add(t, x) for t, x in zip(total, blk))
            member = kernel_span_contains(f, basis, tup)
            if member != (not any(total)):
                failures.append(
                    "p{p} r{r} n{n} k{k} m{m}: ".format(**meta)
                    + f"kernel membership wrong at {tup}"
                )
                break
        sc = build(c_code, d_code)
        if distance(sc) != min(min_distance(c_code), m):
            failures.append(
                "p{p} r{r} n{n} k{k} m{m}: ".format(**meta)
                + f"delta {distance(sc)} != min(d(C), m)"
            )
        # span_equal bounds the elimination it runs over Q by its budget:
        # rows x columns x min(rows, columns), with deg rows per state of the
        # longer list and deg columns per state of both, deg = [Q(z):Q].
        # Each Gram entry also reads two states of |C|^m labels, hence the
        # label cap: on a 2-vCPU box with Python 3.11.7, |C| = 27, m = 2 (729
        # labels) took 0.7 s, while |C| = 64, m = 2 (4096 labels, within the
        # budget) took 7.6 s and is left out.
        deg = len(CycAmp.one(f.p).coeffs)
        rows, cols = deg * max(c_code.size, d_code.size), deg * (c_code.size + d_code.size)
        if rows * cols * min(rows, cols) <= DEFAULT_BUDGET and c_code.size ** m <= 1 << 10:
            q_states = [big_phi(c_code, d_code, sc.table, w)
                        for w in iter_codewords(d_code)]
            if not span_equal(equal_sum_states(c_code, m), q_states):
                failures.append(
                    "p{p} r{r} n{n} k{k} m{m}: ".format(**meta)
                    + "equal-sum basis spans a different space"
                )
            span_checked += 1
    if forced < 5 or span_checked < 5:
        failures.append(
            f"coverage too thin: {forced} forced-distance, {span_checked} span checks"
        )
    elapsed = time.monotonic() - t0
    _line(6, failures,
          f"{forced} forced distances, exhaustive kernels, "
          f"{span_checked} span matches, {elapsed:.1f}s")
    assert not failures, "; ".join(failures)


def test_acceptance_07_appendix_equivalences():
    t0 = time.monotonic()
    failures = []
    total = 0
    for p in (2, 3):
        for t in (1, 2, 3):
            grams = list(invertible_grams(p, t))
            if len(grams) > 200:
                step = len(grams) // 20
                grams = grams[::step]
            mats = [form_matrix(b, a) for b in grams for a in range(1, p)]
            total += len(mats)
            target = kron_fourier(p, t)
            for mm in mats:
                if row_equivalence(target, mm) is None:
                    failures.append(f"p={p} t={t}: form not Fourier-equivalent")
                    break
            for m1, m2 in itertools.combinations(mats, 2):
                if row_equivalence(m1, m2) is None:
                    failures.append(f"p={p} t={t}: two forms not row-equivalent")
                    break
    elapsed = time.monotonic() - t0
    if elapsed >= 60.0:
        failures.append(f"took {elapsed:.1f}s, bound 60s")
    _line(7, failures, f"{total} form matrices pairwise equivalent, {elapsed:.1f}s")
    assert not failures, "; ".join(failures)


def test_acceptance_08_converse_evidence():
    t0 = time.monotonic()
    failures = []
    # Order 4 cannot show the converse: |AGL(2,2)| = 4 * 6 = 24 = 4!, so
    # every column scramble of kron_fourier(2, 2) is an affine relabeling
    # x -> Ax + b.  Each scrambled row is then a sign times a Fourier row,
    # the span never moves and its stabilizer keeps all 2^(nm-ks)
    # elements.  Order 8 is the smallest order where it can occur.
    base = kron_fourier(2, 3)
    # swap the columns labelled 1 and 2; column 0 stays in place, so the
    # scrambled matrix is still normalized
    rows = [(r[0], r[2], r[1]) + r[3:] for r in base.rows]
    scrambled = BhMatrix(8, 2, rows, col_labels=base.col_labels)
    if not bh_verify(scrambled):
        failures.append("scramble broke row orthogonality")
    elif normalize(scrambled) != scrambled:
        failures.append("scrambled matrix is not normalized")
    if linear_rows_check(scrambled):
        failures.append("scrambled matrix still has linear rows")
    code = code_make(F2, [(1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1)])
    bound = 2 ** (4 * 2 - 3 * 1)

    def check(label, matrix, want_stab, want_fix):
        states = [big_phi_from_matrix(matrix, code, (d, d)) for d in range(8)]
        for i in range(8):
            for j in range(i + 1, 8):
                if not inner(states[i], states[j]).is_zero:
                    failures.append(f"{label} code states not orthogonal")
        stab = stab_of_span(states)
        dim = fix_dim(stab)
        if (len(stab), dim) != (want_stab, want_fix):
            failures.append(
                f"{label} |stab| = {len(stab)}, fix_dim = {dim}, "
                f"want {want_stab}, {want_fix}"
            )
        return len(stab), dim

    # the 8 orthogonal code states span an 8-dimensional space whose
    # stabilizer has only 8 elements, below 2^(nm-ks), and fixes a
    # 32-dimensional space: the span sits strictly inside it, so the
    # scrambled construction is not a stabilizer code
    size, dim = check("scrambled", scrambled, 8, 32)
    # Fourier control: full group, whose fixed space is exactly the span
    check("fourier", base, bound, 8)
    elapsed = time.monotonic() - t0
    if elapsed >= 120.0:
        failures.append(f"took {elapsed:.1f}s, bound 120s")
    _line(
        8,
        failures,
        f"normalized order-8 scramble, |stab| = {size} of {bound}, "
        f"fix_dim = {dim} for 8 states, {elapsed:.1f}s",
    )
    assert not failures, "; ".join(failures)


def test_acceptance_09_lemma_suite():
    failures = []
    per_instance = (
        lemmas.test_functionals_distinct_and_complete,
        lemmas.test_functionals_additive,
        lemmas.test_z_action_shifts_lambda,
        lemmas.test_z_fixes_phi_iff_dual,
        lemmas.test_lambda_of_kernel_is_the_dual,
        lemmas.test_trace_pairing_matches_the_functional,
    )
    for idx in range(len(lemmas.small_instances())):
        for fn in per_instance:
            try:
                fn(idx)
            except AssertionError as exc:
                failures.append(f"{fn.__name__}[{idx}]: {exc}")
    for field, rows, kdeg in ((lemmas.F2, [(1, 1, 1)], 1),
                              (lemmas.F3, [(1, 1, 1)], 1)):
        try:
            lemmas.test_tensor_shift_cancellation(field, rows, kdeg)
        except AssertionError as exc:
            failures.append(f"tensor shift cancellation p={field.p}: {exc}")
    singles = (
        lemmas.test_tensor_shift_recovery,
        lemmas.test_equivalent_matrices_give_the_same_span,
        lemmas.test_inequivalent_matrices_split_the_span,
        lemmas.test_span_agreement_at_order_four,
    )
    for fn in singles:
        try:
            fn()
        except AssertionError as exc:
            failures.append(f"{fn.__name__}: {exc}")
    _line(9, failures, "functional, shift, coset, and span identities, q^n <= 256")
    assert not failures, "; ".join(failures)


def _errors_of_weight_at_most(field, n, wmax):
    nz = [(a, b)
          for a in range(field.order)
          for b in range(field.order)
          if a or b]
    for w in range(1, wmax + 1):
        for pos in itertools.combinations(range(n), w):
            for choice in itertools.product(nz, repeat=w):
                a, b = [0] * n, [0] * n
                for idx, (x, y) in zip(pos, choice):
                    a[idx], b[idx] = x, y
                yield PauliElement(field, 0, tuple(a), tuple(b))


def test_acceptance_10_detectability():
    failures = []
    shor = build(*helpers.shor_pair())
    for e in _errors_of_weight_at_most(F2, 9, distance(shor) - 1):
        if not detectable(shor, e):
            failures.append(f"shor misses a weight-{swt(e)} error")
            break
    block_x = PauliElement(F2, 0, (1, 1, 1, 0, 0, 0, 0, 0, 0), (0,) * 9)
    if detectable(shor, block_x):
        failures.append("shor flags the weight-3 block X as detectable")
    four = build(*helpers.four_one_pair())
    for e in _errors_of_weight_at_most(F2, 4, distance(four) - 1):
        if not detectable(four, e):
            failures.append(f"[[4,1]] misses a weight-{swt(e)} error")
            break
    pair_x = PauliElement(F2, 0, (1, 1, 0, 0), (0, 0, 0, 0))
    if detectable(four, pair_x):
        failures.append("[[4,1]] flags the weight-2 double X as detectable")
    _line(10, failures, "all sub-distance errors detectable, weight-delta misses found")
    assert not failures, "; ".join(failures)
