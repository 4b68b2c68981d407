"""Seeded inputs, jobs and output checks for the three benchmark workloads.

Every workload is a fixed list of jobs.  ``generate(workload, seed)``
draws the inputs; the program under test only ever sees those inputs
(code generator rows, matrix rows, code files).  A job returns plain
outputs, and the ``check_*`` functions judge them after the timed
interval, so checking never counts as work.

Codes are drawn in systematic form [I | A] with A uniform over the
field and redrawn until d >= 2.  For a systematic generator a weight-1
codeword exists exactly when some row of A is zero, so the redraw rule
needs no field arithmetic.  Outer codes D are also redrawn until every
coordinate is live (no zero column of A), which the construction needs.
With d(C) >= 2 and d(D) >= 2 every code has delta >= 2, the brute-force
walk never stops early, and a job's cost depends on its parameters only.
"""

from __future__ import annotations

import itertools
import random

from qbh.bh import BhMatrix, bh_verify, kron_fourier, linear_rows_check
from qbh.construct import (
    build,
    distance,
    distance_bruteforce,
    stab_from_text,
    stab_to_text,
    verify_generators,
)
from qbh.errors import QbhError
from qbh.gf import field_make
from qbh.lincode import code_make, iter_codewords
from qbh.statevec import apply, big_phi, big_phi_from_matrix, fix_dim, stab_of_span

WORKLOADS = ("certify", "construct-cold", "span-stabilizer")

# The CLI's default enumeration budget, pinned so the workload does not
# move if that default changes.
BRUTE_BUDGET = 1 << 22

# certify: the acceptance-family grid, capped so state spaces stay exact.
LABEL_CAP = 1 << 16
CERTIFY_STRIDE = 7  # coprime to the 39 grid jobs

# construct-cold rungs as (p, r, k, m, s); C is [k + 2, k] over F_{p^r},
# so the scalar field K is GF(p^{rk}), and D is [m, s] over K.  GF(2^14)
# is left out: one job costs 8-11 s, close to the ten other rungs
# together, so the pass time would follow the noise of a single process.
COLD_RUNGS = (
    (3, 1, 6, 2, 1),
    (3, 1, 7, 2, 1),
    (3, 1, 8, 2, 1),
    (2, 1, 8, 2, 1),
    (2, 1, 8, 3, 2),
    (2, 1, 9, 2, 1),
    (2, 1, 10, 2, 1),
    (2, 1, 12, 2, 1),
    (2, 2, 4, 2, 1),
    (2, 2, 6, 2, 1),
)

# Reference delta of every construct-cold rung, recorded at the commit
# that introduced this benchmark.  It holds for every seed: an [k+2, k]_q
# code with these parameters has d(C) <= 2 by the Hamming bound, the
# redraw gives d(C) >= 2, and ell >= d(D) >= 2, so delta = min(d(C), ell)
# = 2.
COLD_REFERENCE_DELTA = 2

# |stab| recorded at the commit that introduced this benchmark.  Every
# order-4 column permutation keeps the full group, and so does the
# order-8 Fourier matrix; neither depends on the seed.
SPAN_ORDER4_STAB = 16
SPAN_FOURIER8_STAB = 32


def _systematic(rng, q, k, n, live_columns):
    """[I_k | A] with A uniform over F_q, redrawn until d >= 2 (and, if
    asked, until no coordinate is identically zero)."""
    while True:
        a = [[rng.randrange(q) for _ in range(n - k)] for _ in range(k)]
        if not all(any(row) for row in a):
            continue
        if live_columns and not all(any(col) for col in zip(*a)):
            continue
        return [
            tuple(1 if j == i else 0 for j in range(k)) + tuple(a[i])
            for i in range(k)
        ]


def _rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


def certify_grid():
    """(p, r, n, k, m, s) for every member of the acceptance family."""
    out = []
    for p in (2, 3):
        for r in (1, 2):
            for n in range(2, 5):
                for k in range(1, n):
                    for m in (2, 3):
                        for s in range(1, m):
                            if (p ** r) ** (n * m) <= LABEL_CAP:
                                out.append((p, r, n, k, m, s))
    return out


def generate(workload, seed):
    """The job list of a workload; the same seed gives the same jobs."""
    rng = _rng(workload, seed)
    if workload == "certify":
        jobs = []
        for p, r, n, k, m, s in certify_grid():
            jobs.append({
                "p": p, "r": r, "n": n, "k": k, "m": m, "s": s,
                "c_rows": _systematic(rng, p ** r, k, n, False),
                "d_rows": _systematic(rng, p ** (r * k), s, m, True),
            })
        # The grid runs from cheap to costly; a fixed stride order spreads
        # the light jobs over the whole pass, so their latency percentiles
        # do not all sample the same few seconds of machine speed.
        return [jobs[i * CERTIFY_STRIDE % len(jobs)] for i in range(len(jobs))]
    if workload == "construct-cold":
        jobs = []
        for p, r, k, m, s in COLD_RUNGS:
            n = k + 2
            jobs.append({
                "p": p, "r": r, "n": n, "k": k, "m": m, "s": s,
                "c_rows": _systematic(rng, p ** r, k, n, False),
                "d_rows": _systematic(rng, p ** (r * k), s, m, True),
            })
        return jobs
    if workload == "span-stabilizer":
        # Every order-4 column scramble, in seeded order, with the order-8
        # Fourier matrix in the middle of the pass.  Order-8 scrambles are
        # left out: each costs 13-17 s, as much as the rest of the pass.
        four = kron_fourier(2, 2)
        light = [_span_job(four, perm, [(1, 0, 1), (0, 1, 1)])
                 for perm in itertools.permutations(range(4))]
        rng.shuffle(light)
        eight = kron_fourier(2, 3)
        heavy = _span_job(eight, tuple(range(8)), [(1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1)])
        half = len(light) // 2
        return light[:half] + [heavy] + light[half:]
    raise ValueError(f"unknown workload {workload!r}")


def _span_job(base, perm, c_rows):
    return {
        "order": base.order,
        "perm": perm,
        "rows": [tuple(row[j] for j in perm) for row in base.rows],
        "labels": base.col_labels,
        "c_rows": c_rows,
    }


def code_text(p, t, n, rows):
    """A code file for generator rows over GF(p^t), default modulus."""
    lines = [f"{p} {t} {n} {len(rows)}"]
    lines += [" ".join(str(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def warm_fields(jobs):
    """Build every field the in-process jobs use (part of set-up)."""
    for job in jobs:
        if "r" in job:
            field_make(job["p"], job["r"])
            field_make(job["p"], job["r"] * job["k"])
        else:
            field_make(2, 1)


# --- jobs -----------------------------------------------------------------


def certify_job(job):
    """Build, certify three ways and export one code pair."""
    p, r, k = job["p"], job["r"], job["k"]
    c_code = code_make(field_make(p, r), job["c_rows"])
    d_code = code_make(field_make(p, r * k), job["d_rows"])
    sc = build(c_code, d_code)
    delta = distance(sc)
    parsed = stab_from_text(stab_to_text(sc))
    brute = distance_bruteforce(parsed, budget=BRUTE_BUDGET)
    dim = fix_dim(parsed)
    states = [big_phi(c_code, d_code, sc.table, w) for w in iter_codewords(d_code)]
    moved = sum(
        1 for st in states for g in parsed.generators if apply(g, st) != st
    )
    return {
        "delta": delta, "stored": parsed.delta, "brute": brute,
        "fix_dim": dim, "states": len(states), "moved": moved,
        "generators": len(parsed.generators),
    }


def span_job(job):
    """Check one scrambled BH matrix and find the stabilizer of its span."""
    matrix = BhMatrix(job["order"], 2, job["rows"], col_labels=job["labels"])
    is_bh = bh_verify(matrix)
    linear = linear_rows_check(matrix)
    code = code_make(field_make(2, 1), job["c_rows"])
    states = [big_phi_from_matrix(matrix, code, (d, d)) for d in range(job["order"])]
    return {"bh": is_bh, "linear": linear, "states": states, "stab": stab_of_span(states)}


# --- checks ---------------------------------------------------------------


def check_certify(job, out):
    """Problems with a certify job's outputs; empty means correct."""
    p, r, n, k, m, s = (job[x] for x in "prnkms")
    q = p ** r
    problems = []
    if not out["delta"] == out["brute"] == out["stored"]:
        problems.append(
            f"closed form {out['delta']}, brute force {out['brute']},"
            f" export {out['stored']} disagree"
        )
    if out["fix_dim"] != q ** (k * s):
        problems.append(f"fix_dim {out['fix_dim']} != q^ks = {q ** (k * s)}")
    if out["states"] != q ** (k * s):
        problems.append(f"{out['states']} code states, want {q ** (k * s)}")
    if out["moved"]:
        problems.append(f"{out['moved']} (generator, state) pairs move the state")
    if out["generators"] != r * (n * m - k * s):
        problems.append(f"{out['generators']} generators, want {r * (n * m - k * s)}")
    return problems


def check_cold(job, returncode, stdout, export_text):
    """Problems with one ``qbh construct`` run; empty means correct."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        fields = dict(item.split("=") for item in stdout.split())
        n_out, k_out, delta = int(fields["N"]), int(fields["K"]), int(fields["delta"])
    except (ValueError, KeyError):
        return [f"unreadable output {stdout!r}"]
    problems = []
    if (n_out, k_out) != (job["n"] * job["m"], job["k"] * job["s"]):
        problems.append(f"N={n_out} K={k_out} do not match the parameters")
    if delta != COLD_REFERENCE_DELTA:
        problems.append(f"delta={delta}, reference {COLD_REFERENCE_DELTA}")
    try:
        parsed = stab_from_text(export_text)
    except (ValueError, QbhError) as exc:
        return problems + [f"export does not parse: {exc}"]
    if parsed.delta != delta:
        problems.append(f"export stores delta {parsed.delta}, printed {delta}")
    problems += [f"export: {msg}" for msg in verify_generators(parsed)]
    return problems


def _fixes(e, state):
    """Does i^c X(a) Z(b) fix the binary state exactly?

    Written out independently of ``qbh.statevec.apply``: the label x
    moves to x + a and picks up i^(c + 2 b.x).
    """
    for x, amp in state.amps.items():
        y = tuple((xi + ai) % 2 for xi, ai in zip(x, e.a))
        target = state.amps.get(y)
        if target is None:
            return False
        re, im = amp.coeffs
        for _ in range((e.phase + 2 * sum(bi * xi for bi, xi in zip(e.b, x))) % 4):
            re, im = -im, re
        if target.coeffs != (re, im):
            return False
    return True


def check_span(job, out):
    """Problems with a span-stabilizer job's outputs; empty means correct."""
    problems = []
    order, perm, stab = job["order"], job["perm"], out["stab"]
    if not out["bh"]:
        problems.append("a column scramble of a BH matrix failed bh_verify")
    if perm == tuple(range(order)) and not out["linear"]:
        problems.append("the Fourier matrix failed linear_rows_check")
    bad = sum(1 for e in stab for st in out["states"] if not _fixes(e, st))
    if bad:
        problems.append(f"{bad} (element, state) pairs are not fixed")
    n_len = len(job["c_rows"][0])
    bound = 2 ** (2 * n_len - len(job["c_rows"]))
    size = len(stab)
    if size < 1 or size & (size - 1) or size > bound:
        problems.append(f"|stab| = {size} is not a power of 2 at most {bound}")
    want = SPAN_ORDER4_STAB if order == 4 else SPAN_FOURIER8_STAB
    if size != want:
        problems.append(f"|stab| = {size}, recorded {want}")
    return problems
