"""Command-line front end.

Four subcommands: ``construct`` builds a stabilizer code from two code
files, ``distance`` reports the stored or recomputed distance with an
optional brute-force cross-check, ``verify`` re-checks a stabilizer
export, and ``bh`` bundles the Butson-Hadamard utilities.

Exit codes: 0 success, 1 a verification failed, 2 bad input.
"""

from __future__ import annotations

import argparse
import itertools
import sys

# statevec and bh are imported inside _cmd_verify and _cmd_bh: every
# process compiles what it imports, and construct and distance never
# build a state or a matrix.
from . import construct as con
from .errors import DEFAULT_BUDGET, BudgetExceeded, QbhError
from .lincode import code_from_text, iter_codewords


def _read(path: str) -> str:
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def _load_pair(args):
    code = code_from_text(_read(args.code))
    d_code = code_from_text(_read(args.d_code))
    return code, d_code


def _rebuild(args, sc):
    """The code built from -c and -d, or None when neither is given.

    Both files must be given, and the pair must generate the same
    stabilizer group as the export ``sc``, whatever generators it lists.
    """
    if not (args.code or args.d_code):
        return None
    if not (args.code and args.d_code):
        raise ValueError("-c and -d must be given together")
    rebuilt = con.build(*_load_pair(args))
    if not rebuilt.same_row_space(sc):
        raise ValueError("classical codes do not generate this stabilizer file")
    return rebuilt


def _cmd_construct(args) -> int:
    code, d_code = _load_pair(args)
    sc = con.build(code, d_code)
    delta = con.distance(sc, args.budget)
    with open(args.out, "w", encoding="ascii") as fh:
        fh.write(con.stab_to_text(sc))
    print(f"N={sc.num_qudits} K={sc.log_dim_exp} delta={delta}")
    return 0


def _print_problems(sc) -> bool:
    """Print a fail line for each problem of the generator list; True if any."""
    problems = con.verify_generators(sc)
    for msg in problems:
        print(f"fail: {msg}")
    return bool(problems)


def _cmd_distance(args) -> int:
    sc = con.stab_from_text(_read(args.stab))
    rebuilt = _rebuild(args, sc)
    if _print_problems(sc):
        return 1
    if rebuilt is not None:
        sc = rebuilt
        con.distance(sc, args.budget)
    if sc.delta is None:
        print("error: no stored distance; pass -c and -d to recompute",
              file=sys.stderr)
        return 2
    if not args.brute:
        print(f"delta={sc.delta}")
        return 0
    brute = con.distance_bruteforce(sc, budget=args.budget)
    verdict = "OK" if brute == sc.delta else "MISMATCH"
    print(f"theorem={sc.delta} brute={brute} {verdict}")
    return 0 if verdict == "OK" else 1


def _cmd_verify(args) -> int:
    sc = con.stab_from_text(_read(args.stab))
    rebuilt = _rebuild(args, sc)
    if _print_problems(sc):
        return 1
    print(f"generators={len(sc.generators)} commuting=yes rank=full phases=free")
    if rebuilt is not None:
        print("pair=match")
    if not args.statevec:
        return 0
    from . import statevec as sv

    expected = sc.field.order ** sc.log_dim_exp
    fd = sv.fix_dim(sc, args.budget)
    print(f"fix_dim={fd} expected={expected}")
    if fd != expected:
        return 1
    if rebuilt is not None:
        code, d_code = rebuilt.code, rebuilt.d_code
        slots = d_code.size * code.size ** d_code.n  # q^(ks) states of |C|^m slots
        if slots > args.budget:
            raise BudgetExceeded("code state slots", slots, args.budget)
        states = [
            sv.big_phi(code, d_code, rebuilt.table, lam_word)
            for lam_word in iter_codewords(d_code)
        ]
        fixed = all(sv.is_fixed(g, st) for st in states for g in sc.generators)
        print(f"phi_fixed={'yes' if fixed else 'no'}")
        if not fixed:
            return 1
        # Pairwise orthogonal fixed states span a subspace of the fixed
        # space of dimension len(states) = |D| = q^(ks), which fd equals
        # here, so they span all of it.  The code states are tensor
        # products of phi states and distinct words of D differ in some
        # block, so their inner products factor blockwise: the q^k
        # single-block states decide orthogonality.
        blocks = [sv.phi(code, rebuilt.table, lam) for lam in d_code.field.elements()]
        equal = all(sv.inner(x, y).is_zero for x, y in itertools.combinations(blocks, 2))
        print(f"span_equal={'yes' if equal else 'no'}")
        if not equal:
            return 1
    return 0


def _cmd_bh(args) -> int:
    from .bh import (BilinearForm, bh_from_text, bh_to_text, bh_verify, form_matrix,
                     kron_fourier, linear_rows_check, row_equivalence)

    m1 = bh_from_text(_read(args.matrix))
    if args.action == "verify":
        ok = bh_verify(m1)
        print(f"bh={'true' if ok else 'false'}")
        return 0 if ok else 1
    if args.action == "equiv":
        if not args.matrix2:
            print("error: equiv needs a second matrix file", file=sys.stderr)
            return 2
        m2 = bh_from_text(_read(args.matrix2))
        result = row_equivalence(m1, m2)
        if result is None:
            print("not row-equivalent")
            return 1
        perm, shifts = result
        print("perm: " + " ".join(str(x) for x in perm))
        print("shifts: " + " ".join(str(x) for x in shifts))
        return 0
    if args.action == "fourier-check":
        ok = linear_rows_check(m1)
        print(f"linear_rows={'true' if ok else 'false'}")
        return 0 if ok else 1
    # action == "form": the file holds a Gram matrix; emit its BH matrix
    t = m1.order
    gram = [list(row) for row in m1.rows]
    form = BilinearForm(m1.p, gram)
    built = form_matrix(form, 1)
    reference = kron_fourier(m1.p, t)
    equivalent = row_equivalence(reference, built) is not None
    sys.stdout.write(bh_to_text(built))
    print(f"fourier_equivalent={'true' if equivalent else 'false'}")
    return 0 if equivalent else 1


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbh",
        description="stabilizer codes from classical codes and BH matrices",
    )
    parser.add_argument(
        "--budget", type=int, default=DEFAULT_BUDGET,
        help="work limit of every enumeration, each in its own unit (default 2^22)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_con = sub.add_parser("construct", help="build a stabilizer code from C and D")
    p_con.add_argument("-c", "--code", required=True, help="inner code file")
    p_con.add_argument("-d", "--d-code", required=True, help="outer code file")
    p_con.add_argument("-o", "--out", required=True, help="stabilizer output file")

    p_dist = sub.add_parser("distance", help="distance of a stabilizer export")
    p_dist.add_argument("stab", help="stabilizer file")
    p_dist.add_argument("--brute", action="store_true",
                        help="cross-check against centralizer enumeration")
    p_dist.add_argument("-c", "--code", help="inner code file (recompute)")
    p_dist.add_argument("-d", "--d-code", help="outer code file (recompute)")

    p_ver = sub.add_parser("verify", help="re-check a stabilizer export")
    p_ver.add_argument("stab", help="stabilizer file")
    p_ver.add_argument("--statevec", action="store_true",
                       help="also check the fixed space at desk scale")
    p_ver.add_argument("-c", "--code", help="inner code file (state checks)")
    p_ver.add_argument("-d", "--d-code", help="outer code file (state checks)")

    p_bh = sub.add_parser("bh", help="Butson-Hadamard utilities")
    p_bh.add_argument("action", choices=["verify", "equiv", "fourier-check", "form"])
    p_bh.add_argument("matrix", help="matrix file")
    p_bh.add_argument("matrix2", nargs="?", help="second matrix file (equiv)")

    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    if args.budget <= 0:
        print("error: budget must be positive", file=sys.stderr)
        return 2
    handler = {
        "construct": _cmd_construct,
        "distance": _cmd_distance,
        "verify": _cmd_verify,
        "bh": _cmd_bh,
    }[args.command]
    try:
        return handler(args)
    except (QbhError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
