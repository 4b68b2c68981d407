"""The packed echelon of ``qbh.linalg`` against tuple Gauss-Jordan, and the
one F_p path every elimination of the package takes."""

import collections

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbh import linalg
from qbh.construct import build, distance, distance_bruteforce
from qbh.gf import Field, _is_prime, _lane_adder, _lane_pack, _lane_width, _lanes_vec, field_make
from qbh.lincode import code_make, iter_codewords
from qbh.statevec import big_phi, fix_dim, stab_of_span

import oracles
from test_construct import mixed_presentation

PRIMES = [2, 3, 5, 7, 65521]


@st.composite
def matrices(draw):
    """(p, rows, ncols): empty, zero, full-rank, wide and tall matrices over F_p."""
    p = draw(st.sampled_from(PRIMES))
    ncols = draw(st.integers(1, 7))
    shape = draw(st.sampled_from(["any", "zero", "identity", "wide", "tall"]))
    entry = st.integers(0, p - 1)
    count = {"any": st.integers(0, 8), "zero": st.integers(0, 4), "identity": st.just(ncols),
             "wide": st.integers(0, max(0, ncols - 2)), "tall": st.integers(ncols + 1, ncols + 4)}
    nrows = draw(count[shape])
    if shape == "zero":
        return p, [(0,) * ncols for _ in range(nrows)], ncols
    if shape == "identity":
        return p, [tuple(int(i == j) for j in range(ncols)) for i in range(ncols)], ncols
    return p, [tuple(draw(entry) for _ in range(ncols)) for _ in range(nrows)], ncols


def pack(p, rows):
    return [_lane_pack(r, _lane_width(p)) for r in rows]


def unpack(p, ncols, rows):
    return [_lanes_vec(field_make(p, 1), ncols, x) for x in rows]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 6), st.data())
def test_lincomb_is_the_digit_weighted_sum_of_its_units(p, lanes, data):
    # zero digits and digits up to p - 1, against lane-wise arithmetic
    # mod p and against a per-digit double-and-add sum
    count = data.draw(st.integers(0, 6))
    units = [data.draw(st.lists(st.integers(0, p - 1), min_size=lanes, max_size=lanes))
             for _ in range(count)]
    digits = data.draw(st.lists(st.integers(0, p - 1), min_size=count, max_size=count))
    add = _lane_adder(p, lanes)
    got = linalg.lincomb(add, pack(p, units), digits)
    lanewise = [sum(d * u[i] for d, u in zip(digits, units)) % p for i in range(lanes)]
    assert got == pack(p, [lanewise])[0]
    times = 0
    for d, u in zip(digits, pack(p, units)):
        if d:
            times = add(times, linalg._times(add, u, d))
    assert got == times


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_echelon_and_kernel_match_tuple_gauss_jordan(case):
    p, rows, ncols = case
    f = field_make(p, 1)
    ech = linalg.Echelon(p, ncols, pack(p, rows))
    want, pivots = oracles.rref(f, rows)
    assert unpack(p, ncols, ech.rows) == want
    assert ech.pivots == pivots
    assert unpack(p, ncols, ech.kernel(ncols)) == oracles.nullspace(f, rows, ncols)
    # reduce clears the pivot lanes and moves x only within the row space
    for x in rows[:3]:
        y = _lanes_vec(f, ncols, ech.reduce(_lane_pack(x[::-1], _lane_width(p))))
        assert all(y[c] == 0 for c in pivots)
        assert oracles.rank(f, want + [y]) == oracles.rank(f, want + [x[::-1]])


@settings(max_examples=150, deadline=None)
@given(matrices(), st.data())
def test_solve_matches_tuple_gauss_jordan(case, data):
    p, rows, ncols = case
    f, w = field_make(p, 1), _lane_width(p)
    count = data.draw(st.integers(1, 4))
    rhss = [tuple(data.draw(st.integers(0, p - 1)) for _ in rows) for _ in range(count)]
    if rhss and rows and data.draw(st.booleans()):
        # a right-hand side in the column space: always consistent
        x = [data.draw(st.integers(0, p - 1)) for _ in range(ncols)]
        rhss[0] = tuple(sum(a * b for a, b in zip(r, x)) % p for r in rows)
    aug = [_lane_pack(r + col, w) for r, col in zip(rows, zip(*rhss))]
    got = [None if x is None else _lanes_vec(f, ncols, x)
           for x in linalg.Echelon(p, ncols + count, aug).solutions(ncols, count)]
    if not rows:  # no equations: every system holds, with every unknown free
        assert got == [(0,) * ncols] * count
        return
    assert got == oracles.solve(f, rows, rhss)
    for x, b in zip(got, rhss):
        if x is not None:
            assert [sum(a * y for a, y in zip(r, x)) % p for r in rows] == list(b)


def test_solve_reports_an_inconsistent_system_as_none():
    # x + y = 1 and x + y = 0 over F_3 fail; x + y = 2 twice holds, y free
    rows = [(1, 1), (1, 1)]
    rhss = [(1, 0), (2, 2)]
    aug = [_lane_pack(r + col, _lane_width(3)) for r, col in zip(rows, zip(*rhss))]
    got = linalg.Echelon(3, 4, aug).solutions(2, 2)
    assert got[0] is None and _lanes_vec(field_make(3, 1), 2, got[1]) == (2, 0)


def small_pairs():
    """One (C, D) pair over each of F_2, F_3 and F_4."""
    for p, r in [(2, 1), (3, 1), (2, 2)]:
        f = field_make(p, r)
        yield code_make(f, [(1, 1, 0), (0, 1, 1)] if r == 1 else [(1, 2)]), \
            code_make(field_make(p, r * (2 if r == 1 else 1)), [(1, 1)])


@pytest.mark.parametrize("pair", list(small_pairs()), ids=["F2", "F3", "F4"])
def test_every_elimination_is_packed_over_a_prime_field(monkeypatch, pair):
    # No tuple elimination is left in linalg, and none runs elsewhere: Field
    # inversion, which Gauss-Jordan on field elements needs, fails; every
    # echelon gets packed int rows over F_p, and kernels and solutions are
    # read off an echelon, with no wrapper of their own.
    assert not {"rref", "nullspace", "rank", "reduce_vector", "kernel", "solve"} & set(vars(linalg))
    c_code, d_code = pair
    calls = collections.Counter()

    def packed(name, real):
        def run(p, lanes, rows=(), *rest):
            rows = list(rows)
            assert _is_prime(p) and all(type(x) is int for x in rows), name
            calls[name] += 1
            return real(p, lanes, rows, *rest)
        return run

    def refuse(*args):
        raise AssertionError("Gauss-Jordan on field elements")

    # the state bases take rows that are reduced already: checked, not eliminated
    reduced = packed("of_reduced", linalg.Echelon.of_reduced)
    monkeypatch.setattr(linalg, "Echelon", packed("Echelon", linalg.Echelon))
    linalg.Echelon.of_reduced = reduced
    monkeypatch.setattr(Field, "inv", refuse)
    sc = build(c_code, d_code)
    assert distance_bruteforce(sc) == distance(sc)
    assert distance_bruteforce(mixed_presentation(sc)) == sc.delta
    assert fix_dim(sc) == c_code.field.order ** sc.log_dim_exp
    states = [big_phi(c_code, d_code, sc.table, w) for w in iter_codewords(d_code)]
    assert len(stab_of_span(states)) > 0
    assert set(calls) == {"Echelon", "of_reduced"}
