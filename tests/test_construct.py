"""Stabilizer code assembly, exact distances, centralizers, wire format."""

import contextlib
import itertools
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbh.errors import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    DegenerateD,
    DimensionBounds,
    DimensionMismatch,
    LengthMismatch,
)
from qbh.gf import _lane_adder, _lane_dot, _lane_pack, _lane_width, _lanes_vec, _vec_lanes, field_make
from qbh.lincode import code_make, contains, dual, fp_basis, iter_codewords
from qbh.functional import table_make
from qbh.pauli import PauliElement, mul, psi, symp_ip, x_op, z_op
from qbh import construct, functional, linalg, lincode
from qbh.statevec import fix_dim
from qbh.construct import (
    StabilizerCode,
    build,
    centralizer_basis,
    distance,
    distance_bruteforce,
    ell,
    stab_from_text,
    stab_to_text,
    verify_generators,
)

import helpers
import oracles

F2 = field_make(2, 1)
F3 = field_make(3, 1)

STANDARD_SHOR = [
    # six double-Z checks
    ((0,) * 9, (1, 1, 0, 0, 0, 0, 0, 0, 0)),
    ((0,) * 9, (0, 1, 1, 0, 0, 0, 0, 0, 0)),
    ((0,) * 9, (0, 0, 0, 1, 1, 0, 0, 0, 0)),
    ((0,) * 9, (0, 0, 0, 0, 1, 1, 0, 0, 0)),
    ((0,) * 9, (0, 0, 0, 0, 0, 0, 1, 1, 0)),
    ((0,) * 9, (0, 0, 0, 0, 0, 0, 0, 1, 1)),
    # two six-fold X checks
    ((1, 1, 1, 1, 1, 1, 0, 0, 0), (0,) * 9),
    ((0, 0, 0, 1, 1, 1, 1, 1, 1), (0,) * 9),
]


def rowspace(field, rows):
    reduced, _ = oracles.rref(field, rows)
    return tuple(reduced)


def test_build_shor_parameters():
    sc = build(*helpers.shor_pair())
    assert sc.num_qudits == 9
    assert sc.log_dim_exp == 1
    assert len(sc.generators) == 8
    x_gens = [g for g in sc.generators if any(g.a)]
    z_gens = [g for g in sc.generators if any(g.b)]
    assert len(x_gens) == 2 and len(z_gens) == 6
    assert all(g.phase == 0 for g in sc.generators)


def test_build_shor_rowspace_is_the_standard_one():
    sc = build(*helpers.shor_pair())
    standard = [a + b for a, b in STANDARD_SHOR]
    assert rowspace(F2, sc.sympl_matrix) == rowspace(F2, standard)


def test_build_nine_qutrit():
    sc = build(*helpers.nine_qutrit_pair())
    assert sc.field.order == 3
    assert sc.num_qudits == 9
    assert sc.log_dim_exp == 1
    assert len(sc.generators) == 8
    assert distance(sc) == 3


def test_build_four_one():
    sc = build(*helpers.four_one_pair())
    assert sc.num_qudits == 4
    assert sc.log_dim_exp == 1
    assert len(sc.generators) == 3
    assert distance(sc) == 2


def test_generator_shape_matches_the_construction():
    c_code, d_code, meta = helpers.family_instances()[5]
    sc = build(c_code, d_code)
    dual_c = dual(c_code)
    for g in sc.generators:
        assert g.phase == 0
        # one-sided generators: pure X rows from the kernel, pure Z rows
        # from dual words in a single block
        assert not (any(g.a) and any(g.b))
        for i in range(meta["m"]):
            block = g.b[i * meta["n"]:(i + 1) * meta["n"]]
            if any(block):
                assert contains(dual_c, block)


def test_build_rejects_full_dimension_inner_code():
    full = code_make(F2, [(1, 0), (0, 1)])
    d = code_make(field_make(2, 2), [(1, 1)])
    with pytest.raises(DimensionBounds):
        build(full, d)


def test_build_rejects_wrong_scalar_field():
    c = code_make(F2, [(1, 1, 1)])  # k = 1, needs K = F_2
    d = code_make(field_make(2, 2), [(1, 1)])
    with pytest.raises(DimensionMismatch):
        build(c, d)


@pytest.mark.parametrize("corrupt", [
    lambda kern: kern[:-1],  # one X-type generator dropped
    lambda kern: kern[:-1] + kern[:1],  # one repeated: full count, rank short
], ids=["dropped", "repeated"])
def test_build_rejects_a_corrupt_kernel(monkeypatch, corrupt):
    real = construct.big_f_kernel
    monkeypatch.setattr(construct, "big_f_kernel", lambda t, d: corrupt(real(t, d)))
    with pytest.raises(ArithmeticError, match="symplectic rank .*; construction data corrupt"):
        build(*helpers.nine_qutrit_pair())


def test_build_rejects_degenerate_outer_code():
    c = code_make(F2, [(1, 1, 1)])
    d = code_make(F2, [(1, 0)])
    with pytest.raises(DegenerateD):
        build(c, d)


def test_distance_examples():
    assert distance(build(*helpers.shor_pair())) == 3
    assert distance(build(*helpers.nine_qutrit_pair())) == 3
    assert distance(build(*helpers.four_one_pair())) == 2


def test_ell_examples():
    c, d = helpers.shor_pair()
    t = table_make(c, d.field)
    assert ell(c, d, t) == 3
    c3, d3 = helpers.nine_qutrit_pair()
    t3 = table_make(c3, d3.field)
    assert ell(c3, d3, t3) == 3
    c2 = code_make(F2, [(1, 1, 1)])
    d2 = code_make(F2, [(1, 1)])
    t2 = table_make(c2, F2)
    assert ell(c2, d2, t2) == 2
    assert distance(build(c2, d2)) == 2


@pytest.mark.parametrize("p, r, n, k", [
    (2, 1, 5, 3),  # GF(2) < GF(8)
    (3, 1, 4, 2),  # GF(3) < GF(9)
    (2, 2, 4, 2),  # GF(4) < GF(16)
    (3, 2, 4, 2),  # GF(9) < GF(81)
])
def test_leader_weights_match_the_coset_leader_oracle(monkeypatch, p, r, n, k):
    f = field_make(p, r)
    code = helpers.pattern_code(f, n, k)
    table = table_make(code, field_make(p, r * k))
    dual_words = tuple(iter_codewords(dual(code)))
    calls, lambda_of = [], type(table).lambda_of
    monkeypatch.setattr(type(table), "lambda_of", lambda t, x: calls.append(x) or lambda_of(t, x))
    weights = construct._leader_weights(table)
    # the steps are the F_p-combinations of the images of the n r digit units
    assert sorted(calls) == sorted(tuple(f.p ** d if i == j else 0 for i in range(n))
                                   for j in range(n) for d in range(r))
    assert len(weights) == table.scalars.order
    want = [oracles.coset_leader_weight_oracle(f, dual_words, table.theta(lam))
            for lam in table.scalars.elements()]
    assert weights == want
    # capped: exact below ``below``, ``below`` elsewhere
    for below in range(1, n + 2):
        assert construct._leader_weights(table, below) == [min(w, below) for w in want]


@pytest.mark.parametrize("pair", [
    lambda: (helpers.pattern_code(F2, 5, 2), helpers.pattern_code(field_make(2, 2), 4, 2)),
    lambda: (helpers.pattern_code(F3, 3, 2), helpers.pattern_code(field_make(3, 2), 3, 2)),
], ids=["binary-16-words", "ternary-81-words"])
def test_ell_walks_each_word_of_d_once(pair):
    code, d_code = pair()
    table = table_make(code, d_code.field)
    with recording_walk() as seen:
        ell(code, d_code, table)
    # the zero word first, which is skipped, then the |D| - 1 nonzero words
    assert len(seen) == d_code.size
    assert seen[0] == (0,) * d_code.n
    assert set(seen[1:]) == set(iter_codewords(d_code)) - {seen[0]}


def test_closed_form_budget_names_the_walk():
    assert DEFAULT_BUDGET == 1 << 22
    # |C| = 2^2 words and |D| = 4^2; d(C) = 4 > m = 3, so ell is decided
    # below 4 on all of D
    sc = build(*pair_with_d_c_above_m())
    with pytest.raises(BudgetExceeded, match=r"^outer code walk words: 16 requested,"
                       r" limit 8; raise it with --budget$"):
        distance(sc, budget=8)
    with pytest.raises(BudgetExceeded, match=r"^codeword walk words: 4 requested,"
                       r" limit 2; raise it with --budget$"):
        distance(sc, budget=2)
    assert sc.delta is None
    assert distance(sc, budget=16) == 2


def pair_with_d_c_above_m():
    """C = [6,2,4]_2 and D = [3,2,2]_4: d(C) > m, so the capped cover of
    D is D itself."""
    return (code_make(F2, [(1, 1, 1, 1, 0, 0), (0, 0, 1, 1, 1, 1)]),
            code_make(field_make(2, 2), [(1, 0, 1), (0, 1, 2)]))


def test_ell_rejects_a_table_of_another_code_or_scalar_field():
    code, d_code = helpers.pattern_code(F2, 5, 2), helpers.pattern_code(field_make(2, 2), 4, 2)
    # [3,1]_2 has K = F_2, not the GF(4) of D
    with pytest.raises(DimensionMismatch):
        ell(code, d_code, table_make(helpers.repetition(F2, 3), F2))
    # same tower, another code: its weights are not those of C
    other = code_make(F2, [(1, 0, 0, 1, 1), (0, 1, 1, 0, 1)])
    with pytest.raises(DimensionMismatch, match="different code"):
        ell(code, d_code, table_make(other, d_code.field))
    with pytest.raises(DimensionMismatch, match="scalar field"):
        ell(code, helpers.repetition(F2, 2), table_make(code, d_code.field))
    with pytest.raises(ValueError, match="below must be at least 1"):
        ell(code, d_code, table_make(code, d_code.field), below=0)


def test_capped_walk_visits_no_word_of_d_heavier_than_c():
    # d(D) >= d(C) = 2: no word of D has weight 1, so every D_S of one
    # coordinate is {0}
    code, d_code = helpers.pattern_code(F2, 5, 2), helpers.pattern_code(field_make(2, 2), 4, 2)
    assert lincode.min_distance(code) == 2 <= lincode.min_distance(d_code)
    sc = build(code, d_code)
    with recording_walk() as seen, counting_walk() as count, \
            mock.patch.object(construct, "_leader_weights", side_effect=AssertionError):
        assert distance(sc) == 2
    # only the min-weight walk over the 4 words of C, no word of D
    assert count == [code.size]
    assert seen == []


def test_capped_walk_visits_each_light_word_of_d_per_support():
    # D = <1000, 0111> over GF(4): its light words are the multiples of
    # 1000, which every D_S with 0 in S holds
    code = helpers.pattern_code(F2, 5, 2)
    d_code = code_make(field_make(2, 2), [(1, 0, 0, 0), (0, 1, 1, 1)])
    table = table_make(code, d_code.field)
    uncapped = ell(code, d_code, table)
    words = list(iter_codewords(d_code))
    for below, requested in ((2, 4 + 3), (3, 3 * 4 + 3)):
        per_support = [
            [w for w in words if all(j in support or not w[j] for j in range(4))]
            for support in itertools.combinations(range(4), below - 1)
        ]
        assert sum(map(len, per_support)) == requested < d_code.size
        with recording_walk() as seen:
            assert ell(code, d_code, table, below=below) == min(below, uncapped)
        assert sorted(seen) == sorted(itertools.chain.from_iterable(per_support))
    with pytest.raises(BudgetExceeded, match=r"^outer code walk words: 15 requested,"
                       r" limit 14; raise it with --budget$"):
        ell(code, d_code, table, budget=14, below=3)
    assert ell(code, d_code, table, budget=15, below=3) == min(3, uncapped)


def centralizer_pauli(sc):
    """``centralizer_basis`` unpacked to phase-0 elements X(a) Z(b)."""
    N = sc.num_qudits
    vecs = (_lanes_vec(sc.field, 2 * N, v) for v in centralizer_basis(sc))
    return [PauliElement(sc.field, 0, x[:N], x[N:]) for x in vecs]


def test_centralizer_shor():
    sc = build(*helpers.shor_pair())
    basis = centralizer_pauli(sc)
    assert len(basis) == 10
    flats = [tuple(v.a) + tuple(v.b) for v in basis]
    reduced, _ = oracles.rref(F2, flats)
    assert len(reduced) == 10
    # contains X(c, 0, 0) for the generator word of C
    target = (1, 1, 1) + (0,) * 6 + (0,) * 9
    assert oracles.rank(F2, flats + [target]) == 10
    assert all(isinstance(v, int) for v in centralizer_basis(sc))
    for v in basis:
        assert any(v.a) or any(v.b)
        for g in sc.generators:
            assert symp_ip(v, psi(g)) == 0


def test_centralizer_generic_path_matches_structural_dimension():
    # The oracle is the structural centralizer of the construction: C in
    # each block as X-parts; as Z-parts the theta lifts of an F_p-basis
    # of D and the dual words of C in each block.
    for pair in (helpers.four_one_pair(), helpers.shor_pair()):
        sc = build(*pair)
        n, m = sc.n, sc.m
        zero = (0,) * (n * m)

        def block(u, i):
            return (0,) * (n * i) + tuple(u) + (0,) * (n * (m - 1 - i))

        structural = [block(u, i) + zero for i in range(m) for u in fp_basis(sc.code)]
        structural += [
            zero + tuple(itertools.chain.from_iterable(sc.table.theta(lam) for lam in word))
            for word in fp_basis(sc.d_code)
        ]
        structural += [
            zero + block(u, i) for i in range(m) for u in fp_basis(dual(sc.code))
        ]
        expected = rowspace(F2, structural)
        assert len(expected) == sc.field.degree * (n * m + sc.k * sc.s)
        parsed = stab_from_text(stab_to_text(sc))
        assert parsed.code is None
        for code in (sc, parsed):
            flats = [tuple(v.a) + tuple(v.b) for v in centralizer_pauli(code)]
            assert rowspace(F2, flats) == expected


def test_distance_bruteforce_examples():
    sc = build(*helpers.shor_pair())
    assert distance_bruteforce(sc) == 3
    sc41 = build(*helpers.four_one_pair())
    assert distance_bruteforce(sc41) == 2
    sc3 = build(*helpers.nine_qutrit_pair())
    assert distance_bruteforce(sc3) == 3


@pytest.mark.parametrize("p", [5, 7])
def test_distance_bruteforce_repetition_pair_beyond_ternary(p):
    f = field_make(p, 1)
    sc = build(helpers.repetition(f, 2), helpers.repetition(f, 2))
    parsed = stab_from_text(stab_to_text(sc))
    assert distance(sc) == distance_bruteforce(parsed) == 2


def test_distance_bruteforce_budget():
    sc = build(*helpers.shor_pair())
    # CSS: the X half has 2^3 elements, the Z half 2^7
    with pytest.raises(BudgetExceeded, match=r"^centralizer walk elements: 136"
                       r" requested, limit 16; raise it with --budget$") as refused:
        distance_bruteforce(sc, budget=16)
    assert (refused.value.requested, refused.value.limit) == (2 ** 3 + 2 ** 7, 16)
    # not CSS: the whole centralizer, 2^(9 + 1) elements
    with pytest.raises(BudgetExceeded, match=r"^centralizer walk elements: 1024"
                       r" requested, limit 16; raise it with --budget$"):
        distance_bruteforce(mixed_presentation(sc), budget=16)
    assert distance_bruteforce(sc, budget=136) == 3


# --- the CSS split of the brute-force walk ----------------------------------


def mixed_presentation(sc, z_index=-1, x_index=0):
    """The same group with one Z generator times one X generator: not CSS."""
    gens = list(sc.generators)
    zs = [i for i, g in enumerate(gens) if any(g.b)]
    xs = [i for i, g in enumerate(gens) if any(g.a)]
    i = zs[z_index]
    gens[i] = mul(gens[i], gens[xs[x_index]])
    assert any(gens[i].a) and any(gens[i].b)
    return StabilizerCode(sc.field, sc.n, sc.k, sc.m, sc.s, gens)


@contextlib.contextmanager
def recording_walk():
    """Record the words of D every Gray-code walk of ``construct`` visits;
    the walks of the leader steps, scalars of K, are not words."""
    seen = []
    real = construct._gray_span

    def recorded(*args):
        for cur in real(*args):
            if isinstance(cur, tuple):
                seen.append(cur)
            yield cur

    with mock.patch.object(construct, "_gray_span", recorded):
        yield seen


@contextlib.contextmanager
def counting_walk():
    """Count the elements the min-weight walk weighs; yields a one-item list.

    The walk tables the combinations of its first b rows and weighs them
    as one block per offset that ``_gray_span`` reaches over the rest:
    p^b elements per offset, b the rows not passed to ``_gray_span``.
    """
    count, dims = [0], []
    real_walk, real_span = lincode._min_weight_outside, lincode._gray_span

    def walk(p, srows, rest, *args):
        dims.append(len(srows) + len(rest))
        return real_walk(p, srows, rest, *args)

    def offsets(p, rows, *args):
        for cur in real_span(p, rows, *args):
            count[0] += p ** (dims[-1] - len(rows))
            yield cur

    with mock.patch.object(construct, "_min_weight_outside", walk), \
            mock.patch.object(lincode, "_min_weight_outside", walk), \
            mock.patch.object(lincode, "_gray_span", offsets):
        yield count


def walk_sizes(meta):
    """(p^dim A + p^dim B, p^dim centralizer) for a built code."""
    p, r, n, k, m, s = (meta[x] for x in "prnkms")
    N = n * m
    split = p ** (r * N - r * m * (n - k)) + p ** (r * N - r * k * (m - s))
    return split, p ** (r * (N + k * s))


def test_bruteforce_walks_css_halves_and_mixed_presentations_whole():
    checked = 0
    for c_code, d_code, meta in helpers.family_instances():
        split, full = walk_sizes(meta)
        if full > 1 << 16:
            continue
        sc = build(c_code, d_code)
        mixed = mixed_presentation(sc)
        prime = field_make(meta["p"], 1)
        assert rowspace(prime, mixed.sympl_matrix) == rowspace(prime, sc.sympl_matrix)
        delta = distance(sc)
        assert delta >= 2  # no early exit, so every element is visited
        with counting_walk() as count:
            assert distance_bruteforce(sc) == delta
        assert count == [split]
        with counting_walk() as count:
            assert distance_bruteforce(mixed) == delta
        assert count == [full]
        checked += 1
    assert checked >= 30


def test_bruteforce_walk_count_on_the_shor_export():
    parsed = stab_from_text(stab_to_text(build(*helpers.shor_pair())))
    with counting_walk() as count:
        assert distance_bruteforce(parsed) == 3
    assert count == [2 ** 3 + 2 ** 7]


def test_bruteforce_splits_a_centralizer_past_the_default_budget():
    # C = [5,2]_2 and D = [4,2]_4
    sc = build(helpers.pattern_code(F2, 5, 2), helpers.pattern_code(field_make(2, 2), 4, 2))
    assert (sc.num_qudits, sc.log_dim_exp) == (20, 4)
    assert 2 ** (20 + 4) > DEFAULT_BUDGET
    parsed = stab_from_text(stab_to_text(sc))
    assert distance(sc) == 2
    with counting_walk() as count:
        assert distance_bruteforce(parsed) == 2
    assert count == [2 ** 8 + 2 ** 16]
    with pytest.raises(BudgetExceeded, match="centralizer walk elements: 16777216 requested"):
        distance_bruteforce(mixed_presentation(parsed))


@pytest.mark.parametrize("pair, mixed, part", [
    (helpers.shor_pair, False, 0),  # a pure-X vector, of the X half
    (helpers.shor_pair, False, 1),  # a pure-Z vector, of the Z half
    (helpers.shor_pair, True, 0),  # the whole centralizer
    (helpers.nine_qutrit_pair, False, 0),
    (helpers.nine_qutrit_pair, False, 1),
], ids=["x-half", "z-half", "whole", "qutrit-x-half", "qutrit-z-half"])
def test_bruteforce_checks_every_centralizer_vector(monkeypatch, pair, mixed, part):
    sc = build(*pair())
    if mixed:
        sc = mixed_presentation(sc)
    real = linalg.Echelon.kernel
    calls = []

    def corrupt(self, lanes):
        calls.append(lanes)
        # a digit of qudit 0's X or Z part: pairs nonzero
        return real(self, lanes) + [1 << part * lanes // 2 * _lane_width(self.p)]

    monkeypatch.setattr(linalg.Echelon, "kernel", corrupt)
    with pytest.raises(ArithmeticError, match="fails to commute"):
        distance_bruteforce(sc)
    assert calls == [2 * sc.num_qudits * sc.field.degree]


@pytest.mark.parametrize("pair", [helpers.shor_pair, helpers.nine_qutrit_pair])
def test_bruteforce_rejects_a_mixed_vector_in_a_css_centralizer(monkeypatch, pair):
    sc = build(*pair())
    real = linalg.Echelon.kernel

    def mix(self, lanes):
        out = real(self, lanes)
        # first (pure X) plus last (pure Z): still a commuting basis
        out[0] = _lane_adder(self.p, lanes)(out[0], out[-1])
        return out

    monkeypatch.setattr(linalg.Echelon, "kernel", mix)
    with pytest.raises(ArithmeticError, match="neither pure X nor pure Z"):
        distance_bruteforce(sc)


def test_bruteforce_eliminates_the_stabilizer_and_the_reduced_centralizer_once(monkeypatch):
    # past centralizer_basis's pairing kernel, a parsed Shor export makes
    # two eliminations: _sbar of its 8 rows, kept on the code, and the 10
    # centralizer vectors reduced by it; CSS halves split off those two
    sc = build(*helpers.shor_pair())
    distance(sc)
    parsed = stab_from_text(stab_to_text(sc))
    made = helpers.counted_echelons(monkeypatch)
    assert distance_bruteforce(parsed) == 3
    assert made == [8, 8, 10]
    made.clear()
    assert verify_generators(parsed) == [] and parsed.same_row_space(sc)
    assert made == []  # both read the cached _sbar


@pytest.mark.parametrize("pair", [
    helpers.shor_pair,
    lambda: (code_make(field_make(2, 2), [(1, 0, 2), (0, 1, 3)]),
             code_make(field_make(2, 4), [(1, 1)])),
], ids=["shor", "gf4"])
def test_build_reads_its_z_generators_off_the_table(monkeypatch, pair):
    # C^perp is the table's: dual is asked once, for C, by table_make, and
    # never for D; the Z rows are its rows laid into each block
    c_code, d_code = pair()
    real, want, duals = lincode.dual, fp_basis(dual(c_code)), []

    def counted_dual(code):
        duals.append(code)
        return real(code)

    for module in (lincode, functional, construct):
        monkeypatch.setattr(module, "dual", counted_dual, raising=False)
    sc = build(c_code, d_code)
    assert duals == [c_code] and duals[0] is c_code
    n, m = c_code.n, d_code.n
    assert [g.b for g in sc.generators if not any(g.a)] == [
        (0,) * (n * i) + tuple(u) + (0,) * (n * (m - 1 - i)) for i in range(m) for u in want]


@pytest.mark.parametrize("pair", [
    helpers.shor_pair,
    helpers.nine_qutrit_pair,
    lambda: (code_make(field_make(2, 2), [(1, 0, 2), (0, 1, 3)]),
             code_make(field_make(2, 4), [(1, 1, 0), (0, 1, 1)])),
    lambda: (code_make(field_make(3, 2), [(1, 2, 0), (0, 1, 1)]),
             code_make(field_make(3, 4), [(1, 2)])),
], ids=["shor", "qutrit", "gf4", "gf9"])
def test_build_makes_one_table_elimination_one_x_elimination_and_sbar(monkeypatch, pair):
    # the table's kernel of the k r pairing rows of C, the X trace system of
    # D's s deg K F_p-basis rows, and _sbar of the generator rows; no dual of
    # D, and neither theta nor P^-1 is solved
    c_code, d_code = pair()
    kr, real, duals = d_code.field.degree, lincode.dual, []

    def counted_dual(code):
        duals.append(code)
        return real(code)

    def refuse(*args):
        raise AssertionError("theta or P^-1 read by build")

    for module in (lincode, functional, construct):
        monkeypatch.setattr(module, "dual", counted_dual, raising=False)
    for name in ("theta", "unpack_message"):
        monkeypatch.setattr(functional.FunctionalTable, name, refuse)
    made = helpers.counted_echelons(monkeypatch)
    sc = build(c_code, d_code)
    assert made == [kr, d_code.k * kr, len(sc.generators)]
    assert duals == [c_code]
    assert sc._rows == [_vec_lanes(sc.field, g.a + g.b) for g in sc.generators]


def xz_qutrit():
    """The stabilizer of one qutrit under X Z: not CSS in any presentation."""
    return StabilizerCode(F3, 1, 0, 1, 0, [PauliElement(F3, 0, (1,), (1,))])


@pytest.mark.parametrize("make, fault", [
    (lambda: build(*helpers.shor_pair()), "halves"),
    (lambda: build(*helpers.nine_qutrit_pair()), "halves"),
    # a CSS group has one kernel under both signs; this one has not
    (xz_qutrit, "sign"),
], ids=["halves", "qutrit-halves", "qutrit-sign"])
def test_centralizer_check_does_not_read_the_pairing_rows(monkeypatch, make, fault):
    # A fault in the pairing rows the kernel is taken of: the kernel still
    # pairs to zero with those rows, so only a pairing recomputed from the
    # generators' own entries catches it.
    sc = make()
    f, w = sc.field, _lane_width(sc.field.p)

    def faulty(code):
        pairings = []
        for g in code.generators:
            a, b = list(f.trace_rows(g.a)), [-t % f.p for t in f.trace_rows(g.b)]
            if fault == "halves":  # (tr(g.a .) | -tr(g.b .)) for (-tr(g.b .) | tr(g.a .))
                row = a + b
            else:  # tr(g.b . a) not negated: a symmetric form
                row = [-t % f.p for t in b] + a
            pairings.append(_lane_pack(row, w))
        return pairings

    monkeypatch.setattr(construct, "_pairings", faulty)
    for call in (centralizer_basis, distance_bruteforce):
        with pytest.raises(ArithmeticError, match="fails to commute"):
            call(sc)


def test_centralizer_of_every_family_code_is_pure_x_or_pure_z():
    count = 0
    for c_code, d_code, _ in helpers.family_instances() + helpers.repetition_instances():
        for v in centralizer_pauli(build(c_code, d_code)):
            assert not any(v.a) or not any(v.b)
            count += 1
    assert count > 0


def test_distance_requires_construction_data():
    sc = build(*helpers.four_one_pair())
    text_no_delta = stab_to_text(
        StabilizerCode(sc.field, sc.n, sc.k, sc.m, sc.s, sc.generators)
    )
    parsed = stab_from_text(text_no_delta)
    with pytest.raises(ValueError):
        distance(parsed)


def test_parsed_code_keeps_stored_delta():
    sc = build(*helpers.shor_pair())
    distance(sc)
    parsed = stab_from_text(stab_to_text(sc))
    assert parsed.delta == 3
    assert distance(parsed) == 3


def test_contains_symplectic():
    sc = build(*helpers.four_one_pair())
    for g in sc.generators:
        assert sc.contains_symplectic(g.a, g.b)
    # product of two generators stays inside
    g0, g1 = sc.generators[0], sc.generators[1]
    a = tuple(F2.add(x, y) for x, y in zip(g0.a, g1.a))
    b = tuple(F2.add(x, y) for x, y in zip(g0.b, g1.b))
    assert sc.contains_symplectic(a, b)
    # the weight-two logical X is in the centralizer but not the group
    assert not sc.contains_symplectic((1, 1, 0, 0), (0, 0, 0, 0))


def test_contains_symplectic_refuses_a_wrong_length_or_a_foreign_entry():
    sc = build(*helpers.shor_pair())
    g = sc.generators[0]
    with pytest.raises(LengthMismatch):
        sc.contains_symplectic(g.a[1:], g.b)
    with pytest.raises(LengthMismatch):
        sc.contains_symplectic(g.a, g.b + (0,))
    with pytest.raises(ValueError, match="entry 2 is not a packed element"):
        sc.contains_symplectic((2,) + g.a[1:], g.b)
    with pytest.raises(ValueError, match="entry -1 is not a packed element"):
        sc.contains_symplectic(g.a, g.b[:-1] + (-1,))
    assert sc.contains_symplectic(g.a, g.b)


def test_same_row_space_needs_one_field_and_one_length():
    # the binary [[6, 2]]_2 code and three GF(4) qudits whose generators
    # pack to the same twelve lanes, and so to the same echelon rows
    f4 = field_make(2, 2)
    sc = build(code_make(F2, [(1, 0, 1), (0, 1, 1)]), code_make(f4, [(1, 1)]))
    zero = (0, 0, 0)
    gens = [PauliElement(f4, 0, a, b) for a, b in [
        ((1, 3, 2), zero), ((2, 1, 3), zero), (zero, (3, 1, 0)), (zero, (0, 2, 3))]]
    other = StabilizerCode(f4, 1, 1, 3, 1, gens)
    assert verify_generators(other) == []
    assert other._sbar().rows == sc._sbar().rows
    assert not sc.same_row_space(other) and not other.same_row_space(sc)
    assert sc.same_row_space(stab_from_text(stab_to_text(sc)))


def test_verify_generators_clean():
    for pair in (helpers.shor_pair(), helpers.four_one_pair()):
        sc = build(*pair)
        assert verify_generators(sc) == []


def test_verify_generators_detects_phase():
    sc = build(*helpers.four_one_pair())
    bad_gens = list(sc.generators)
    g = bad_gens[0]
    bad_gens[0] = PauliElement(sc.field, 2, g.a, g.b)
    bad = StabilizerCode(sc.field, sc.n, sc.k, sc.m, sc.s, bad_gens)
    assert any("phase" in msg for msg in verify_generators(bad))


def test_verify_generators_detects_generator_squaring_to_minus_identity():
    # at p = 2, X(a) Z(b) squares to (-1)^tr(b.a); at odd p its p-th power is I
    F4 = field_make(2, 2)
    bad = StabilizerCode(F2, 2, 1, 1, 1, [PauliElement(F2, 0, (1, 0), (1, 0))])
    assert verify_generators(bad) == ["generator 0 squares to -I: tr(b.a) is odd"]
    assert fix_dim(bad) == 0
    even = StabilizerCode(F2, 2, 1, 1, 1, [PauliElement(F2, 0, (1, 1), (1, 1))])
    assert verify_generators(even) == []
    assert fix_dim(even) == 2
    ternary = StabilizerCode(F3, 2, 1, 1, 1, [PauliElement(F3, 0, (1, 0), (1, 0))])
    assert verify_generators(ternary) == []
    # over GF(4), tr(1) = 0 and tr(2) = 1
    squares = [
        any("squares" in msg for msg in verify_generators(
            StabilizerCode(F4, 1, 1, 1, 1, [PauliElement(F4, 0, (a,), (1,))])))
        for a in (1, 2)
    ]
    assert squares == [False, True]


def test_verify_generators_detects_noncommuting():
    f = F2
    gens = [x_op(f, (1, 0)), z_op(f, (1, 0))]
    bad = StabilizerCode(f, 2, 1, 1, 1, gens)
    assert any("commute" in msg for msg in verify_generators(bad))


@pytest.mark.parametrize("field, b", [(F2, 1), (F3, 1), (field_make(2, 2), 2)],
                         ids=["F2", "F3", "F4"])
def test_verify_generators_does_not_read_the_kernel_pairing_rows(monkeypatch, field, b):
    # The centralizer kernel is taken of the pairing rows of ``_pairings``;
    # with those zeroed, build's checks must still see that X(1) and Z(b)
    # on one qudit, tr(b) != 0, do not commute, and that X Z squares to -I.
    monkeypatch.setattr(construct, "_pairings", lambda code: [0] * len(code.generators))
    pair = StabilizerCode(field, 1, 0, 1, 0, [x_op(field, (1,)), z_op(field, (b,))])
    assert "generators 0 and 1 do not commute" in verify_generators(pair)
    xz = StabilizerCode(F2, 1, 0, 1, 0, [PauliElement(F2, 0, (1,), (1,))])
    assert "generator 0 squares to -I: tr(b.a) is odd" in verify_generators(xz)


def test_verify_generators_dots_only_pairs_that_share_a_lane(monkeypatch):
    # Shor's X rows and the pairing rows of its Z rows fill the a lanes, its
    # Z rows and the pairing rows of its X rows the b lanes: only an X row
    # and a Z row on common qubits are dotted, and the X-X and Z-Z pairs not.
    sc = build(*helpers.shor_pair())
    dots, dot = [], construct._lane_dot
    monkeypatch.setattr(construct, "_lane_dot", lambda *args: dots.append(args[1:]) or dot(*args))
    assert verify_generators(sc) == []
    xs = [g for g in sc.generators if any(g.a)]
    zs = [g for g in sc.generators if any(g.b)]
    assert (len(xs), len(zs)) == (2, 6) and not set(xs) & set(zs)
    pairs = {(construct._pairing_row(sc.field, sc.num_qudits, _vec_lanes(sc.field, x.a + x.b)),
              _vec_lanes(sc.field, z.a + z.b))
             for x in xs for z in zs if any(u and v for u, v in zip(x.a, z.b))}
    assert len(pairs) == 8 and sorted((y, x) for x, y in dots) == sorted(pairs)


def test_verify_generators_detects_rank_drop():
    f = F2
    # count matches r(nm-ks) = 2 but the rows are dependent
    gens = [z_op(f, (1, 1, 0)), z_op(f, (1, 1, 0))]
    bad = StabilizerCode(f, 3, 1, 1, 1, gens)
    assert any("rank" in msg for msg in verify_generators(bad))


def test_stab_text_roundtrip():
    sc = build(*helpers.nine_qutrit_pair())
    distance(sc)
    parsed = stab_from_text(stab_to_text(sc))
    assert parsed.field is sc.field
    assert (parsed.n, parsed.k, parsed.m, parsed.s) == (sc.n, sc.k, sc.m, sc.s)
    assert [(g.a, g.b) for g in parsed.generators] == [(g.a, g.b) for g in sc.generators]
    assert parsed.delta == 3


def test_stab_text_roundtrip_extension_field():
    q4 = field_make(2, 2)
    c = code_make(q4, [(1, 0, 2), (0, 1, 3)])
    d = code_make(field_make(2, 4), [(1, 7)])
    sc = build(c, d)
    parsed = stab_from_text(stab_to_text(sc))
    assert parsed.field is q4
    assert [(g.a, g.b) for g in parsed.generators] == [(g.a, g.b) for g in sc.generators]


def test_stab_text_skips_indented_comments():
    sc = build(*helpers.four_one_pair())
    head, *body = stab_to_text(sc).splitlines()
    parsed = stab_from_text("\n".join([head, "   # generators follow", *body]))
    assert [(g.a, g.b) for g in parsed.generators] == [(g.a, g.b) for g in sc.generators]


def test_stab_text_rejects_bad_entries():
    sc = build(*helpers.four_one_pair())
    text = stab_to_text(sc)
    broken = text.replace("\n", "\n", 1).split("\n")
    # corrupt one generator line with an out-of-range digit
    for i, line in enumerate(broken):
        if "|" in line:
            broken[i] = line.replace("1", "7", 1)
            break
    with pytest.raises(Exception):
        stab_from_text("\n".join(broken))


def test_distance_matches_bruteforce_on_small_family_sample():
    checked = 0
    for c_code, d_code, meta in helpers.family_instances():
        dim = meta["r"] * (meta["n"] * meta["m"] + meta["k"] * meta["s"])
        if meta["p"] ** dim > 1 << 14:
            continue
        sc = build(c_code, d_code)
        assert distance(sc) == distance_bruteforce(sc)
        checked += 1
    assert checked >= 4


# (p, r, n, k, m, s) with p in {2, 3}, r in {1, 2}, 1 <= k < n <= 4 and
# 1 <= s < m <= 3 whose centralizer, of p^(r(nm + ks)) elements, has at
# most 2^16.  Drawn from this list rather than filtered by assume, which
# rejected too many draws for hypothesis's health check.
PAIR_SHAPES = [
    (p, r, n, k, m, s)
    for p in (2, 3) for r in (1, 2) for n in range(2, 5) for k in range(1, n)
    for m in (2, 3) for s in range(1, m)
    if p ** (r * (n * m + k * s)) <= 1 << 16
]


def draw_pair(data, shapes=PAIR_SHAPES, unit_row=False):
    """A random code pair whose centralizer has at most 2^16 elements.

    C and D are full rank, and every coordinate of D is live, by
    construction.  With ``unit_row`` the first row of D is a word of
    weight 1."""
    p, r, n, k, m, s = data.draw(st.sampled_from(shapes), label="shape")
    f, K = field_make(p, r), field_make(p, r * k)

    def systematic_rows(field, count, length, live=False, unit=False):
        """A permuted systematic form: row i is 1 at its own pivot and 0 at
        the other rows' pivots, the pivots drawn columns.  With ``live``
        each other column is nonzero in a drawn row.  With ``unit`` the
        first row is a nonzero scalar at its pivot alone, and the other
        columns fill the other rows."""
        order = data.draw(st.permutations(range(length)), label="pivot columns first")
        rows = [[0] * length for _ in range(count)]
        for i, j in enumerate(order[:count]):
            rows[i][j] = 1
        first = 1 if unit else 0
        entry, nonzero = st.integers(0, field.order - 1), st.integers(1, field.order - 1)
        for j in order[count:]:
            column = data.draw(st.lists(entry, min_size=count - first, max_size=count - first))
            if live:
                column[data.draw(st.integers(0, count - first - 1))] = data.draw(nonzero)
            for i, x in enumerate(column, first):
                rows[i][j] = x
        if unit:
            rows[0][order[0]] = data.draw(nonzero, label="unit scalar")
        return rows

    c_code = code_make(f, systematic_rows(f, k, n))
    d_code = code_make(K, systematic_rows(K, s, m, live=True, unit=unit_row))
    meta = {"p": p, "r": r, "n": n, "k": k, "m": m, "s": s}
    return build(c_code, d_code), meta


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_distance_matches_bruteforce_on_random_pairs(data):
    sc, _ = draw_pair(data)
    assert distance(sc) == distance_bruteforce(sc)


# As PAIR_SHAPES, with m up to 4 and s >= 2, so that D can hold light
# words without a dead coordinate.
LIGHT_SHAPES = [
    (p, r, n, k, m, s)
    for p in (2, 3) for r in (1, 2) for n in range(2, 5) for k in range(1, n)
    for m in (3, 4) for s in range(2, m)
    if p ** (r * (n * m + k * s)) <= 1 << 16
]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_capped_ell_and_closed_form_distance_on_random_pairs_with_light_words(data):
    sc, meta = draw_pair(data, LIGHT_SHAPES, unit_row=True)
    code, d_code, table = sc.code, sc.d_code, sc.table
    full = ell(code, d_code, table)
    for below in range(1, meta["m"] + 2):
        assert ell(code, d_code, table, below=below) == min(below, full)
    assert distance(sc) == distance_bruteforce(stab_from_text(stab_to_text(sc)))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_bruteforce_on_random_mixed_presentations_takes_the_full_walk(data):
    sc, meta = draw_pair(data)
    nz = sum(1 for g in sc.generators if any(g.b))
    nx = len(sc.generators) - nz
    mixed = mixed_presentation(
        sc,
        data.draw(st.integers(0, nz - 1), label="z_index"),
        data.draw(st.integers(0, nx - 1), label="x_index"),
    )
    delta = distance(sc)
    with counting_walk() as count:
        assert distance_bruteforce(mixed) == delta
    if delta > 1:
        assert count == [walk_sizes(meta)[1]]


@pytest.mark.parametrize("fault", ["unsigned", "both-negated", "unswapped"])
def test_centralizer_check_reads_the_per_element_pairing_table(monkeypatch, fault):
    # The check builds each kernel vector's own pairing row: its trace row
    # (tr(a .) | tr(b .)), read off the field's per-element table of trace
    # rows, with the halves swapped and tr(a .) negated.  With the sign
    # lost, or on both halves, the form is symmetric; CSS groups hide that
    # at odd p (one kernel under both signs), so the group is the
    # one-qutrit X Z stabilizer.  Halves left unswapped give
    # tr(b . b') - tr(a . a'), which vanishes on (1 | 1) at p = 3, so that
    # fault takes X Z on one qutrit and X on another.
    sc = xz_qutrit()
    if fault == "unswapped":
        sc = StabilizerCode(F3, 2, 0, 1, 0, [PauliElement(F3, 0, (1, 0), (1, 0)), x_op(F3, (0, 1))])
    f, N = sc.field, sc.num_qudits

    def pairing(halves):
        def row(f, N, v):
            x = _lanes_vec(f, 2 * N, v)
            ta, tb = list(f.trace_rows(x[:N])), list(f.trace_rows(x[N:]))
            return _lane_pack(halves(ta, tb, lambda t: [-d % f.p for d in t]), _lane_width(f.p))
        return row

    correct = pairing(lambda ta, tb, neg: tb + neg(ta))
    vecs = [_vec_lanes(f, x) for x in itertools.product(range(3), repeat=2 * N)]
    assert all(correct(f, N, v) == construct._pairing_row(f, N, v) for v in vecs)
    assert len(centralizer_basis(sc)) == N
    monkeypatch.setattr(construct, "_pairing_row", pairing({
        "unsigned": lambda ta, tb, neg: tb + ta,
        "both-negated": lambda ta, tb, neg: neg(tb) + neg(ta),
        "unswapped": lambda ta, tb, neg: neg(ta) + tb,
    }[fault]))
    for call in (centralizer_basis, distance_bruteforce):
        with pytest.raises(ArithmeticError, match="fails to commute"):
            call(sc)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_pairing_row_is_the_symplectic_form(data):
    # the row of (a | b) dotted with the digits of (a' | b') is
    # tr(b . a') - tr(a . b'), each trace read off Field.trace_rows
    f = data.draw(st.sampled_from([F2, F3, field_make(2, 2), field_make(3, 2), field_make(5, 1)]))
    N = data.draw(st.integers(1, 4))
    vec = st.lists(st.integers(0, f.order - 1), min_size=N, max_size=N)
    a, b, a2, b2 = (data.draw(vec) for _ in range(4))

    def tr(u, v):
        return sum(t * d for t, d in zip(f.trace_rows(u), f.vec_digits(v)))

    row = construct._pairing_row(f, N, _vec_lanes(f, a + b))
    want = (tr(b, a2) - tr(a, b2)) % f.p
    assert _lane_dot(f.p, row, _vec_lanes(f, a2 + b2)) == want
    assert row == _lane_pack(list(f.trace_rows(b)) + [-t % f.p for t in f.trace_rows(a)],
                             _lane_width(f.p))


def test_repr_names_the_parameters_and_a_known_distance():
    sc = build(*helpers.shor_pair())
    assert repr(sc) == "[[9,1]]_2 stabilizer code (8 generators)"
    distance(sc)
    assert repr(sc) == "[[9,1]]_2 stabilizer code (8 generators, delta=3)"
