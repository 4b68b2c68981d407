"""End-to-end runs of the command line through main(argv)."""

import pytest

from qbh import statevec as sv
from qbh.bh import BhMatrix, bh_to_text, kron_fourier
from qbh.cli import main
from qbh.construct import StabilizerCode, build, stab_from_text, stab_to_text
from qbh.pauli import PauliElement
from qbh.gf import field_make
from qbh.statevec import CycAmp

import helpers
from test_construct import mixed_presentation

F2 = field_make(2, 1)

SHOR_C = "2 1 3 1\n1 1 1\n"
SHOR_D = "2 1 3 1\n1 1 1\n"
FOUR_C = "2 1 2 1\n1 1\n"
FOUR_D = "2 1 2 1\n1 1\n"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _shor_files(tmp_path):
    return (_write(tmp_path, "c.txt", SHOR_C),
            _write(tmp_path, "d.txt", SHOR_D),
            str(tmp_path / "shor.stab"))


def test_construct_shor(tmp_path, capsys):
    c, d, out = _shor_files(tmp_path)
    rc = main(["construct", "-c", c, "-d", d, "-o", out])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "N=9 K=1 delta=3"
    sc = stab_from_text((tmp_path / "shor.stab").read_text())
    assert len(sc.generators) == 8
    assert sc.delta == 3


def test_distance_stored(tmp_path, capsys):
    c, d, out = _shor_files(tmp_path)
    main(["construct", "-c", c, "-d", d, "-o", out])
    capsys.readouterr()
    rc = main(["distance", out])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "delta=3"


def test_distance_brute_check(tmp_path, capsys):
    c, d, out = _shor_files(tmp_path)
    main(["construct", "-c", c, "-d", d, "-o", out])
    capsys.readouterr()
    rc = main(["distance", out, "--brute"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "theorem=3 brute=3 OK"


def test_distance_recompute_from_codes(tmp_path, capsys):
    c, d, out = _shor_files(tmp_path)
    main(["construct", "-c", c, "-d", d, "-o", out])
    # drop the stored distance from the export
    sc = stab_from_text((tmp_path / "shor.stab").read_text())
    bare = StabilizerCode(sc.field, sc.n, sc.k, sc.m, sc.s, sc.generators)
    stripped = _write(tmp_path, "bare.stab", stab_to_text(bare))
    capsys.readouterr()
    assert main(["distance", stripped]) == 2
    assert "no stored distance" in capsys.readouterr().err
    rc = main(["distance", stripped, "-c", c, "-d", d])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "delta=3"


def test_distance_rejects_mismatched_codes(tmp_path, capsys):
    c, d, out = _shor_files(tmp_path)
    main(["construct", "-c", c, "-d", d, "-o", out])
    other_c = _write(tmp_path, "c2.txt", FOUR_C)
    other_d = _write(tmp_path, "d2.txt", FOUR_D)
    capsys.readouterr()
    rc = main(["distance", out, "-c", other_c, "-d", other_d])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_distance_rejects_stored_delta_out_of_range(tmp_path, capsys):
    c, d, out = _shor_files(tmp_path)
    main(["construct", "-c", c, "-d", d, "-o", out])
    lines = (tmp_path / "shor.stab").read_text().splitlines()
    assert lines[0].endswith(" 3")
    bad = _write(tmp_path, "bad.stab", "\n".join([lines[0][:-1] + "-7", *lines[1:]]) + "\n")
    capsys.readouterr()
    assert main(["distance", bad]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "delta -7" in err


def test_verify_rejects_negative_lengths_whose_product_fits(tmp_path, capsys):
    # N = nm = 4 with n = m = -2: refused as bad input, not run as a code
    bad = _write(tmp_path, "neg.stab", "2 1 -2 1 -2 1 4 1 -\n")
    assert main(["verify", bad]) == 2
    assert "header needs n, m >= 1 and k, s >= 0" in capsys.readouterr().err


def test_verify_names_the_first_out_of_range_generator_entry(tmp_path, capsys):
    # entries 7 and 5 in the middle of the third generator line, over GF(2):
    # the range check reads the line as a whole and names the first of them
    c, d, out = _shor_files(tmp_path)
    main(["construct", "-c", c, "-d", d, "-o", out])
    lines = (tmp_path / "shor.stab").read_text().splitlines()
    entries = lines[3].split()
    entries[4], entries[13] = "7", "5"
    lines[3] = " ".join(entries)
    bad = _write(tmp_path, "range.stab", "\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", bad]) == 2
    assert capsys.readouterr().err == "error: entry 7 is not a packed element of GF(2)\n"


def test_distance_needs_both_code_files(tmp_path, capsys):
    c, d, out = _shor_files(tmp_path)
    main(["construct", "-c", c, "-d", d, "-o", out])
    capsys.readouterr()
    rc = main(["distance", out, "-c", c])
    assert rc == 2
    assert "together" in capsys.readouterr().err


def test_verify_clean(tmp_path, capsys):
    c, d, out = _shor_files(tmp_path)
    main(["construct", "-c", c, "-d", d, "-o", out])
    capsys.readouterr()
    rc = main(["verify", out])
    assert rc == 0
    assert "generators=8" in capsys.readouterr().out


def test_verify_statevec(tmp_path, capsys):
    c = _write(tmp_path, "c.txt", FOUR_C)
    d = _write(tmp_path, "d.txt", FOUR_D)
    out = str(tmp_path / "four.stab")
    main(["construct", "-c", c, "-d", d, "-o", out])
    capsys.readouterr()
    rc = main(["verify", out, "--statevec", "-c", c, "-d", d])
    got = capsys.readouterr().out
    assert rc == 0
    assert "pair=match" in got
    assert "fix_dim=2 expected=2" in got
    assert "phi_fixed=yes" in got
    assert "span_equal=yes" in got


def test_verify_reports_the_pair_without_statevec(tmp_path, capsys):
    c, d, out = _shor_files(tmp_path)
    main(["construct", "-c", c, "-d", d, "-o", out])
    capsys.readouterr()
    rc = main(["verify", out, "-c", c, "-d", d])
    got = capsys.readouterr().out
    assert rc == 0
    assert got.splitlines() == [
        "generators=8 commuting=yes rank=full phases=free",
        "pair=match",
    ]


def test_a_rebased_export_matches_its_pair(tmp_path, capsys):
    # the last Z generator times the first X generator: the same group,
    # other generators, so the sorted symplectic rows differ
    c, d, out = _shor_files(tmp_path)
    mixed = mixed_presentation(build(*helpers.shor_pair()))
    assert sorted(mixed.sympl_matrix) != sorted(build(*helpers.shor_pair()).sympl_matrix)
    rebased = _write(tmp_path, "mixed.stab", stab_to_text(mixed))
    assert main(["verify", rebased, "-c", c, "-d", d]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "pair=match"
    assert main(["distance", rebased, "-c", c, "-d", d, "--brute"]) == 0
    assert capsys.readouterr().out.strip() == "theorem=3 brute=3 OK"


def test_a_pair_of_another_group_on_the_same_qudits_exits_two(tmp_path, capsys):
    c, d, out = _shor_files(tmp_path)
    main(["construct", "-c", c, "-d", d, "-o", out])
    other = _write(tmp_path, "c2.txt", "2 1 3 1\n1 1 0\n")
    capsys.readouterr()
    for command in (["verify", out], ["distance", out]):
        assert main([*command, "-c", other, "-d", d]) == 2
        assert "classical codes do not generate this stabilizer file" in capsys.readouterr().err


# Three GF(4) qudits whose generators pack to the rows of the binary
# [[6, 2]]_2 code of C = <101, 011> and D = <(1, 1)> over GF(4): twelve
# lanes each, but another field and another number of qudits.
EXPORT4 = ("2 2 1 1 3 1 3 1 -\nmodulus: 1 1 1\n1 3 2 | 0 0 0\n2 1 3 | 0 0 0\n"
           "0 0 0 | 3 1 0\n0 0 0 | 0 2 3\n")


def test_a_pair_over_another_field_with_as_many_lanes_exits_two(tmp_path, capsys):
    out = _write(tmp_path, "export4.txt", EXPORT4)
    c = _write(tmp_path, "c.txt", "2 1 3 2\n1 0 1\n0 1 1\n")
    d = _write(tmp_path, "d.txt", "2 2 2 1\n1 1\n")
    assert main(["verify", out]) == 0  # a clean export on its own
    capsys.readouterr()
    for command in (["verify", out], ["distance", out]):
        assert main([*command, "-c", c, "-d", d]) == 2
        assert "classical codes do not generate this stabilizer file" in capsys.readouterr().err


def test_verify_statevec_span_equal_needs_orthogonal_states(tmp_path, capsys, monkeypatch):
    c = _write(tmp_path, "c.txt", FOUR_C)
    d = _write(tmp_path, "d.txt", FOUR_D)
    out = str(tmp_path / "four.stab")
    main(["construct", "-c", c, "-d", d, "-o", out])
    capsys.readouterr()
    monkeypatch.setattr(sv, "inner", lambda v, w: CycAmp.one(v.field.p))
    rc = main(["verify", out, "--statevec", "-c", c, "-d", d])
    got = capsys.readouterr().out
    assert rc == 1
    assert "phi_fixed=yes" in got
    assert "span_equal=no" in got


@pytest.mark.parametrize("fault,last", [
    ("fix_dim", "fix_dim=3 expected=2"),
    ("is_fixed", "phi_fixed=no"),
])
def test_verify_statevec_exits_one_at_the_first_failed_check(tmp_path, capsys, monkeypatch, fault, last):
    # a wrong fixed dimension (q^K + 1), or one (generator, state) pair
    # not fixed: the CLI prints that verdict last, and nothing it has not checked
    c = _write(tmp_path, "c.txt", FOUR_C)
    d = _write(tmp_path, "d.txt", FOUR_D)
    out = str(tmp_path / "four.stab")
    main(["construct", "-c", c, "-d", d, "-o", out])
    capsys.readouterr()
    if fault == "fix_dim":
        monkeypatch.setattr(sv, "fix_dim", lambda s, budget: 2 ** s.log_dim_exp + 1)
    else:
        calls, is_fixed = [], sv.is_fixed

        def fails_once(g, v):  # the first (generator, state) pair reads not fixed
            calls.append(1)
            return len(calls) > 1 and is_fixed(g, v)

        monkeypatch.setattr(sv, "is_fixed", fails_once)
    rc = main(["verify", out, "--statevec", "-c", c, "-d", d])
    got = capsys.readouterr().out.splitlines()
    assert rc == 1
    assert got[-1] == last
    assert got[:2] == ["generators=3 commuting=yes rank=full phases=free", "pair=match"]


def test_verify_statevec_orthogonality_checks_single_block_states(tmp_path, capsys, monkeypatch):
    # C = [3,2]_2 and D = [3,2]_4: 16 code states, but only the q^k = 4
    # phi states of one block are compared, in 4 * 3 / 2 = 6 pairs
    c = _write(tmp_path, "c.txt", "2 1 3 2\n1 0 1\n0 1 1\n")
    d = _write(tmp_path, "d.txt", "2 2 3 2\nmodulus: 1 1 1\n1 0 1\n0 1 2\n")
    out = str(tmp_path / "nine.stab")
    main(["construct", "-c", c, "-d", d, "-o", out])
    capsys.readouterr()
    calls = []
    inner = sv.inner
    monkeypatch.setattr(sv, "inner", lambda v, w: calls.append(1) or inner(v, w))
    rc = main(["verify", out, "--statevec", "-c", c, "-d", d])
    got = capsys.readouterr().out
    assert rc == 0
    assert "fix_dim=16 expected=16" in got
    assert "span_equal=yes" in got
    assert 0 < len(calls) <= 4 * 3 // 2


def test_verify_statevec_without_codes(tmp_path, capsys):
    c = _write(tmp_path, "c.txt", FOUR_C)
    d = _write(tmp_path, "d.txt", FOUR_D)
    out = str(tmp_path / "four.stab")
    main(["construct", "-c", c, "-d", d, "-o", out])
    capsys.readouterr()
    rc = main(["verify", out, "--statevec"])
    got = capsys.readouterr().out
    assert rc == 0
    assert "fix_dim=2 expected=2" in got
    assert "pair=" not in got
    assert "phi_fixed" not in got


@pytest.mark.parametrize("flag", ["-c", "-d"])
def test_verify_needs_both_code_files(tmp_path, capsys, flag):
    c = _write(tmp_path, "c.txt", FOUR_C)
    d = _write(tmp_path, "d.txt", FOUR_D)
    out = str(tmp_path / "four.stab")
    main(["construct", "-c", c, "-d", d, "-o", out])
    capsys.readouterr()
    rc = main(["verify", out, "--statevec", flag, c if flag == "-c" else d])
    got = capsys.readouterr()
    assert rc == 2
    assert "together" in got.err
    assert got.out == ""


def test_verify_flags_noncommuting_generators(tmp_path, capsys):
    sc = build(*helpers.four_one_pair())
    lines = stab_to_text(sc).splitlines()
    # replace the Z check on the first block (the X generator comes first)
    # by a word that anticommutes with the X generator
    lines[2] = "0 0 0 0 | 1 0 0 0"
    broken = _write(tmp_path, "broken.stab", "\n".join(lines) + "\n")
    rc = main(["verify", broken])
    got = capsys.readouterr().out
    assert rc == 1
    assert "fail:" in got and "commute" in got


def test_verify_rejects_a_generator_that_squares_to_minus_identity(tmp_path, capsys):
    # X Z on the first qubit squares to -I, so it fixes only the zero vector
    stab = _write(tmp_path, "y.stab", "2 1 2 1 1 1 2 1 1\n1 0 | 1 0\n")
    for args in (["verify", stab], ["verify", stab, "--statevec"]):
        assert main(args) == 1
        assert capsys.readouterr().out == "fail: generator 0 squares to -I: tr(b.a) is odd\n"


def test_distance_rejects_a_list_that_is_not_a_stabilizer_code(tmp_path, capsys):
    # X and Z on one qubit do not commute; verify rejects the same file
    stab = _write(tmp_path, "xz.stab", "2 1 1 1 1 0 1 0 1\n1 | 0\n0 | 1\n")
    for args in (["distance", stab, "--brute"], ["distance", stab], ["verify", stab]):
        assert main(args) == 1
        out = capsys.readouterr().out
        assert out.startswith("fail: generators 0 and 1 do not commute\n")
        assert all(line.startswith("fail: ") for line in out.splitlines())


def test_bh_verify(tmp_path, capsys):
    good = _write(tmp_path, "f4.bh", bh_to_text(kron_fourier(2, 2)))
    rc = main(["bh", "verify", good])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "bh=true"
    flat = BhMatrix(2, 2, [[0, 0], [0, 0]])
    bad = _write(tmp_path, "flat.bh", bh_to_text(flat))
    rc = main(["bh", "verify", bad])
    assert rc == 1
    assert capsys.readouterr().out.strip() == "bh=false"


def test_bh_verify_rejects_order_zero(tmp_path, capsys):
    empty = _write(tmp_path, "empty.bh", "0 2\n")
    rc = main(["bh", "verify", empty])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "order 0" in captured.err


def test_bh_equiv_scrambled_fourier(tmp_path, capsys):
    base = kron_fourier(2, 2)
    rows = [list(r) for r in base.rows][::-1]
    rows[0] = [(e + 1) % 2 for e in rows[0]]
    scrambled = BhMatrix(base.order, base.p, rows,
                         row_labels=base.row_labels, col_labels=base.col_labels)
    m1 = _write(tmp_path, "a.bh", bh_to_text(base))
    m2 = _write(tmp_path, "b.bh", bh_to_text(scrambled))
    rc = main(["bh", "equiv", m1, m2])
    got = capsys.readouterr().out
    assert rc == 0
    assert got.startswith("perm: ")
    assert "shifts: " in got


def test_bh_equiv_negative(tmp_path, capsys):
    base = kron_fourier(3, 2)
    rows = [list(r) for r in base.rows]
    for r in rows:
        r[1], r[3] = r[3], r[1]
    other = BhMatrix(base.order, base.p, rows)
    m1 = _write(tmp_path, "a.bh", bh_to_text(base))
    m2 = _write(tmp_path, "b.bh", bh_to_text(other))
    rc = main(["bh", "equiv", m1, m2])
    assert rc == 1
    assert capsys.readouterr().out.strip() == "not row-equivalent"


def test_bh_equiv_needs_second_file(tmp_path, capsys):
    m1 = _write(tmp_path, "a.bh", bh_to_text(kron_fourier(2, 2)))
    rc = main(["bh", "equiv", m1])
    assert rc == 2
    assert "second matrix" in capsys.readouterr().err


def test_bh_fourier_check(tmp_path, capsys):
    good = _write(tmp_path, "f.bh", bh_to_text(kron_fourier(2, 3)))
    rc = main(["bh", "fourier-check", good])
    assert rc == 0
    assert "linear_rows=true" in capsys.readouterr().out
    base = kron_fourier(2, 3)
    rows = [list(r) for r in base.rows]
    labels = list(base.col_labels)
    for r in rows:
        r[1], r[2] = r[2], r[1]
    swapped = BhMatrix(base.order, base.p, rows,
                       row_labels=base.row_labels, col_labels=labels)
    bad = _write(tmp_path, "g.bh", bh_to_text(swapped))
    rc = main(["bh", "fourier-check", bad])
    assert rc == 1
    assert "linear_rows=false" in capsys.readouterr().out


def test_bh_form_identity_gram(tmp_path, capsys):
    gram = _write(tmp_path, "gram.txt", "2 2\n1 0\n0 1\n")
    rc = main(["bh", "form", gram])
    got = capsys.readouterr().out
    assert rc == 0
    assert "fourier_equivalent=true" in got
    assert got.splitlines()[0] == "4 2"


def test_missing_file(tmp_path, capsys):
    rc = main(["distance", str(tmp_path / "nope.stab")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_bad_usage_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["construct"])
    assert exc.value.code == 2


def test_distance_brute_on_a_css_export_past_the_full_walk_budget(tmp_path, capsys):
    # [[20,4]]_2: the full centralizer has 2^24 elements, past the default
    # budget; its X and Z halves have 2^8 + 2^16
    c = _write(tmp_path, "c.txt", "2 1 5 2\n1 0 1 1 1\n0 1 1 1 1\n")
    d = _write(tmp_path, "d.txt", "2 2 4 2\n1 0 1 2\n0 1 2 3\n")
    out = str(tmp_path / "twenty.stab")
    assert main(["construct", "-c", c, "-d", d, "-o", out]) == 0
    assert capsys.readouterr().out.strip() == "N=20 K=4 delta=2"
    rc = main(["distance", out, "--brute"])
    assert capsys.readouterr().out.strip() == "theorem=2 brute=2 OK"
    assert rc == 0


def test_budget_guard(tmp_path, capsys):
    c, d, out = _shor_files(tmp_path)
    main(["construct", "-c", c, "-d", d, "-o", out])
    capsys.readouterr()
    rc = main(["--budget", "4", "distance", out, "--brute"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "centralizer walk elements: 136 requested, limit 4; raise it with --budget" in err
    rc = main(["--budget", "-3", "distance", out])
    assert rc == 2


def test_budget_reaches_the_closed_form_distance(tmp_path, capsys):
    # C = [6,2,4]_2 has 4 words and D = [3,2]_4 has 16; d(C) > m = 3, so
    # ell is decided on all of D
    c = _write(tmp_path, "c.txt", "2 1 6 2\n1 1 1 1 0 0\n0 0 1 1 1 1\n")
    d = _write(tmp_path, "d.txt", "2 2 3 2\n1 0 1\n0 1 2\n")
    out = str(tmp_path / "eighteen.stab")
    message = "outer code walk words: 16 requested, limit 8; raise it with --budget"
    assert main(["--budget", "8", "construct", "-c", c, "-d", d, "-o", out]) == 2
    assert message in capsys.readouterr().err
    assert main(["--budget", "16", "construct", "-c", c, "-d", d, "-o", out]) == 0
    capsys.readouterr()
    assert main(["--budget", "8", "distance", out, "-c", c, "-d", d]) == 2
    assert message in capsys.readouterr().err
    assert main(["--budget", "2", "distance", out, "-c", c, "-d", d]) == 2
    assert "codeword walk words: 4 requested, limit 2" in capsys.readouterr().err


def test_budget_reaches_fix_dim(tmp_path, capsys):
    # one Z check on 17 qubits: fix_dim runs on the 2^16 labels where it acts as 1,
    # and its budget counts all 2^17
    sc = StabilizerCode(F2, 17, 16, 1, 1, [PauliElement(F2, 0, (0,) * 17, (1,) * 17)])
    stab = _write(tmp_path, "z17.stab", stab_to_text(sc))
    assert main(["--budget", "65536", "verify", stab, "--statevec"]) == 2
    assert ("error: fix_dim labels: 131072 requested, limit 65536; raise it with --budget"
            in capsys.readouterr().err)
    assert main(["verify", stab, "--statevec"]) == 0
    assert "fix_dim=65536 expected=65536" in capsys.readouterr().out


def test_verify_statevec_past_2_16_labels_at_the_default_budget(tmp_path, capsys):
    # [[21,8]]_2 from C = Hamming [7,4]_2 and D = <101, 011> over GF(16):
    # 2^21 labels for fix_dim's budget, 2^12 on its Z rows' coset, and
    # 2^8 code states of 2^12 slots each
    c = _write(tmp_path, "c.txt", "2 1 7 4\n1 0 0 0 1 1 0\n0 1 0 0 0 1 1\n"
                                  "0 0 1 0 1 1 1\n0 0 0 1 1 0 1\n")
    d = _write(tmp_path, "d.txt", "2 4 3 2\n1 0 1\n0 1 1\n")
    out = str(tmp_path / "s21.stab")
    assert main(["construct", "-c", c, "-d", d, "-o", out]) == 0
    assert capsys.readouterr().out.startswith("N=21 K=8 ")
    assert main(["verify", out, "--statevec", "-c", c, "-d", d]) == 0
    got = capsys.readouterr().out.splitlines()
    assert got[2:] == ["fix_dim=256 expected=256", "phi_fixed=yes", "span_equal=yes"]
    assert main(["--budget", "65536", "verify", out, "--statevec", "-c", c, "-d", d]) == 2
    assert ("error: fix_dim labels: 2097152 requested, limit 65536; raise it with --budget"
            in capsys.readouterr().err)


def test_budget_reaches_the_code_states(tmp_path, capsys):
    # C = [3,2]_2 and D = [3,2]_4: fix_dim's budget counts 2^9 labels, but the
    # 16 code states hold 4^3 slots each, 1024 in all
    c = _write(tmp_path, "c.txt", "2 1 3 2\n1 0 1\n0 1 1\n")
    d = _write(tmp_path, "d.txt", "2 2 3 2\n1 0 1\n0 1 1\n")
    out = str(tmp_path / "nine.stab")
    assert main(["construct", "-c", c, "-d", d, "-o", out]) == 0
    capsys.readouterr()
    assert main(["--budget", "512", "verify", out, "--statevec", "-c", c, "-d", d]) == 2
    got = capsys.readouterr()
    assert "fix_dim=16 expected=16" in got.out
    assert "error: code state slots: 1024 requested, limit 512; raise it with --budget" in got.err
    assert main(["--budget", "1024", "verify", out, "--statevec", "-c", c, "-d", d]) == 0
    assert "span_equal=yes" in capsys.readouterr().out


def test_construct_rejects_bad_code_file(tmp_path, capsys):
    bad = _write(tmp_path, "bad.txt", "2 1 3 2\n1 1 1\n")
    d = _write(tmp_path, "d.txt", SHOR_D)
    rc = main(["construct", "-c", bad, "-d", d, "-o", str(tmp_path / "o")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def _assert_refused(capsys, argv, message):
    """main(argv) exits 2 with one ``error:`` line that names ``message``."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


@pytest.mark.parametrize("text,message", [
    ("# only a comment\n", "empty code file"),
    ("2 1 3 1\n1 1\n", "row length 2 != declared n = 3"),
    ("2 1 3 2\n1 1 1\n1 1 1\n", "declared dimension 2 but rows span dimension 1"),
])
def test_construct_refuses_a_malformed_code_file(tmp_path, capsys, text, message):
    bad = _write(tmp_path, "bad.txt", text)
    d = _write(tmp_path, "d.txt", SHOR_D)
    _assert_refused(capsys, ["construct", "-c", bad, "-d", d, "-o", str(tmp_path / "o")], message)


FOUR_GENS = "1 1 1 1 | 0 0 0 0\n0 0 0 0 | 1 1 0 0\n0 0 0 0 | 0 0 1 1\n"


@pytest.mark.parametrize("text,message", [
    ("", "empty stabilizer file"),
    ("2 1 2 1 2 1 4 1\n" + FOUR_GENS, "header must be 'p r n k m s N K delta'"),
    ("2 1 2 1 2 1 5 1 -\n" + FOUR_GENS, "N != n*m"),
    ("2 1 2 1 2 1 4 1 -\n1 1 1 | 0 0 0 0\n", "generator parts must have length 4"),
])
def test_verify_refuses_a_malformed_stabilizer_file(tmp_path, capsys, text, message):
    assert stab_from_text("2 1 2 1 2 1 4 1 -\n" + FOUR_GENS).generators  # the well-formed file
    _assert_refused(capsys, ["verify", _write(tmp_path, "bad.stab", text)], message)


@pytest.mark.parametrize("text,message", [
    ("\n\n", "empty matrix file"),
    ("4\n0 0 0 0\n", "header must be 'N p'"),
])
def test_bh_verify_refuses_a_malformed_matrix_file(tmp_path, capsys, text, message):
    _assert_refused(capsys, ["bh", "verify", _write(tmp_path, "bad.bh", text)], message)


@pytest.mark.parametrize("head", ["1000000000000000000000000000057 1 2 1", "3 1000000000 2 1"])
def test_construct_rejects_field_beyond_limit_at_once(tmp_path, capsys, head):
    bad = _write(tmp_path, "bad.txt", head + "\n1 1\n")
    d = _write(tmp_path, "d.txt", SHOR_D)
    rc = main(["construct", "-c", bad, "-d", d, "-o", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: field ") and "requested, limit" in err
    assert "--budget" not in err  # a representation limit: no flag lifts it
