"""Tests of the benchmark itself: generation, checkers and span arithmetic.

    python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import spans  # noqa: E402
import workloads  # noqa: E402
from qbh.gf import field_make  # noqa: E402
from qbh.lincode import code_make, min_distance  # noqa: E402
from qbh.pauli import PauliElement  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generation_is_deterministic(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)


def test_seed_changes_the_draws():
    assert workloads.generate("certify", 1) != workloads.generate("certify", 2)
    assert workloads.generate("span-stabilizer", 1) != workloads.generate("span-stabilizer", 2)


def test_job_lists_match_the_workload_definitions():
    assert len(workloads.generate("certify", 0)) == 39
    assert len(workloads.generate("construct-cold", 0)) == 10
    span = workloads.generate("span-stabilizer", 0)
    assert sum(job["order"] == 4 for job in span) == 24
    assert sum(job["order"] == 8 for job in span) == 1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_drawn_codes_have_distance_two_or_more(seed):
    for job in workloads.generate("certify", seed):
        p, r, k = job["p"], job["r"], job["k"]
        c_code = code_make(field_make(p, r), job["c_rows"])
        d_code = code_make(field_make(p, r * k), job["d_rows"])
        assert (c_code.k, d_code.k) == (k, job["s"])
        assert min_distance(c_code) >= 2 and min_distance(d_code) >= 2
        assert all(any(row[i] for row in job["d_rows"]) for i in range(job["m"]))
    for job in workloads.generate("construct-cold", seed):
        if job["p"] ** (job["r"] * job["k"]) <= 1 << 10:
            c_code = code_make(field_make(job["p"], job["r"]), job["c_rows"])
            assert min_distance(c_code) == workloads.COLD_REFERENCE_DELTA


@pytest.fixture(scope="module")
def certified():
    job = next(j for j in workloads.generate("certify", 0) if j["p"] == 3 and j["m"] == 3)
    return job, workloads.certify_job(job)


def test_certify_checker_accepts_real_outputs(certified):
    job, out = certified
    assert workloads.check_certify(job, out) == []


@pytest.mark.parametrize("field", [
    "delta", "brute", "stored", "fix_dim", "states", "moved", "generators",
])
def test_certify_checker_rejects_corruption(certified, field):
    job, out = certified
    assert workloads.check_certify(job, {**out, field: out[field] + 1})


@pytest.fixture(scope="module")
def span_result():
    job = workloads.generate("span-stabilizer", 0)[5]
    return job, workloads.span_job(job)


def test_span_checker_accepts_real_outputs(span_result):
    job, out = span_result
    assert len(out["stab"]) == workloads.SPAN_ORDER4_STAB
    assert workloads.check_span(job, out) == []


def test_span_checker_rejects_a_non_fixing_element(span_result):
    job, out = span_result
    e = next(e for e in out["stab"] if any(e.a))
    flipped = PauliElement(e.field, (e.phase + 2) % 4, e.a, e.b)
    stab = [flipped if g is e else g for g in out["stab"]]
    problems = workloads.check_span(job, {**out, "stab": stab})
    assert any("not fixed" in p for p in problems)


def test_span_checker_rejects_a_wrong_group_size(span_result):
    job, out = span_result
    assert workloads.check_span(job, {**out, "stab": out["stab"][:-1]})
    assert workloads.check_span(job, {**out, "stab": out["stab"][:8]})


def test_cold_checker():
    job = workloads.generate("construct-cold", 0)[0]
    n, k = job["n"] * job["m"], job["k"] * job["s"]
    good = f"N={n} K={k} delta=2\n"
    assert workloads.check_cold(job, 1, good, "")
    assert workloads.check_cold(job, 0, f"N={n} K={k} delta=3\n", "")
    assert workloads.check_cold(job, 0, f"N={n + 1} K={k} delta=2\n", "")
    assert workloads.check_cold(job, 0, "garbage", "")
    assert any("parse" in p for p in workloads.check_cold(job, 0, good, "1 2 3\n"))


def test_self_time_on_synthetic_nested_spans():
    recorded = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a.x", 2.0, 3.0, 1),
        ("b", 5.0, 6.0, 0),
        ("c", 6.5, 7.0, 0),
    ]
    assert spans.self_times(recorded) == pytest.approx([5.5, 2.0, 1.0, 1.0, 0.5])
    totals = spans.Totals()
    totals.add(recorded + [("a", 20.0, 21.0, -1, {"n": 2}), ("a", 22.0, 22.5, -1, {"n": 3})])
    assert totals.calls["a"] == 3 and totals.self_s["a"] == pytest.approx(3.5)
    assert (totals.count("a", "n"), totals.peaks["a:n"]) == (5, 3)
    assert totals.nested == {("root", "a"): 1, ("a", "a.x"): 1, ("root", "b"): 1,
                             ("root", "c"): 1}


def test_stab_trials_count_the_apply_calls_of_stab_of_span():
    totals = spans.Totals()
    totals.add([
        ("statevec.stab_of_span", 0.0, 3.0, -1),
        ("statevec.apply", 0.5, 1.0, 0),
        ("statevec.apply", 1.5, 2.0, 0),
        ("statevec.apply", 4.0, 5.0, -1),    # not a trial: outside the search
    ])
    metrics = spans.layer_metrics(totals, (0.0, 0.0), 5.0, 4.0, 0.0)
    assert metrics["statevec.stab_trials"] == (2, "count")
    assert metrics["statevec.apply_calls"] == (3, "count")


def test_tracing_wraps_names_bound_in_other_modules():
    import qbh.construct as construct
    import qbh.functional as functional

    originals = (construct.build, construct.big_f_kernel, functional.big_f_kernel)
    job = workloads.generate("certify", 0)[0]
    c_code = code_make(field_make(2, 1), job["c_rows"])
    d_code = code_make(field_make(2, 1), job["d_rows"])
    rec = spans.Recorder()
    undo = spans.install(rec)
    try:
        construct.build(c_code, d_code)
    finally:
        spans.uninstall(undo)
    assert (construct.build, construct.big_f_kernel, functional.big_f_kernel) == originals
    names = [s[0] for s in rec.spans]
    assert names[0] == "construct.build"
    kernel = names.index("functional.big_f_kernel")
    assert names[rec.spans[kernel][3]] == "construct.build"
    assert "lincode.encode" not in names


def test_traced_metrics_match_the_benchmark_definition():
    import json

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    emitted = spans.layer_metrics(spans.Totals(), (0.0, 0.0), 1.0, 1.0, 0.0)
    assert list(emitted) == [m["name"] for m in spec["per_layer"]]
    assert {unit for _, unit in emitted.values()} <= {m["unit"] for m in spec["per_layer"]}
    assert all(emitted[m["name"]][1] == m["unit"] for m in spec["per_layer"])


def test_refuses_to_run_without_the_program(tmp_path):
    import shutil
    import subprocess

    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""



def test_gauge_runs_reference_work_in_proportion_to_job_wall(monkeypatch):
    import speed

    calls = []
    monkeypatch.setattr(speed, "unit", lambda: calls.append(1))
    gauge = speed.Gauge(0.5)
    gauge.after(0.2)
    assert len(calls) == round(0.5 * 0.2 / speed.UNIT_NOMINAL_S) == gauge.units
    gauge.after(0.0)
    assert gauge.units == len(calls) == 11
    gauge.seconds = 11 * speed.UNIT_NOMINAL_S * 1.5
    assert gauge.factor == pytest.approx(1.5)


def test_reference_work_does_not_touch_the_program():
    import subprocess

    code = "import sys, speed; speed.unit(); print(any(m.startswith('qbh') for m in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], cwd=BENCH, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "False"
