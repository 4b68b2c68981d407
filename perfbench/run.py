"""Benchmark for qbh: certification, cold construction and span stabilizers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The load is a closed loop: one job at a
time from one process, no threads; ``construct-cold`` runs one child
process at a time.  A run sets up, then repeats passes over the
workload's job list until ``--seconds`` have elapsed, always completing
at least one pass (two for the workloads in ``MIN_PASSES``).  Outputs
are checked after each pass, outside the timed interval.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
set-up time (median of fresh set-up processes run between the jobs of
the first pass), pass time and peak RSS.  Pass time is the sum over
the jobs of each job's median latency across the run's passes.  Both
times are given at the nominal host speed: after each job the run times
a fixed reference kernel (``speed.py``), and each pass's latencies, and
the set-up samples taken during the first pass, are divided by the
speed factor gauged over that pass.  The raw times, the speed factor
and job latency p50/p90 are printed above, ungated.  With ``--trace 1``
the run sets up and makes one untraced pass and one traced pass, and
reports the per-layer metrics of the traced set-up and pass, plus the
tracing overhead (traced minus untraced pass time).  Lines before the last one
are a readable summary with sample counts and the ungated context.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
# Workloads whose pass is short or rests on one long job make two
# passes, so each job's time is the median (here the mean) of two runs:
# a construct-cold job is a fresh process, whose time jitters more than
# a job's in a warm one, and one order-8 job is most of a
# span-stabilizer pass.
MIN_PASSES = {"construct-cold": 2, "span-stabilizer": 2}

def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _rss_mb(ru):
    return ru.ru_maxrss / 1024.0  # Linux reports KiB


def setup(workload, seed, workdir):
    """Generate the jobs and make them ready to run."""
    import workloads

    jobs = workloads.generate(workload, seed)
    if workload == "construct-cold":
        for j, job in enumerate(jobs):
            p, r, k = job["p"], job["r"], job["k"]
            (workdir / f"c{j}.txt").write_text(
                workloads.code_text(p, r, job["n"], job["c_rows"]))
            (workdir / f"d{j}.txt").write_text(
                workloads.code_text(p, r * k, job["m"], job["d_rows"]))
    else:
        workloads.warm_fields(jobs)
    return jobs


def _timed(fn):
    """(result, wall seconds) of ``fn()``."""
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def setup_sampler(workload, seed, n_jobs):
    """(sample, walls): ``sample(j)`` times fresh set-up processes.

    The SETUP_REPEATS processes are spread evenly over the jobs of a
    pass, so set-up time samples the machine over the same stretch as
    the pass instead of over its first two seconds.
    """
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    spots = [n_jobs * (i + 1) // (SETUP_REPEATS + 1) for i in range(SETUP_REPEATS)]
    walls = []

    def sample(j):
        for _ in range(spots.count(j)):
            walls.append(_timed(lambda: subprocess.run(cmd, check=True, env=_env()))[1])

    return sample, walls


# --- one pass -------------------------------------------------------------


class Pass:
    """Latencies, checks and child-process facts of one pass."""

    def __init__(self):
        self.latencies = []
        self.failures = []  # one entry per failed job
        self.child_rss = 0.0
        self.child_traces = []

    @property
    def wall(self):
        """Pass time: the jobs' time, without work done between them."""
        return sum(self.latencies)


def _guarded(run_job, job, rec):
    """Run one job; a job that raises is a failed job, not a crash."""
    try:
        if rec is None:
            return run_job(job)
        with rec.span("bench.job"):
            return run_job(job)
    except Exception:
        return traceback.format_exc()


def in_process_pass(workload, jobs, rec=None, after_job=None):
    import workloads

    run_job = workloads.certify_job if workload == "certify" else workloads.span_job
    result = Pass()
    outs = []
    with contextlib.nullcontext() if rec is None else rec.span("bench.pass"):
        for j, job in enumerate(jobs):
            out, wall = _timed(lambda: _guarded(run_job, job, rec))
            result.latencies.append(wall)
            outs.append(out)
            if after_job:
                after_job(j, wall)
    for j, (job, out) in enumerate(zip(jobs, outs)):
        if isinstance(out, str):
            problems = [out]
        elif workload == "certify":
            problems = workloads.check_certify(job, out)
        else:
            problems = workloads.check_span(job, out)
        if problems:
            result.failures.append(f"job {j}: " + "; ".join(problems))
    return result


def _spawn(cmd, log, err):
    """Run a child to completion; returns (exit code, rusage)."""
    with open(log, "w") as fh, open(err, "w") as eh:
        proc = subprocess.Popen(cmd, stdout=fh, stderr=eh, env=_env(), cwd=ROOT)
        _, status, ru = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, ru


def cold_pass(jobs, workdir, traced, after_job=None):
    """One pass of fresh ``qbh construct`` processes.

    Traced, each child records its own spans; the time a child spends
    saving them (its ``post_s``) is taken off its wall time and off the
    pass time.
    """
    import workloads

    result = Pass()
    runs = []
    for j, job in enumerate(jobs):
        out, log, err = (workdir / f"{name}{j}.txt" for name in ("out", "log", "err"))
        args = ["construct", "-c", str(workdir / f"c{j}.txt"),
                "-d", str(workdir / f"d{j}.txt"), "-o", str(out)]
        trace_file = workdir / f"trace{j}.pkl"
        if traced:
            cmd = [sys.executable, str(BENCH / "cold_child.py"), str(trace_file), *args]
        else:
            cmd = [sys.executable, "-m", "qbh.cli", *args]
        (code, ru), wall = _timed(lambda: _spawn(cmd, log, err))
        result.latencies.append(wall)
        result.child_rss = max(result.child_rss, _rss_mb(ru))
        runs.append((j, job, code, (out, log, err, trace_file), wall))
        if after_job:
            after_job(j, wall)
    for j, job, code, (out, log, err, trace_file), wall in runs:
        export = out.read_text() if out.exists() else ""
        problems = workloads.check_cold(job, code, log.read_text(), export)
        if problems:
            result.failures.append(f"job {j}: " + "; ".join(problems)
                                   + " " + err.read_text()[-500:])
        post_file = trace_file.with_name(trace_file.name + ".post")
        if traced and post_file.exists():
            post_s = float(post_file.read_text())
            result.latencies[j] -= post_s
            with open(trace_file, "rb") as fh:
                result.child_traces.append((wall - post_s, pickle.load(fh)))
        for path in (out, log, err, trace_file, post_file):
            path.unlink(missing_ok=True)
    return result


def run_pass(workload, jobs, workdir, rec=None, after_job=None):
    """One pass; traced when ``rec`` is given."""
    if workload == "construct-cold":
        return cold_pass(jobs, workdir, rec is not None, after_job)
    return in_process_pass(workload, jobs, rec, after_job)


# --- modes ----------------------------------------------------------------


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def measure(workload, seed, seconds, workdir):
    """End-to-end metrics of an untraced run."""
    import speed

    jobs = setup(workload, seed, workdir)
    sample_setup, setup_walls = setup_sampler(workload, seed, len(jobs))
    passes, factors = [], []
    start = time.perf_counter()
    while (len(passes) < MIN_PASSES.get(workload, 1)
           or time.perf_counter() - start < seconds):
        gauge = speed.Gauge(speed.REF_SHARE[workload])
        first = not passes

        def after_job(j, wall):
            if first:
                sample_setup(j)
            gauge.after(wall)

        passes.append(run_pass(workload, jobs, workdir, after_job=after_job))
        factors.append(gauge.factor)
    lat = [x for ps in passes for x in ps.latencies]
    if workload == "construct-cold":
        rss = max(ps.child_rss for ps in passes)
    else:
        rss = _rss_mb(resource.getrusage(resource.RUSAGE_SELF))

    def pass_time(scales):
        return sum(statistics.median(x / f for x, f in zip(runs, scales))
                   for runs in zip(*(ps.latencies for ps in passes)))

    setup_wall = statistics.median(setup_walls)
    metrics = {
        "setup_s": (setup_wall / factors[0], "s", len(setup_walls)),
        "pass_s": (pass_time(factors), "s", len(passes)),
        "peak_rss_mb": (rss, "MB", len(passes) if workload == "construct-cold" else 1),
    }
    # Job latency percentiles are printed but not gated: a run holds only
    # 20 to 50 jobs, and their ten-seed spread follows the host's speed
    # drift (0.1 to 0.3 of the median on a shared 2-CPU machine).
    notes = [
        f"{workload} setup_wall_s = {setup_wall:.6g} s (n={len(setup_walls)}, ungated)",
        f"{workload} pass_wall_s = {pass_time([1.0] * len(passes)):.6g} s"
        f" (n={len(passes)}, ungated)",
        f"{workload} speed_factor = {statistics.median(factors):.6g} ratio"
        f" (n={len(factors)}, ungated)",
        f"{workload} job_p50_s = {statistics.median(lat):.6g} s (n={len(lat)}, ungated)",
        f"{workload} job_p90_s = {_p90(lat):.6g} s (n={len(lat)}, ungated)",
    ]
    failures = [f for ps in passes for f in ps.failures]
    return metrics, len(lat), failures, notes


def measure_traced(workload, seed, workdir):
    """Per-layer metrics of a traced set-up and pass."""
    import spans
    import workloads

    rec = spans.Recorder()
    undo = spans.install(rec, also=(workloads,))
    with rec.span("bench.setup"):
        jobs = setup(workload, seed, workdir)
    spans.uninstall(undo)
    plain = run_pass(workload, jobs, workdir)
    # construct-cold children trace themselves; the parent stays
    # unwrapped, so checking their exports records no spans.
    undo = [] if workload == "construct-cold" else spans.install(rec, also=(workloads,))
    traced = run_pass(workload, jobs, workdir, rec=rec)
    spans.uninstall(undo)

    totals = spans.Totals()
    totals.add(rec.spans)
    field_ns = spans.microbench(rec.fields)
    cli_wall = 0.0
    for wall, child in traced.child_traces:
        totals.add(child["spans"])
        field_ns += child["fields"]
        cli_wall += wall
    metrics = spans.layer_metrics(totals, spans.field_means(field_ns),
                                  traced.wall, plain.wall, cli_wall)
    metrics = {k: (v, unit, 1) for k, (v, unit) in metrics.items()}
    shares = [
        f"{workload} share {layer}.self_s = {totals.layer(layer, totals.self_s) / traced.wall:.1%}"
        for layer in (*spans.LAYERS, "bench")
    ]
    shares.append(f"{workload} share cli.startup_s = "
                  f"{metrics['cli.startup_s'][0] / traced.wall:.1%}")
    attempted = len(plain.latencies) + len(traced.latencies)
    return metrics, attempted, plain.failures + traced.failures, shares


def context(seed):
    """Ungated facts about the machine and the code under test."""
    commit = "unknown"  # a checkout without .git has no commit to name
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "machine": f"{platform.machine()} {os.cpu_count()} cpus {platform.platform()}",
        "python": platform.python_version(),
        "commit": commit,
        "seed": seed,
        "src_lines": src_lines,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "qbh" / "__init__.py").is_file():
        print(f"error: no qbh package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from"
              f" {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        if args.setup_only:
            setup(args.workload, args.seed, workdir)
            return 0
        if args.trace:
            metrics, attempted, failures, notes = measure_traced(
                args.workload, args.seed, workdir)
        else:
            metrics, attempted, failures, notes = measure(
                args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print("context " + json.dumps(context(args.seed)))
    for name, (value, unit, n) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit} (n={n})")
    for line in notes:
        print(line)
    for problem in failures[:20]:
        print(f"check failed: {problem}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
