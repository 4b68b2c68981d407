"""Timing spans around every public ``qbh`` function, installed from outside.

``install`` wraps each public, non-generator function of the traced
layers and rebinds it in every ``qbh`` namespace that holds the
original, including names imported into other modules (``construct``
binds ``big_f_kernel`` and ``theta`` itself).  Hot scalar calls are
left alone; ``microbench`` measures ``Field.add`` and ``Field.mul``
separately.  Generator functions are not wrapped, because their work
runs interleaved with the caller and a span would cover only creation.

Spans are kept in memory as (name, start, end, parent) tuples, where
``parent`` is the index of the enclosing span or -1; a fifth item holds
counts derived from the call's arguments and result by a probe below,
so no counter lives inside the program.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import random
import statistics
import time

LAYERS = ("gf", "linalg", "lincode", "functional", "pauli", "construct",
          "statevec", "bh", "cli")

# Hot scalar calls, measured by ``microbench`` instead.
UNWRAPPED = frozenset({"lincode.encode"})

WALK_BUDGET = 1 << 22


class Recorder:
    """Append-only span store plus the stack of open spans."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.fields = {}          # distinct fields returned by field_make
        self._theta_keys = set()  # (table, lam) pairs already solved

    def span(self, name):
        return _Span(self, name)

    def record(self, name, fn, args, kwargs, probe):
        """Call ``fn`` inside a span; the probe's counts go on the span."""
        with self.span(name) as span:
            result = fn(*args, **kwargs)
        if probe is not None:
            self.spans[span.idx] += (probe(self, args, kwargs, result),)
        return result


class _Span:
    def __init__(self, rec, name):
        self.rec, self.name = rec, name

    def __enter__(self):
        rec = self.rec
        self.idx = len(rec.spans)
        rec.spans.append(None)
        self.parent = rec.stack[-1] if rec.stack else -1
        rec.stack.append(self.idx)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        self.rec.stack.pop()
        self.rec.spans[self.idx] = (self.name, self.t0, t1, self.parent)
        return False


# --- probes: counts from arguments and results ----------------------------


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _field_make(rec, args, kwargs, field):
    if field in rec.fields:
        return {"hits": 1}
    rec.fields[field] = None
    return {"built": 1}


def _rref(rec, args, kwargs, result):
    rows = _arg(args, kwargs, 1, "rows")
    if not hasattr(rows, "__len__") or not rows:
        return {"entries": 0}
    return {"entries": len(rows) * len(rows[0])}


def _words(rec, args, kwargs, result):
    return {"words": _arg(args, kwargs, 0, "code").size}


def _theta(rec, args, kwargs, result):
    key = (args[0], int(args[1]))  # holding the table keeps its identity unique
    if key in rec._theta_keys:
        return {"hits": 1}
    rec._theta_keys.add(key)
    return {}


def _walk(rec, args, kwargs, result):
    sc = args[0]
    f = sc.field
    dim = f.degree * (sc.n * sc.m + sc.k * sc.s)
    return {"elements": f.p ** dim}


def _fix_dim(rec, args, kwargs, result):
    s = args[0]
    if hasattr(s, "generators"):
        return {"labels": s.field.order ** s.num_qudits}
    gens = list(s)
    return {"labels": gens[0].field.order ** len(gens[0].a)}


def _apply(rec, args, kwargs, result):
    return {"labels": len(args[1].amps)}


def _bh_verify(rec, args, kwargs, result):
    n = args[0].order
    return {"entries": n * n * (n - 1) // 2}


def _linear_rows(rec, args, kwargs, result):
    n = args[0].order
    return {"entries": n * n * (n + 1) // 2}


PROBES = {
    "gf.field_make": _field_make,
    "linalg.rref": _rref,
    "lincode.min_distance": _words,
    "lincode.coset_leader_weight": _words,
    "functional.theta": _theta,
    "construct.distance_bruteforce": _walk,
    "statevec.fix_dim": _fix_dim,
    "statevec.apply": _apply,
    "bh.bh_verify": _bh_verify,
    "bh.linear_rows_check": _linear_rows,
}


# --- installing and removing the wrappers ---------------------------------


def _wrap(rec, name, fn):
    probe = PROBES.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return rec.record(name, fn, args, kwargs, probe)

    return wrapper


def install(rec, also=()):
    """Wrap the traced layers; returns the undo list for ``uninstall``.

    ``also`` names further modules (the benchmark's own) whose bindings
    of ``qbh`` functions are rebound too.
    """
    import qbh

    modules = {layer: importlib.import_module(f"qbh.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            name = f"{layer}.{attr}"
            if (attr.startswith("_") or name in UNWRAPPED
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(obj)):
                continue
            wrappers[obj] = _wrap(rec, name, obj)
    undo = []
    for mod in (qbh, *modules.values(), *also):
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
                undo.append((mod, attr, obj))
    return undo


def uninstall(undo):
    for mod, attr, obj in undo:
        setattr(mod, attr, obj)


# --- reading spans --------------------------------------------------------


def self_times(spans):
    """Each span's duration minus the durations of its child spans.

    Spans come from one stack, so children nest inside their parent and
    never overlap one another.
    """
    out = [t1 - t0 for _, t0, t1, *_ in spans]
    for _, t0, t1, parent, *_ in spans:
        if parent >= 0:
            out[parent] -= t1 - t0
    return out


class Totals:
    """Per-name sums over one or more span lists.

    ``nested`` counts calls by (parent name, name), for counts that are
    a number of calls made from one function, such as the ``apply``
    trials of ``stab_of_span``.
    """

    def __init__(self):
        self.calls, self.total, self.self_s = {}, {}, {}
        self.counts, self.peaks, self.nested = {}, {}, {}

    def add(self, spans):
        for (name, t0, t1, parent, *counts), own in zip(spans, self_times(spans)):
            self.calls[name] = self.calls.get(name, 0) + 1
            if parent >= 0:
                pair = (spans[parent][0], name)
                self.nested[pair] = self.nested.get(pair, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + (t1 - t0)
            self.self_s[name] = self.self_s.get(name, 0.0) + own
            for key, v in (counts[0] if counts else {}).items():
                ckey = f"{name}:{key}"
                self.counts[ckey] = self.counts.get(ckey, 0) + v
                self.peaks[ckey] = max(self.peaks.get(ckey, 0), v)

    def layer(self, layer, table):
        prefix = layer + "."
        return sum(v for k, v in table.items() if k.startswith(prefix))

    def count(self, name, key):
        return self.counts.get(f"{name}:{key}", 0)


def microbench(fields, ops=20000):
    """Nanoseconds per ``Field.add`` and ``Field.mul`` on each field.

    Returns [((p, degree), add_ns, mul_ns)].  Every field gets the same
    number of operand pairs, drawn from a constant seed.
    """
    rng = random.Random(0)
    out = []
    for f in fields:
        pairs = [(rng.randrange(f.order), rng.randrange(f.order)) for _ in range(ops)]
        add, mul = f.add, f.mul
        t0 = time.perf_counter()
        for a, b in pairs:
            add(a, b)
        t1 = time.perf_counter()
        for a, b in pairs:
            mul(a, b)
        t2 = time.perf_counter()
        out.append(((f.p, f.degree), (t1 - t0) / ops * 1e9, (t2 - t1) / ops * 1e9))
    return out


def field_means(samples):
    """Mean add and mul cost over the distinct fields in ``samples``."""
    by_field = {}
    for key, add_ns, mul_ns in samples:
        by_field.setdefault(key, []).append((add_ns, mul_ns))
    if not by_field:
        return 0.0, 0.0
    per = [(statistics.fmean(a for a, _ in v), statistics.fmean(m for _, m in v))
           for v in by_field.values()]
    return statistics.fmean(a for a, _ in per), statistics.fmean(m for _, m in per)


def layer_metrics(t, fields_ns, pass_s, untraced_pass_s, cli_wall_s):
    """Every per-layer metric, as {name: (value, unit)}."""
    calls, total, self_s = t.calls, t.total, t.self_s

    def ratio(num, den):
        return num / den if den else 0.0

    fm_calls = calls.get("gf.field_make", 0)
    theta_calls = calls.get("functional.theta", 0)
    walk_elements = t.count("construct.distance_bruteforce", "elements")
    walk_self = self_s.get("construct.distance_bruteforce", 0.0)
    apply_s = total.get("statevec.apply", 0.0)
    main_s = total.get("cli.main", 0.0)
    n_spans = sum(calls.values())
    m = {
        "gf.field_make_s": (total.get("gf.field_make", 0.0), "s"),
        "gf.fields_built": (t.count("gf.field_make", "built"), "count"),
        "gf.field_cache_hit_ratio": (ratio(t.count("gf.field_make", "hits"), fm_calls), "ratio"),
        "gf.add_ns": (fields_ns[0], "ns"),
        "gf.mul_ns": (fields_ns[1], "ns"),
        "linalg.self_s": (t.layer("linalg", self_s), "s"),
        "linalg.calls": (t.layer("linalg", calls), "count"),
        "linalg.entries": (t.count("linalg.rref", "entries"), "count"),
        "lincode.self_s": (t.layer("lincode", self_s), "s"),
        "lincode.words_enumerated": (
            t.count("lincode.min_distance", "words")
            + t.count("lincode.coset_leader_weight", "words"), "count"),
        "functional.self_s": (t.layer("functional", self_s), "s"),
        "functional.kernel_s": (total.get("functional.big_f_kernel", 0.0), "s"),
        "functional.theta_calls": (theta_calls, "count"),
        "functional.theta_hit_ratio": (ratio(t.count("functional.theta", "hits"), theta_calls), "ratio"),
        "construct.build_s": (total.get("construct.build", 0.0), "s"),
        "construct.ell_s": (total.get("construct.ell", 0.0), "s"),
        "construct.export_s": (total.get("construct.stab_to_text", 0.0), "s"),
        "construct.centralizer_s": (total.get("construct.centralizer_basis", 0.0), "s"),
        "construct.brute_s": (total.get("construct.distance_bruteforce", 0.0), "s"),
        "construct.walk_elements": (walk_elements, "count"),
        "construct.walk_rate": (ratio(walk_elements, walk_self), "1/s"),
        "construct.budget_use": (
            t.peaks.get("construct.distance_bruteforce:elements", 0) / WALK_BUDGET, "ratio"),
        "pauli.self_s": (t.layer("pauli", self_s), "s"),
        "pauli.calls": (t.layer("pauli", calls), "count"),
        "statevec.fix_dim_s": (total.get("statevec.fix_dim", 0.0), "s"),
        "statevec.fix_dim_labels": (t.count("statevec.fix_dim", "labels"), "count"),
        "statevec.apply_s": (apply_s, "s"),
        "statevec.apply_calls": (calls.get("statevec.apply", 0), "count"),
        "statevec.apply_label_rate": (ratio(t.count("statevec.apply", "labels"), apply_s), "1/s"),
        "statevec.states_s": (total.get("statevec.big_phi", 0.0)
                              + total.get("statevec.big_phi_from_matrix", 0.0), "s"),
        "statevec.stab_of_span_s": (total.get("statevec.stab_of_span", 0.0), "s"),
        "statevec.stab_trials": (
            t.nested.get(("statevec.stab_of_span", "statevec.apply"), 0), "count"),
        "bh.self_s": (t.layer("bh", self_s), "s"),
        "bh.entries_checked": (t.count("bh.bh_verify", "entries")
                               + t.count("bh.linear_rows_check", "entries"), "count"),
        "cli.main_s": (main_s, "s"),
        "cli.startup_s": (cli_wall_s - main_s if cli_wall_s else 0.0, "s"),
        "trace.spans": (n_spans, "count"),
        "trace.pass_s": (pass_s, "s"),
        "trace.overhead_s": (pass_s - untraced_pass_s, "s"),
    }
    return m
