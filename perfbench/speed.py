"""A fixed reference kernel that gauges the host's speed during a pass.

The benchmark runs on small shared machines whose speed swings by 20 to
40% within minutes, while the program's work stays the same.  Timing a
fixed piece of pure-Python work after each job of a pass, in proportion
to that job's wall time, samples the host's speed over the same stretch
as the pass.  The kernel is the benchmark's own code and does not touch
``qbh``, so a change to the program never moves it.  Its two halves do
the kinds of work ``qbh`` does: digit-tuple polynomial arithmetic with a
log table (field tables), and dicts of label tuples mapped through a
shift and a phase (state vectors).

``Gauge.factor`` is the measured time of one unit divided by
``UNIT_NOMINAL_S``: 1.0 at the nominal speed, above 1.0 on a slower
host.  Dividing a wall time by it gives the time at the nominal speed.
"""

from __future__ import annotations

import gc
import time

# Seconds one unit takes at the nominal speed (a 2 GHz Xeon vCPU,
# CPython 3.11).  Any fixed value works: only ratios between runs of
# the same benchmark matter.
UNIT_NOMINAL_S = 0.01

# Reference time run after each job, as a share of that job's wall.
# Each share gives 4 to 7 s of reference time per run, enough to
# average out the host's sub-second jitter (up to +-30%).
REF_SHARE = {"certify": 0.1, "construct-cold": 0.18, "span-stabilizer": 0.18}

# GF(2^12) as digit tuples, modulus x^12 + x^6 + x^4 + x + 1.
_P, _T = 2, 12
_MODULUS = (1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1)
_FIELD_STEPS = 340
_LABEL_BITS = 10


def _mul_mod(a, b):
    prod = [0] * (2 * _T - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % _P
    for i in range(len(prod) - 1, _T - 1, -1):
        c = prod[i]
        if c:
            for j in range(_T + 1):
                prod[i - _T + j] = (prod[i - _T + j] - c * _MODULUS[j]) % _P
    return tuple(prod[:_T])


def _field_half():
    g = (0, 1) + (0,) * (_T - 2)
    cur, log = g, {}
    for i in range(_FIELD_STEPS):
        log[cur] = i
        cur = _mul_mod(cur, g)
    return len(log)


def _state_half():
    amps = {tuple((x >> b) & 1 for b in range(_LABEL_BITS)): (x % 5, x % 3)
            for x in range(1 << _LABEL_BITS)}
    shift = (1, 0, 1) + (0,) * (_LABEL_BITS - 3)
    out = {}
    for label, (re, im) in amps.items():
        for _ in range((label[0] + 2 * label[1]) % 4):
            re, im = -im, re
        out[tuple((u + v) % 2 for u, v in zip(label, shift))] = (re, im)
    return len(out)


def unit():
    """One unit of reference work."""
    return _field_half() + _state_half()


class Gauge:
    """Reference time sampled after each job of one pass."""

    def __init__(self, share):
        self.share = share
        self.units = 0
        self.seconds = 0.0

    def after(self, job_wall):
        # The kernel makes no reference cycles.  With the collector off,
        # its time does not depend on how many objects the jobs left in
        # the process.
        n = max(1, round(self.share * job_wall / UNIT_NOMINAL_S))
        gc.disable()
        try:
            t0 = time.perf_counter()
            for _ in range(n):
                unit()
            self.seconds += time.perf_counter() - t0
        finally:
            gc.enable()
        self.units += n

    @property
    def factor(self):
        return self.seconds / (self.units * UNIT_NOMINAL_S)
