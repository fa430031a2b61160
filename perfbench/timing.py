"""Arithmetic of the benchmark: percentiles, failure counts and self time.

Kept free of any import of the package under test so that its tests run
without it.
"""

from __future__ import annotations

import bisect
import gc
import math
import signal
import statistics
import time
from collections import Counter
from fractions import Fraction
from typing import Sequence

# A tail percentile is reported only with at least this many samples
# beyond it.
MIN_BEYOND = 10


def nearest_rank(samples: Sequence[float], pct: float) -> float:
    """The nearest-rank ``pct`` percentile: the smallest sample with at
    least ``pct`` percent of all samples at or below it."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie strictly above the nearest-rank
    ``pct`` percentile (ties aside)."""
    return count - max(1, math.ceil(pct / 100 * count))


def min_samples_for(pct: float, min_beyond: int = MIN_BEYOND) -> int:
    """Fewest samples for which ``min_beyond`` lie beyond the ``pct``
    percentile."""
    n = 1
    while beyond(n, pct) < min_beyond:
        n += 1
    return n


# Seconds one ``calibrate()`` takes at the reference speed (a 2-core
# x86-64 virtual machine under Python 3.11, quiet).  Scaled times are
# reported at this speed: see ``speed_factor``.  The constant only sets the
# unit; two runs on one machine compare the same way whatever its value.
CALIB_REF_S = 0.0062


def calibrate(repeats: int = 1) -> float:
    """Best-of-``repeats`` time of a fixed pure-Python loop (Fractions, big
    integers, a dict and a sort, like the package's own work), run with the
    garbage collector off so that the heap of the process does not change
    it.  It tracks the CPU speed the process gets at that moment, which on
    a shared machine drifts by 10-30% within seconds."""
    best = math.inf
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            t0 = time.perf_counter()
            acc, table = Fraction(0), {}
            for i in range(1, 1500):
                acc += Fraction(i % 97, i)
                table[i % 211] = table.get(i % 211, 0) + i * i
            sorted(table.values())
            best = min(best, time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return best


# Calibrations on each side of an operation that set its speed factor.
CALIB_NEIGHBOURS = 2


def speed_factor(calibrations: Sequence[tuple], at: float) -> float:
    """Factor that scales the time of an operation started at ``at`` to
    the reference speed.  ``calibrations`` holds ``(time, seconds)`` pairs
    in time order; the median of the ``CALIB_NEIGHBOURS`` before and after
    ``at`` gives the speed of the machine while the operation ran, and
    discounts the transient noise of a single calibration."""
    times = [c[0] for c in calibrations]
    j = bisect.bisect(times, at)
    near = calibrations[max(0, j - CALIB_NEIGHBOURS) : j + CALIB_NEIGHBOURS]
    return CALIB_REF_S / statistics.median(c[1] for c in near)


class OpTimeout(Exception):
    """An operation ran past its time limit."""


def call_with_timeout(fn, seconds: float):
    """Run ``fn()`` and raise ``OpTimeout`` if it runs longer than
    ``seconds``.  Uses SIGALRM, so it interrupts Python code (not a call
    blocked inside native code) and must run in the main thread."""

    def expire(signum, frame):
        raise OpTimeout(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# Outcome of one attempted operation.
OK, WRONG, ERROR, TIMEOUT = "ok", "wrong", "error", "timeout"


class Outcomes:
    """Counts attempted operations and the failed ones by reason.

    A failure is a wrong answer (a mismatch with the oracle), an
    unexpected exception or a timeout.
    """

    def __init__(self):
        self.by_status: Counter = Counter()
        self.failed_kinds: Counter = Counter()

    def add(self, status: str, kind: str = "") -> None:
        if status not in (OK, WRONG, ERROR, TIMEOUT):
            raise ValueError(f"unknown status {status!r}")
        self.by_status[status] += 1
        if status != OK:
            self.failed_kinds[kind] += 1

    @property
    def attempted(self) -> int:
        return sum(self.by_status.values())

    @property
    def failed(self) -> int:
        return self.attempted - self.by_status[OK]

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def self_times(spans: Sequence[tuple]) -> dict:
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover.

    ``spans`` holds ``(span_id, name, start, end, parent_id)`` tuples;
    ``parent_id`` is None for a root.  Overlapping children are counted
    once, and a child is clipped to its parent's interval.
    """
    children: dict = {}
    for span in spans:
        children.setdefault(span[4], []).append(span)
    out = {}
    for sid, _name, start, end, _parent in spans:
        covered = 0.0
        cursor = start
        for _cid, _cname, cstart, cend, _p in sorted(
            children.get(sid, ()), key=lambda s: s[2]
        ):
            lo, hi = max(cstart, cursor), min(cend, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[sid] = (end - start) - covered
    return out


def busy_by_name(spans: Sequence[tuple]) -> Counter:
    """Total self time per span name."""
    own = self_times(spans)
    busy: Counter = Counter()
    for span in spans:
        busy[span[1]] += own[span[0]]
    return busy
