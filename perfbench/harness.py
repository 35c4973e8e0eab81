"""Measuring loop shared by the workloads and the traced run: whole cycles
of checked tasks, per-task latency, failure accounting and set-up timing.

Every timing is reported at reference interpreter speed.  The machine the
benchmark was built on changes speed by about 25 % over windows of 2-20 s,
because of load from outside the process, and that moves every Python
workload alike.  So the loop times a fixed calibration snippet (dict and
integer work, no incring code) about twice a second, between tasks (for
cli, around every invocation), and scales each task's latency by C_REF_S over the snippet's time around it.
A change to the program moves the scaled figures as much as the raw ones;
a change of host speed moves the raw ones only.  Raw figures stay in the
run's detail line.
"""

import itertools
import math
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
C_REF_S = 0.8e-3  # the snippet's median time on the 2-core build machine
PROBE_EVERY_S = 0.5
PERCENTILES = (("task_p50_ms", 0.50), ("task_p90_ms", 0.90), ("task_p99_ms", 0.99))
# A percentile with fewer samples beyond it than this is reported, since every
# workload reports every metric, but marked unsupported and given no verdict.
MIN_BEYOND = 10


class SourceMissing(Exception):
    """The checkout holds no incring sources to benchmark."""


def import_library():
    """Import incring from this checkout's src/, never from anywhere else."""
    if not (SRC / "incring" / "__init__.py").is_file():
        raise SourceMissing("no incring sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import incring
    import incring.cli  # noqa: F401

    if Path(incring.__file__).resolve().parent != (SRC / "incring").resolve():
        raise SourceMissing("incring resolved outside the checkout: %s" % incring.__file__)


# A fresh interpreter that imports incring.cli from the src/ directory given
# as its argument and prints how long the import took, in seconds.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import incring, incring.cli; print(time.perf_counter() - t)"
)


def import_s():
    """Median of IMPORT_REPEATS first imports of incring.cli, each timed by
    a fresh child interpreter and scaled like a task by the speed probes
    taken before and after it."""
    times = []
    before = calibration_s()
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                             capture_output=True, text=True, timeout=60, check=True)
        after = calibration_s()
        times.append(float(out.stdout) * C_REF_S / ((before + after) / 2))
        before = after
    return statistics.median(times)


# -- measuring ------------------------------------------------------------------


def percentile(sorted_values, q):
    """Percentile of an ascending list, interpolated linearly between the
    two closest ranks (numpy's default).  In a short run, such as a cli run
    of about 100 invocations, a nearest-rank p99 is the run's largest or
    second largest sample, and which one depends on the cycle count."""
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def beyond(n, q):
    """How many of n samples lie above their percentile q."""
    return n - 1 - math.floor(q * (n - 1))


def calibration_s():
    """Median time of five runs of a fixed interpreter-bound snippet."""
    times = []
    for _ in range(5):
        d = {}
        t0 = time.perf_counter_ns()
        for i in range(2000):
            k = (i & 63, i % 7)
            d[k] = (d.get(k, 0) + i * 31) % 1000003
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times) / 1e9


class Tally:
    """Latencies, speed factors and failures of the tasks one loop ran."""

    def __init__(self):
        self.latencies_ns = []
        self.factors = []  # C_REF_S / snippet time, one per task
        self.cycles = []  # (first task index, end index, tasks passed)
        self.failures = Counter()
        self.attempted = 0

    @property
    def failed(self):
        return sum(self.failures.values())

    def scaled_ns(self, i):
        return self.latencies_ns[i] * self.factors[i]

    def cycle_rates(self, scaled=True):
        rates = []
        for first, end, passed in self.cycles:
            if scaled:
                took = sum(self.scaled_ns(i) for i in range(first, end))
            else:
                took = sum(self.latencies_ns[first:end])
            rates.append(passed / took * 1e9)
        return rates

    @property
    def tasks_per_s(self):
        """Median over whole cycles of checked tasks per scaled second of
        task time, so that a burst of load from outside moves it less."""
        return statistics.median(self.cycle_rates())


def attempt(share, task, tally):
    """Run one task and record it.  Failures are counted, never retried."""
    t0 = time.perf_counter_ns()
    try:
        ok = task()
        reason = None if ok is True else "oracle"
    except Exception as exc:  # a task fails on any unexpected exception
        reason = type(exc).__name__
    tally.latencies_ns.append(time.perf_counter_ns() - t0)
    tally.attempted += 1
    if reason is not None:
        tally.failures["%s:%s" % (share, reason)] += 1


def run_cycles(cycles, seconds, tally=None, on_task=None, probe_every_s=PROBE_EVERY_S):
    """Run whole cycles, taking the given ones in turn, until `seconds` have
    elapsed, probing host speed between tasks at most every `probe_every_s`."""
    tally = tally or Tally()
    start = time.perf_counter()
    last = calibration_s()
    probed, pending = time.perf_counter(), []
    for k in itertools.count():
        first, passed = tally.attempted, tally.attempted - tally.failed
        for share, task in cycles[k % len(cycles)]:
            if on_task is not None:
                on_task(tally.attempted)
            pending.append(tally.attempted)
            tally.factors.append(None)
            attempt(share, task, tally)
            if time.perf_counter() - probed >= probe_every_s:
                last = _close_segment(tally, pending, last)
                probed, pending = time.perf_counter(), []
        tally.cycles.append((first, tally.attempted, tally.attempted - tally.failed - passed))
        if time.perf_counter() - start >= seconds:
            _close_segment(tally, pending, last)
            return tally


def _close_segment(tally, pending, before):
    """Give the tasks since the last probe the speed factor measured around
    them; returns the new probe's time."""
    after = calibration_s()
    factor = C_REF_S / ((before + after) / 2)
    for i in pending:
        tally.factors[i] = factor
    return after


def timed_setup(build, seed, warm):
    """Median of SETUP_REPEATS rounds of input generation plus warm-up, each
    scaled like a task.  Returns (median seconds, every round's cycle).

    Round r builds its inputs from seed * SETUP_REPEATS + r, and the timed
    loop takes the rounds' cycles in turn.  A run then sees three times as
    many distinct inputs as one cycle holds, so its tail percentiles, which
    a few heavy inputs decide, depend less on the seed."""
    times, cycles = [], []
    before = calibration_s()
    for r in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cycles.append(build(seed * SETUP_REPEATS + r))
        warm(cycles[-1])
        took = time.perf_counter() - t0
        after = calibration_s()
        times.append(took * C_REF_S / ((before + after) / 2))
        before = after
    return statistics.median(times), cycles


def warm_in_process(cycle):
    """One task of every share, outside the timed loop."""
    seen = set()
    for share, task in cycle:
        if share not in seen:
            seen.add(share)
            attempt(share, task, Tally())


def end_to_end(tally, setup_s, peak_rss_kib):
    """name -> (value, unit, sample count), the unscaled timings, and the
    percentiles with fewer than MIN_BEYOND samples beyond them."""
    n = tally.attempted
    scaled = sorted(tally.scaled_ns(i) for i in range(n))
    raw = sorted(tally.latencies_ns)
    metrics = {"tasks_per_s": (tally.tasks_per_s, "tasks/s", len(tally.cycles))}
    unscaled = {"tasks_per_s": statistics.median(tally.cycle_rates(scaled=False))}
    for name, q in PERCENTILES:
        metrics[name] = (percentile(scaled, q) / 1e6, "ms", n)
        unscaled[name] = percentile(raw, q) / 1e6
    metrics["setup_s"] = (setup_s, "s", SETUP_REPEATS)
    metrics["peak_rss_mib"] = (peak_rss_kib / 1024.0, "MiB", 1)
    unscaled["speed_factor_median"] = statistics.median(tally.factors)
    unsupported = [name for name, q in PERCENTILES if beyond(n, q) < MIN_BEYOND]
    return metrics, unscaled, unsupported
