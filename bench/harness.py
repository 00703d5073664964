"""Closed-loop round runner, host-speed scaling, latency statistics and run metadata.

A workload is a list of operation classes.  One round issues, for every
class in order, its fixed number of operations back to back; a run
repeats whole rounds until the timed operations add up to the run
length.  Each operation is timed on its own and its output is checked
right after, outside the timed region.

The host this runs on is shared: the speed of one fixed operation
swings by up to 2x, in spells from a fraction of a second to minutes.
The runner therefore times a fixed pure-Python reference loop
(benchmark code, never program code) before the first operation and
after every SEGMENT_S of timed work, outside the timed region.  The
operations of a segment are scaled by REF_NOMINAL_S over the median of
the SPEED_WINDOW reference timings on each side of it, so that one odd
reference timing does not move a segment.  A scaled timing is what the
operation would take on a host that runs the reference loop in
REF_NOMINAL_S; the raw timings are kept next to it.  Program changes
cannot move the reference loop, so the scaling takes out the host's
speed and leaves the program's.
"""

import math
import os
import resource
import statistics
import sys
import time
from fractions import Fraction


class CheckFailed(AssertionError):
    """An operation returned an answer that an independent check rejects."""


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


# The usual time of reference_loop() on the machine behind the reference
# figures in README.md (Python 3.11.7, 2 shared cores); scaled timings are
# in its terms.
REF_NOMINAL_S = 0.0003
REF_REPEATS = 5
SEGMENT_S = 0.1
SPEED_WINDOW = 3  # reference timings on each side of a segment


def reference_loop():
    """Fixed interpreter work of the program's kind: Fractions, dicts keyed
    by tuples, small sorts and sets."""
    acc = {}
    total = Fraction(0)
    seen = set()
    for i in range(1, 60):
        key = (i % 7, i % 5)
        acc[key] = acc.get(key, 0) + i * i
        total += Fraction(i, i + 3)
        seen.add(tuple(sorted((i % 11, i % 13, i % 3))))
    return total, acc, seen


def reference_seconds():
    """Median of REF_REPEATS timings of the reference loop."""
    clock = time.perf_counter
    times = []
    for _ in range(REF_REPEATS):
        t0 = clock()
        reference_loop()
        times.append(clock() - t0)
    return statistics.median(times)


class OpClass:
    """One kind of top-level operation with its seeded input pool.

    run(inp) is the timed call into ordtop; check(inp, out) raises
    CheckFailed on a wrong answer.  An exception from run() counts the
    operation as failed; `known_fault` names the exception type of a
    documented program fault, every other exception is unexpected.
    """

    __slots__ = ("name", "run", "check", "inputs", "per_round", "known_fault")

    def __init__(self, name, run, check, inputs, per_round=1, known_fault=None):
        if not inputs:
            raise ValueError(f"operation class {name} has no inputs")
        self.name = name
        self.run = run
        self.check = check
        self.inputs = list(inputs)
        self.per_round = per_round
        self.known_fault = known_fault


def stratified(rng, draw, cost, strata):
    """Inputs from draw(rng) with a fixed make-up by a cost proxy.

    strata is a list of (limit, count) with rising limits: stratum k takes
    count inputs with cost(x) in [limit of stratum k - 1, limit), where a
    limit of None is no upper limit.  Draws beyond the last limit, or into
    a full stratum, are discarded.  The result spreads each stratum evenly
    over the list, so every stretch of it that a run reaches has the same
    make-up, and seeds differ in the inputs' details rather than in their
    cost.
    """
    buckets = [[] for _ in strata]
    lows = [0] + [limit for limit, _ in strata[:-1]]
    while any(len(b) < n for b, (_, n) in zip(buckets, strata)):
        x = draw(rng)
        c = cost(x)
        for b, low, (limit, n) in zip(buckets, lows, strata):
            if low <= c and (limit is None or c < limit):
                if len(b) < n:
                    b.append(x)
                break
    keyed = [((i + rng.random()) / len(b), k, x)
             for k, b in enumerate(buckets) for i, x in enumerate(b)]
    keyed.sort(key=lambda t: t[:2])
    return [x for _, _, x in keyed]


class RunResult:
    __slots__ = ("latencies", "scaled", "speed", "refs", "segment_ends", "timed_s",
                 "rounds", "per_class", "problems")

    def __init__(self, classes):
        self.latencies = []  # raw seconds per operation, in issue order
        self.scaled = []  # the same, scaled to the reference host speed
        self.speed = []  # scale factor of each segment
        self.refs = []  # reference timings; refs[k] and refs[k + 1] bracket segment k
        self.segment_ends = []  # index into latencies where each segment ends
        self.timed_s = 0.0
        self.rounds = 0
        self.per_class = {c.name: {"attempted": 0, "failed": 0, "unexpected": 0,
                                   "seconds": 0.0} for c in classes}
        self.problems = []

    @property
    def attempted(self):
        return sum(v["attempted"] for v in self.per_class.values())

    @property
    def failed(self):
        return sum(v["failed"] for v in self.per_class.values())

    def throughput(self, latencies):
        """Completed operations per second of the given timings' sum."""
        return (self.attempted - self.failed) / sum(latencies)


def run_rounds(classes, seconds, tracer=None):
    """Issue whole rounds until the timed operations reach `seconds`."""
    res = RunResult(classes)
    clock = time.perf_counter
    res.refs.append(reference_seconds())
    segment_s = 0.0
    while res.timed_s < seconds:
        r = res.rounds
        for c in classes:
            counts = res.per_class[c.name]
            pool = c.inputs
            for j in range(c.per_round):
                inp = pool[(r * c.per_round + j) % len(pool)]
                if tracer is not None:
                    tracer.enabled = True
                t0 = clock()
                try:
                    out = c.run(inp)
                    err = None
                except Exception as exc:  # a failed operation, counted below
                    out, err = None, exc
                dt = clock() - t0
                if tracer is not None:
                    tracer.enabled = False
                res.latencies.append(dt)
                res.timed_s += dt
                segment_s += dt
                counts["seconds"] += dt
                counts["attempted"] += 1
                if err is not None:
                    counts["failed"] += 1
                    if c.known_fault is None or not isinstance(err, c.known_fault):
                        counts["unexpected"] += 1
                        res.problems.append(
                            f"{c.name}: unexpected {type(err).__name__}: {err}")
                else:
                    try:
                        c.check(inp, out)
                    except Exception as exc:  # a check that cannot run is a failed check
                        res.problems.append(
                            f"{c.name}: check failed: {type(exc).__name__}: {exc}")
                if segment_s >= SEGMENT_S:
                    res.refs.append(reference_seconds())
                    res.segment_ends.append(len(res.latencies))
                    segment_s = 0.0
        res.rounds += 1
    if not res.segment_ends or res.segment_ends[-1] < len(res.latencies):
        res.refs.append(reference_seconds())
        res.segment_ends.append(len(res.latencies))
    scale(res)
    return res


def scale(res):
    """Fill res.speed and res.scaled from the reference timings."""
    start = 0
    for k, end in enumerate(res.segment_ends):
        window = res.refs[max(0, k + 1 - SPEED_WINDOW):k + 1 + SPEED_WINDOW]
        factor = REF_NOMINAL_S / statistics.median(window)
        res.speed.append(factor)
        res.scaled.extend(t * factor for t in res.latencies[start:end])
        start = end


def tail_latency(latencies, percentile):
    """Nearest-rank latency at `percentile` in ms, and the samples beyond it."""
    ordered = sorted(latencies)
    k = max(0, min(len(ordered) - 1, math.ceil(percentile / 100.0 * len(ordered)) - 1))
    return ordered[k] * 1e3, len(ordered) - 1 - k


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def read_commit(root):
    """Commit id from the checkout's .git directory, without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def environment(root, seed):
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "commit": read_commit(root),
        "seed": seed,
    }
