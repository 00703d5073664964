"""Run one workload of the ordtop benchmark and print its metrics.

    python3 bench/run.py --workload tower --seed 1 --seconds 15 --trace 0

Run from the root of a checkout: the program is imported from ./src.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it records the
environment, the per-class operation counts and any rejected answers.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones from a run whose public functions are wrapped.
"""

import argparse
import gc
import importlib
import json
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
EXPECTED_LIMITS = (8, 32)  # exact_field's default height and degree caps


class BenchError(Exception):
    """The run cannot produce trustworthy figures; nothing is reported."""


def import_program():
    if not os.path.isfile(os.path.join(SRC, "ordtop", "__init__.py")):
        raise BenchError(f"no ordtop sources under {SRC}")
    sys.path.insert(0, SRC)
    modules = {name: importlib.import_module(f"ordtop.{name}") for name in tracing.LAYERS}
    for mod in modules.values():
        if not os.path.abspath(mod.__file__).startswith(SRC + os.sep):
            raise BenchError(f"{mod.__name__} was imported from {mod.__file__}, not {SRC}")
    return modules


def cold_import_seconds():
    """Time to import the layer modules in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            + "; ".join(f"import ordtop.{m}" for m in tracing.LAYERS)
            + "; print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, SRC], capture_output=True,
                          text=True, timeout=60, check=True)
    return float(done.stdout)


def check_limits(exact_field, when):
    limits = exact_field.get_limits()
    if limits != EXPECTED_LIMITS:
        raise BenchError(f"exact_field limits are {limits} {when} the run, "
                         f"expected {EXPECTED_LIMITS}")


def run(workload, seed, seconds, trace):
    modules = import_program()
    check_limits(modules["exact_field"], "before")
    wl = workloads.load(workload)
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install(modules)
    # Set-up is timed SETUP_REPEATS times; each part is scaled by the mean
    # of the two reference timings that bracket it.
    refs = [harness.reference_seconds()]
    imports, builds = [], []
    for _ in range(SETUP_REPEATS):
        imports.append(cold_import_seconds())
        refs.append(harness.reference_seconds())
    for _ in range(SETUP_REPEATS):
        classes = None
        gc.collect()  # every build starts from the same heap
        t0 = time.perf_counter()
        classes = wl.build(random.Random(seed))
        builds.append(time.perf_counter() - t0)
        refs.append(harness.reference_seconds())
    speeds = [2 * harness.REF_NOMINAL_S / (a + b) for a, b in zip(refs, refs[1:])]
    scaled = [t * f for t, f in zip(imports + builds, speeds)]
    raw_setup_s = statistics.median(imports) + statistics.median(builds)
    setup_s = (statistics.median(scaled[:SETUP_REPEATS])
               + statistics.median(scaled[SETUP_REPEATS:]))

    # The input pools live for the whole run; keep them out of the
    # collector's full passes so their size does not tax the program.
    gc.collect()
    gc.freeze()
    res = harness.run_rounds(classes, seconds, tracer)
    check_limits(modules["exact_field"], "after")

    tail, beyond = harness.tail_latency(res.scaled, wl.TAIL_PERCENTILE)
    throughput = res.throughput(res.scaled)
    p50 = statistics.median(res.scaled) * 1e3
    if trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, value, unit in tracing.layer_metrics(tracer)}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "throughput_ops_s": {"value": throughput, "unit": "ops/s"},
            "latency_p50_ms": {"value": p50, "unit": "ms"},
            "latency_tail_ms": {"value": tail, "unit": "ms"},
            "peak_rss_mb": {"value": harness.peak_rss_mb(), "unit": "MB"},
        }
    info = {
        "workload": workload,
        "trace": int(bool(trace)),
        **harness.environment(ROOT, seed),
        "limits": list(EXPECTED_LIMITS),
        "rounds": res.rounds,
        "timed_s": res.timed_s,
        "throughput_ops_s": throughput,
        "speed_median": statistics.median(res.speed),
        "speed_min": min(res.speed),
        "speed_max": max(res.speed),
        "setup_speed": statistics.median(speeds),
        "raw": {
            "setup_s": raw_setup_s,
            "setup_import_s": imports,
            "setup_build_s": builds,
            "throughput_ops_s": res.throughput(res.latencies),
            "latency_p50_ms": statistics.median(res.latencies) * 1e3,
            "latency_tail_ms": harness.tail_latency(res.latencies, wl.TAIL_PERCENTILE)[0],
        },
        "tail_percentile": wl.TAIL_PERCENTILE,
        "samples": len(res.latencies),
        "samples_beyond_tail": beyond,
        "per_class": res.per_class,
        "problems": res.problems[:20],
    }
    result = {
        "correct": not any(": check failed:" in p for p in res.problems),
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": metrics,
    }
    return info, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        info, result = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.SubprocessError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for problem in info["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
