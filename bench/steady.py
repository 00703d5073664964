"""Steadiness check: two sets of runs of the same code, compared.

    python3 bench/steady.py --runs 10                 # every workload
    python3 bench/steady.py --runs 5 --workloads words
    python3 bench/steady.py --overhead --workloads tower

Each run is its own process (bench/run.py), one after another, each
with another seed; the second set uses seeds the first did not.  For
every workload and end-to-end metric the report gives both medians,
their quartiles, the spread of each set (interquartile distance over
the median) and whether the sets agree within the metric's bound in
BENCHMARK.json: each spread within the bound (setup_s exempt) and the
second median no worse than the first by more than the bound.  The
share of failed operations must be identical in every run.

--overhead instead runs each workload once untraced and once traced on
the same seed and reports how much the tracing lowers throughput.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_once(workload, seed, seconds, trace=0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}: {done.stderr.strip()}")
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def compare_sets(metric, a, b):
    sa, sb = summary(a), summary(b)
    shift = (sb["median"] - sa["median"]) / sa["median"]
    worse = shift if metric["better"] == "lower" else -shift
    spread_ok = metric["name"] == "setup_s" or (
        sa["spread"] <= metric["bound"] and sb["spread"] <= metric["bound"])
    return {"first": sa, "second": sb, "worse_by": worse,
            "agree": spread_ok and worse <= metric["bound"]}


def steadiness(spec, workloads, runs, seconds):
    report = {}
    for w in workloads:
        sets = []
        for base in (1000, 2000):
            results = []
            for i in range(runs):
                info, res = run_once(w, base + i, seconds)
                if not res["correct"]:
                    raise RuntimeError(f"{w} seed {base + i}: {info['problems']}")
                results.append(res)
                print(f"{w} seed {base + i}: " + ", ".join(
                    f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()), flush=True)
            sets.append(results)
        shares = {r["failed"] / r["attempted"] for s in sets for r in s}
        report[w] = {"failed_share": sorted(shares), "failed_share_equal": len(shares) == 1,
                     "metrics": {}}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in sets[0]]
            b = [r["metrics"][name]["value"] for r in sets[1]]
            report[w]["metrics"][name] = compare_sets(metric, a, b)
    return report


def print_report(spec, report):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'workload':10s} {'metric':18s} {'median 1':>11s} {'q1..q3 (1)':>23s} "
          f"{'median 2':>11s} {'q1..q3 (2)':>23s} {'spr1':>6s} {'spr2':>6s} "
          f"{'worse':>7s} {'bound':>5s} agree")
    for w, entry in report.items():
        for name, c in entry["metrics"].items():
            f, s = c["first"], c["second"]
            print(f"{w:10s} {name:18s} {f['median']:11.5g} "
                  f"{f['q1']:11.5g}..{f['q3']:<10.5g} {s['median']:11.5g} "
                  f"{s['q1']:11.5g}..{s['q3']:<10.5g} {f['spread']:6.3f} {s['spread']:6.3f} "
                  f"{c['worse_by']:+7.3f} {bounds[name]:5.2f} {'yes' if c['agree'] else 'NO'}")
        print(f"{w:10s} failed share {entry['failed_share']} "
              f"{'identical' if entry['failed_share_equal'] else 'DIFFERS'}")


def overhead(workloads, seed, seconds):
    out = {}
    for w in workloads:
        plain, _ = run_once(w, seed, seconds, trace=0)
        traced, _ = run_once(w, seed, seconds, trace=1)
        ratio = plain["throughput_ops_s"] / traced["throughput_ops_s"]
        out[w] = {"untraced_ops_s": plain["throughput_ops_s"],
                  "traced_ops_s": traced["throughput_ops_s"],
                  "slowdown": ratio, "samples": plain["samples"],
                  "samples_beyond_tail": plain["samples_beyond_tail"]}
        print(f"{w:10s} untraced {plain['throughput_ops_s']:10.2f} ops/s  traced "
              f"{traced['throughput_ops_s']:10.2f} ops/s  tracing slows by x{ratio:.2f}  "
              f"({plain['samples']} samples, {plain['samples_beyond_tail']} beyond the "
              f"p{plain['tail_percentile']} tail)", flush=True)
    return out


def main(argv=None):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--overhead", action="store_true")
    ap.add_argument("--seed", type=int, default=1, help="seed of the --overhead runs")
    ap.add_argument("--out", help="also write the report as JSON to this file")
    args = ap.parse_args(argv)
    chosen = [w for w in args.workloads.split(",") if w]
    if args.overhead:
        report = overhead(chosen, args.seed, args.seconds)
    else:
        report = steadiness(spec, chosen, args.runs, args.seconds)
        print_report(spec, report)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
    ok = args.overhead or all(
        e["failed_share_equal"] and all(c["agree"] for c in e["metrics"].values())
        for e in report.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
