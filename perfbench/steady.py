#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

Runs each workload repeatedly on one build, each run with its own
seed, and prints for every end-to-end metric the median, the
quartiles and the spread (Q3 - Q1) / median against the metric's
bound in BENCHMARK.json. The summary, with each run's host
fingerprint, is written as JSON so two sets can be compared:

    python3 perfbench/steady.py --runs 10 --first-seed 1 --out a.json
    python3 perfbench/steady.py --runs 10 --first-seed 101 --out b.json
    python3 perfbench/steady.py --compare a.json b.json

A comparison flags a medians gap beyond a metric's bound, a changed
share of failed operations, and any difference in the host
fingerprint (a result from another host or build is not comparable).
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
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    if out.returncode != 0:
        sys.exit("run failed: %s seed %d" % (workload, seed))
    lines = out.stdout.strip().splitlines()
    fingerprint = None
    for line in lines:
        if line.startswith("fingerprint "):
            fingerprint = json.loads(line[len("fingerprint "):])
    return json.loads(lines[-1]), fingerprint


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def measure(args, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    report = {"run_seconds": seconds, "workloads": {}}
    for w in workloads:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            result, fp = run_once(w, seed, seconds)
            runs.append({"seed": seed, "result": result,
                         "fingerprint": fp})
            print("%s seed %d: correct %s, %d/%d failed" % (
                w, seed, result["correct"], result["failed"],
                result["attempted"]), file=sys.stderr)
        metrics = {}
        for name in bounds:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            metrics[name] = dict(summarize(values), values=values)
        shares = sorted({r["result"]["failed"] / r["result"]["attempted"]
                         for r in runs})
        report["workloads"][w] = {"runs": runs, "metrics": metrics,
                                  "failed_shares": shares}
        print("\n%s (%d runs, %ds each)" % (w, args.runs, seconds))
        print("  %-16s %12s %12s %12s %8s %6s" % (
            "metric", "median", "q1", "q3", "spread", "bound"))
        for name, m in metrics.items():
            flag = "" if m["spread"] <= bounds[name] / 3 \
                else "  <-- above bound/3"
            print("  %-16s %12.5g %12.5g %12.5g %7.1f%% %5.0f%%%s" % (
                name, m["median"], m["q1"], m["q3"], 100 * m["spread"],
                100 * bounds[name], flag))
        print("  failed share: %s" % shares)
        fps = {json.dumps(r["fingerprint"], sort_keys=True) for r in runs}
        if len(fps) > 1:
            print("  WARNING: fingerprints differ between runs")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)


def compare(path_a, path_b, spec):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    bounds = {m["name"]: (m["bound"], m["better"])
              for m in spec["end_to_end"]}
    ok = True
    for w in sorted(set(a["workloads"]) & set(b["workloads"])):
        wa, wb = a["workloads"][w], b["workloads"][w]
        fa = {json.dumps(r["fingerprint"], sort_keys=True)
              for r in wa["runs"]}
        fb = {json.dumps(r["fingerprint"], sort_keys=True)
              for r in wb["runs"]}
        print("\n%s" % w)
        if fa != fb:
            ok = False
            print("  FINGERPRINTS DIFFER: the two sets ran on different "
                  "hosts or builds; the comparison below is not valid")
        for name, (bound, better) in bounds.items():
            ma = wa["metrics"][name]["median"]
            mb = wb["metrics"][name]["median"]
            worse = (mb - ma) / ma if better == "lower" else (ma - mb) / ma
            flag = "ok" if worse <= bound else "WORSE THAN BOUND"
            ok = ok and worse <= bound
            print("  %-16s %12.5g -> %12.5g  %+6.1f%% (bound %.0f%%) %s" % (
                name, ma, mb, -100 * worse, 100 * bound, flag))
        if wa["failed_shares"] != wb["failed_shares"]:
            ok = False
            print("  failed share differs: %s vs %s" % (
                wa["failed_shares"], wb["failed_shares"]))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", type=lambda s: s.split(","))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    spec = load_spec()
    if args.compare:
        sys.exit(compare(args.compare[0], args.compare[1], spec))
    if args.runs < 4:
        sys.exit("--runs must be at least 4 to take quartiles")
    measure(args, spec)


if __name__ == "__main__":
    main()
