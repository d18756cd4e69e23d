#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 perfbench/run.py --workload train|serve|spmv|tune \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the library sources under src/
and the driver in perfbench/src/ into the build directory
($CARGO_TARGET_DIR, default .bench_build), runs one workload and
prints, as the last line of standard output, one JSON object with the
keys correct, attempted, failed and metrics. Metric names and units
are checked against BENCHMARK.json; a per-layer metric the workload
never exercises is reported as 0.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train", "serve", "spmv", "tune")
BUILD_JOBS = "4"
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(bdir):
    """Configure once, then an incremental build of the driver."""
    log = sys.stderr
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=log, stderr=log) != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", bdir, "--target", "hwsw_perfbench",
           "-j", BUILD_JOBS]
    if subprocess.call(cmd, stdout=log, stderr=log) != 0:
        fail("build failed")
    return os.path.join(bdir, "hwsw_perfbench")


def check_metrics(result, spec, trace):
    """Names and units must match BENCHMARK.json exactly."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = result["metrics"]
    for name, m in got.items():
        if name not in units:
            fail("metric %s is not in BENCHMARK.json" % name)
        if m["unit"] != units[name]:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (name, m["unit"], units[name]))
    for name, unit in units.items():
        if name in got:
            continue
        if not trace:
            fail("end-to-end metric %s missing" % name)
        got[name] = {"value": 0, "unit": unit}
    result["metrics"] = {m["name"]: got[m["name"]] for m in wanted}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in [1, 600]")

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        fail("no BENCHMARK.json at the repository root")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources under src/ to build against")
    with open(spec_path) as f:
        spec = json.load(f)

    bdir = build_dir()
    binary = build(bdir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(bdir, "work")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s timed out" % args.workload)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail("workload %s exited with %d" % (args.workload,
                                              proc.returncode))
    result = json.loads(lines[-1])
    check_metrics(result, spec, args.trace == 1)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
