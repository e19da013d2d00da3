#!/usr/bin/env python3
"""Corelite benchmark entry point.

Builds the benchmark driver from source (perfbench/CMakeLists.txt pulls
the simulator libraries in from ../src), runs its self-tests, then runs
one workload -- or every workload with ``--workload all`` -- each in a
process of its own, and prints every metric by name and unit.  The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage, from the repository root:

    python3 perfbench/run.py --workload paper-fig3-corelite --seed 1 \
        --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separately instrumented run.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ["paper-fig3-corelite", "gen-isp-csfq-10k", "sweep-mixed", "gen-pl-fluid-steady"]
# A measurement may take the driver up to two minutes; past this it is
# stuck and is killed, so a run always ends inside three minutes.
DRIVER_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "cmake")


def build():
    """Configure once, then (re)build the driver and self-test binaries."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to the benchmark")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "perfbench-build.log")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed: " + " ".join(cmd))
    return out


def revision():
    """Git revision when available, else a digest of the sources built."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return "git:" + rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(out, name, seed, seconds, trace, rev):
    """Runs the driver on one workload; returns its parsed result or None."""
    cmd = [os.path.join(out, "perfbench_driver"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--revision", rev]
    if trace:
        cmd += ["--trace-file",
                os.path.join(os.path.dirname(out), "trace", "%s-seed%d.json" % (name, seed))]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("FAILED %s: driver exceeded %d s" % (name, DRIVER_TIMEOUT_S))
        return None
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not lines:
        print("FAILED %s: driver exited with status %d" % (name, proc.returncode))
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        print("FAILED %s: unreadable result line" % name)
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    out = build()
    selftest = subprocess.run([os.path.join(out, "perfbench_selftest")], capture_output=True,
                              text=True)
    if selftest.returncode != 0:
        sys.stderr.write(selftest.stdout)
        fail("metric self-tests failed")
    rev = revision()
    want = expected_metrics(args.trace)

    names = WORKLOADS if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        res = run_workload(out, name, args.seed, args.seconds, args.trace, rev)
        if res is None:
            correct, attempted, failed = False, attempted + 1, failed + 1
            continue
        if want is not None and set(res["metrics"]) != want:
            print("FAILED %s: metrics %s differ from BENCHMARK.json"
                  % (name, sorted(res["metrics"])))
            correct = False
        correct = correct and res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        for k, v in res["metrics"].items():
            metrics[k if len(names) == 1 else name + "/" + k] = v
    if len(names) > 1:
        print("metric failed_runs %.6g ratio (%d of %d runs, all workloads)"
              % (failed / attempted if attempted else 0.0, failed, attempted))
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
