#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload paper-cover|fig1-grid|serve-mix \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the ewalk library from src/ and the
perfbench binary into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs one workload, and prints the binary's report
followed, as the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json,
with --trace 1 its per_layer metrics (a per-layer metric that is not on the
workload's path reads 0). Traced runs also write a Chrome trace-event JSON
under the build directory. Exits non-zero, printing no result, when the
sources are missing, the build fails, or the binary fails or times out.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("paper-cover", "fig1-grid", "serve-mix")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build(out_dir):
    """Configures once, then lets the build tool bring the binary up to date."""
    log = sys.stderr
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=log, stderr=log)
    subprocess.run(["cmake", "--build", out_dir, "-j", "4", "--target", "perfbench"],
                   check=True, stdout=log, stderr=log)
    return os.path.join(out_dir, "perfbench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "serve", "request.hpp")):
        fail("no ewalk sources under %s/src; run from a full checkout" % ROOT)
    if not os.path.exists(os.path.join(ROOT, "BENCHMARK.json")):
        fail("BENCHMARK.json is missing")
    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        fail("build failed: %s" % err)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            out_dir, "trace-%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail("perfbench exited with code %d" % proc.returncode)
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        fail("perfbench printed no result line")

    metrics = {}
    absent = []
    for m in declared_metrics(args.trace):
        value = raw["metrics"].pop(m["name"], None)
        if value is None:
            if not args.trace:
                fail("end-to-end metric %s was not measured" % m["name"])
            absent.append(m["name"])
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if raw["metrics"]:
        fail("metrics missing from BENCHMARK.json: %s" % sorted(raw["metrics"]))

    print("\n".join(lines[:-1]))
    if absent:
        print("not on %s's path (reported as 0): %s" % (args.workload, " ".join(absent)))
    print(json.dumps({"correct": bool(raw["correct"]), "attempted": int(raw["attempted"]),
                      "failed": int(raw["failed"]), "metrics": metrics}))


if __name__ == "__main__":
    main()
