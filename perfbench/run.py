#!/usr/bin/env python3
"""Build and run the cachetime benchmark.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S \
        --trace 0|1 [--json PATH]
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --update-pins

Run from the repository root.  The first call configures and builds
perfbench/ (which compiles the simulator from src/) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the
variable is unset; later calls rebuild incrementally.  Build output
goes to stderr, so the last line of stdout is always the result JSON.

Each workload runs in a fresh process, so every run starts cold.
With --workload all, the last line combines the workloads: metric
names are prefixed with the workload name, and correct / attempted /
failed cover them all.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PINS = os.path.join(HERE, "pins.txt")
WORKLOADS = ["missratio-grid", "exectime-grid", "stream-sampled",
             "coherent-sharing"]
RUN_TIMEOUT_S = 170


def build():
    """Configure and build the benchmark; return (binary, workdir)."""
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(root), "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(step))
    workdir = os.path.join(build_dir, "work")
    os.makedirs(workdir, exist_ok=True)
    return os.path.join(build_dir, "perfbench"), workdir


def run_one(binary, workdir, workload, seed, seconds, trace, json_path):
    """Run one workload; return (stdout lines, parsed result)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--pins", PINS, "--workdir", workdir]
    if json_path:
        cmd += ["--json", json_path]
    # The program's CACHETIME_* knobs (threads, SimCache, pipeline)
    # are the benchmark's to set, never the caller's environment's.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("CACHETIME_")}
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s timed out after %ds"
                 % (workload, RUN_TIMEOUT_S))
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        sys.exit("perfbench: %s exited with code %d"
                 % (workload, done.returncode))
    return lines, json.loads(lines[-1])


def update_pins(binary, workdir):
    """Record every workload's per-point digests at the pinned seed."""
    report = os.path.join(workdir, "pins-report.json")
    rows = []
    for workload in WORKLOADS:
        run_one(binary, workdir, workload, 1, 1, 0, report)
        with open(report) as f:
            digests = json.load(f)["digests"]
        rows += ["%s %d %s" % (workload, i, d)
                 for i, d in enumerate(digests)]
    os.remove(report)
    with open(PINS, "w") as f:
        f.write("\n".join(rows) + "\n")
    print("wrote %d pinned digests to %s" % (len(rows), PINS))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--json", metavar="PATH",
                        help="write the full run report(s) as JSON")
    parser.add_argument("--self-test", action="store_true",
                        help="run the benchmark's own tests")
    parser.add_argument("--update-pins", action="store_true",
                        help="re-record the seed-1 digests in pins.txt")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    binary, workdir = build()
    if args.self_test:
        sys.exit(subprocess.run([binary, "--self-test", "--workdir",
                                 workdir]).returncode)
    if args.update_pins:
        update_pins(binary, workdir)
        return

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    reports = []
    combined = {"correct": True, "attempted": 0, "failed": 0,
                "metrics": {}}
    for workload in workloads:
        json_path = None
        if args.json:
            json_path = (args.json if len(workloads) == 1
                         else os.path.join(workdir, workload + ".json"))
        lines, result = run_one(binary, workdir, workload, args.seed,
                                args.seconds, args.trace, json_path)
        if len(workloads) == 1:
            print("\n".join(lines))
            return
        print("\n".join(lines[:-1]))
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][workload + "." + name] = metric
        if json_path:
            with open(json_path) as f:
                reports.append(json.load(f))
            os.remove(json_path)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(reports, f, indent=1)
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
