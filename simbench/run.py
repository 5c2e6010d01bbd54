#!/usr/bin/env python3
"""Simulator benchmark: build the workload runner, run one workload, report.

Usage (from the repository root):

    python3 simbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 simbench/run.py --self-test

The runner (simbench/simbench.cc) is built from the library sources in
src/ with simbench/CMakeLists.txt, Release, into $CARGO_TARGET_DIR or
.bench_build.  A run prints every metric with its unit, the host
fingerprint, the simulated-statistics digest and the output checks, and
ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones.  --self-test runs every workload smoke-sized in both
modes and checks that every metric BENCHMARK.json names is printed with
its unit.  The exit status is non-zero when the build fails, the runner
crashes, or a metric of BENCHMARK.json is missing, mislabelled or not
finite; failed output checks are reported through "correct" and
"failed" instead.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure and build the runner; return its path or exit 1."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "simbench")
    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs],
    ]
    for step in steps:
        # Build output goes to stderr: stdout carries only the report.
        status = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if status.returncode:
            log("simbench: build failed:", " ".join(step))
            sys.exit(1)
    return os.path.join(build_dir, "simbench")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(binary, workload, seed, seconds, trace, smoke=False):
    """Run one workload; return the runner's report or exit 1."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("simbench: runner timed out:", " ".join(cmd))
        sys.exit(1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("simbench: runner failed with status", proc.returncode)
        sys.exit(1)
    return json.loads(lines[-1])


def select_metrics(report, spec, trace):
    """The metrics the mode reports, with a message per missing or
    mislabelled one."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    found = report["per_layer"] if trace else report["end_to_end"]
    metrics, problems = {}, []
    for entry in wanted:
        got = found.get(entry["name"])
        if got is None:
            problems.append("metric %s not reported" % entry["name"])
        elif got["unit"] != entry["unit"]:
            problems.append("metric %s has unit %s, BENCHMARK.json says %s"
                            % (entry["name"], got["unit"], entry["unit"]))
        elif got["value"] is None or not math.isfinite(got["value"]):
            problems.append("metric %s is not finite" % entry["name"])
        else:
            metrics[entry["name"]] = {"value": got["value"],
                                      "unit": got["unit"]}
    return metrics, problems


def print_report(report, metrics, problems):
    """Human-readable lines: everything but the final JSON."""
    print("workload %s seed %d" % (report["workload"], report["seed"]))
    print("host " + json.dumps(report["host"], sort_keys=True))
    print("reps " + json.dumps(report["reps"], sort_keys=True))
    for engine, digest in sorted(report["digest"].items()):
        print("digest %s %s" % (engine, json.dumps(digest, sort_keys=True)))
    for name, values in report["samples"].items():
        if not values:
            continue  # threads = 4 reps run only with --trace 1
        values = sorted(values)
        print("samples %s n=%d min %.6g median %.6g max %.6g"
              % (name, len(values), values[0], values[len(values) // 2],
                 values[-1]))
    for failure in report["failures"] + problems:
        print("FAILED " + failure)
    print("run_fail_ratio = %.6g ratio (%d of %d runs)"
          % (report["failed"] / report["attempted"], report["failed"],
             report["attempted"]))
    for name, m in metrics.items():
        print("%s = %.10g %s" % (name, m["value"], m["unit"]))


def self_test(binary, spec):
    ok = True
    for w in spec["workloads"]:
        for trace in (0, 1):
            report = run_workload(binary, w["name"], 1, 1, trace, smoke=True)
            metrics, problems = select_metrics(report, spec, trace)
            problems += report["failures"]
            status = "ok" if not problems else "FAIL"
            print("self-test %-22s trace=%d %s: %d metrics"
                  % (w["name"], trace, status, len(metrics)))
            for p in problems:
                print("  " + p)
            ok = ok and not problems
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    spec = load_spec()
    binary = build()
    if args.self_test:
        return self_test(binary, spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error("--workload must be one of " + ", ".join(names))

    report = run_workload(binary, args.workload, args.seed, args.seconds,
                        args.trace)
    metrics, problems = select_metrics(report, spec, args.trace)
    print_report(report, metrics, problems)
    if problems:
        return 1  # the runner and BENCHMARK.json disagree: no result
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
