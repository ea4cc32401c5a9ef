#!/usr/bin/env python3
"""Build and run the regla serving benchmark (see README.md).

    python3 hostbench/run.py --workload qr8_closed --seed 1 --seconds 10 --trace 0
    python3 hostbench/run.py --test        # the benchmark's own unit tests

Run from the repository root. The first run configures and builds the
benchmark program (and the library targets it links) from source under
$CARGO_TARGET_DIR/hostbench, default .bench_build/hostbench; later runs
only rebuild what changed. Build output goes to stderr, so the last line
of stdout is the program's JSON result.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("qr8_closed", "qr32_closed", "mixed_open")
RUN_TIMEOUT_S = 170


def build(build_dir, targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("hostbench: the regla sources (src/) are not next to hostbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target", *targets])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("hostbench: build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--test", action="store_true",
                    help="build and run the benchmark's unit tests")
    args = ap.parse_args()

    target_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target_root, "hostbench")
    if args.test:
        build(build_dir, ["hostbench", "hostbench_tests"])
        sys.exit(subprocess.run([os.path.join(build_dir, "hostbench_tests")]).returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        ap.error("--seed must be >= 0 and --seconds in 1..60")

    build(build_dir, ["hostbench"])
    cmd = [os.path.join(build_dir, "hostbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", os.path.join(
            build_dir, "spans-" + args.workload)]
    sys.stdout.flush()
    try:
        rc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit("hostbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(rc)


if __name__ == "__main__":
    main()
