#!/usr/bin/env python3
"""Builds the benchmark binary against the kairos sources and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: paper-consolidate, fleet-pipeline, online-control. The binary and
the kairos library are built in a Release configuration under .bench_build/
(or $CARGO_TARGET_DIR when set); the first run builds, later runs only check
that the build is current. The last line of standard output is the JSON
result of the run. With --trace 1 the spans are written to
.bench_build/trace-<workload>-<seed>.json.
"""
import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("paper-consolidate", "fleet-pipeline", "online-control")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    """Configures (once) and builds the binary; returns the binary path."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    with open(log_path, "w") as log:
        if not os.path.exists(cache):
            configure = ["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                         build_dir, "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(configure, stdout=log, stderr=log).returncode != 0:
                fail("configure failed; see " + log_path, 1)
        compile_cmd = ["cmake", "--build", build_dir, "--target",
                       "kairos_perfbench", "-j", "4"]
        if subprocess.run(compile_cmd, stdout=log, stderr=log).returncode != 0:
            fail("build failed; see " + log_path, 1)
    with open(cache) as f:
        if "CMAKE_BUILD_TYPE:STRING=Release\n" not in f.read():
            fail("refusing to time a build that is not Release", 1)
    return os.path.join(build_dir, "kairos_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("BENCHMARK.json", "CMakeLists.txt", "src",
                   os.path.join("perfbench", "CMakeLists.txt")):
        if not os.path.exists(os.path.join(root, needed)):
            fail("run from the repository root: %s is missing" % needed)

    out_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out_root = os.path.join(root, out_root)
    binary = build(root, os.path.join(out_root, "perfbench-release"))

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out", os.path.join(
            out_root, "trace-%s-%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("benchmark binary exited with code %d" % proc.returncode, 1)
    result = json.loads(lines[-1])
    # The metric set must be exactly the one BENCHMARK.json declares.
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    missing = {m["name"] for m in declared} ^ set(result["metrics"])
    if missing:
        fail("metrics differ from BENCHMARK.json: " + ", ".join(sorted(missing)), 1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
