#!/usr/bin/env python3
"""Builds the benchmark harness from source and runs one workload.

    python3 perfbench/run.py --workload outbreak|study|ingest \
        --seed N --seconds S --trace 0|1 [--size full|tiny]

Run it from the repository root.  The first run configures and builds
perfbench/ (which compiles ../src) into .bench_build/perfbench; later runs
only re-check the build.  Build output goes to standard error, the
harness's report to standard output: a `provenance {...}` line with the
host, build and run facts, then the result line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

last.  The exit code is 0 only for a run whose correctness checks passed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402

WORKLOADS = ("outbreak", "study", "ingest")
# Leaves the harness time to finish inside the benchmark's 180 s limit.
HARNESS_TIMEOUT_S = 170


def build(root, build_dir):
    """Configures (once) and builds the harness; returns its path."""
    source = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        command = ["cmake", "-S", source, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            command += ["-G", "Ninja"]
        subprocess.run(command, check=True, stdout=sys.stderr, cwd=root)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4", "--target",
                    "perfbench_harness"],
                   check=True, stdout=sys.stderr, cwd=root)
    return os.path.join(build_dir, "perfbench_harness")


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_revision(root):
    """The git commit when the checkout is a repository, and always a
    digest of the simulator and benchmark sources (checkouts made for a
    benchmark run need not be repositories)."""
    sha = "none"
    if os.path.isdir(os.path.join(root, ".git")):
        done = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        if done.returncode == 0:
            sha = done.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for folder, dirs, files in sorted(os.walk(os.path.join(root, top))):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".cc", ".h", ".txt", ".py")):
                    path = os.path.join(folder, name)
                    digest.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return sha, digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=48879)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--build-dir", default=os.path.join(".bench_build",
                                                            "perfbench"))
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    root = benchlib.ROOT
    benchmark = benchlib.load_benchmark(root)
    build_dir = os.path.join(root, args.build_dir)
    try:
        harness = build(root, build_dir)
    except (subprocess.CalledProcessError, OSError) as error:
        print("run.py: build failed: %s" % error, file=sys.stderr)
        return 1

    load_start = os.getloadavg()
    started = time.monotonic()
    command = [harness, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--size", args.size]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S, cwd=root, check=False)
    except subprocess.TimeoutExpired:
        print("run.py: harness exceeded %d s" % HARNESS_TIMEOUT_S,
              file=sys.stderr)
        return 1
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        print("run.py: harness exited %d without a result line"
              % done.returncode, file=sys.stderr)
        sys.stdout.write(done.stdout)
        return 1

    provenance = {}
    for line in lines[:-1]:
        if line.startswith("provenance "):
            provenance = json.loads(line[len("provenance "):])
        else:
            print(line)
    sha, digest = source_revision(root)
    provenance.update({
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "load_avg_start": list(load_start),
        "load_avg_end": list(os.getloadavg()),
        "git_sha": sha,
        "source_digest": digest,
        "harness_seconds": round(time.monotonic() - started, 3),
    })
    print("provenance " + json.dumps(provenance, sort_keys=True))

    problems = benchlib.validate_result(
        result, benchlib.expected_metrics(benchmark, args.trace))
    if problems:
        for problem in problems:
            print("run.py: invalid result: " + problem, file=sys.stderr)
        return 1
    print(json.dumps(result))
    sys.stdout.flush()
    return 0 if done.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
