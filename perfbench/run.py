#!/usr/bin/env python3
"""Builds and runs the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Configures perfbench/ as a Release CMake project in .bench_build/perfbench
(the first run compiles the cimflow library; later runs only check that the
build is current), then runs cimflow_perfbench with the same arguments. Build
output goes to stderr so the harness's JSON result stays the last line of
stdout. CIMFLOW_* variables are removed from the harness's environment, so
ambient settings cannot change what is measured.
"""
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
OUT_DIR = os.path.join(".bench_build", "perfbench-out")
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join("src", "cimflow", "core", "flow.hpp")):
        fail("run from the root of a cimflow checkout (src/cimflow is missing)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", "perfbench", "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "cimflow_perfbench", "-j", jobs],
    ]
    if os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps = steps[1:]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def main():
    build()
    env = {k: v for k, v in os.environ.items() if not k.startswith("CIMFLOW_")}
    cmd = [os.path.join(BUILD_DIR, "cimflow_perfbench"), *sys.argv[1:],
           "--out-dir", OUT_DIR, "--commit", commit()]
    try:
        sys.exit(subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    main()
