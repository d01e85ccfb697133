#!/usr/bin/env python3
"""Builds the end-to-end benchmark from this source tree and runs one workload.

    python3 deshbench/run.py --workload replay --seed 1 --seconds 10 --trace 0

The first call configures and compiles the library sources (src/) and the
benchmark (deshbench/src/) with CMake into .bench_build/deshbench at the root
of the tree; later calls rebuild incrementally. The script then replaces
itself with the benchmark binary, whose last line of standard output is the
JSON result. All arguments are passed through (see deshbench/README.md).
"""
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "deshbench")
BINARY = os.path.join(BUILD, "deshbench")


def run_logged(command, log):
    with open(log, "a") as out:
        return subprocess.run(command, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode


def build():
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    # One build at a time per tree; concurrent runs wait here.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"] + generator)
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", BUILD, "-j", jobs])
        for step in steps:
            if run_logged(step, log) != 0:
                with open(log) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                sys.stderr.write("deshbench: build failed (%s)\n" % log)
                sys.exit(1)


def main():
    build()
    env = dict(os.environ)
    # One OpenMP thread in tensor::ops; see deshbench/src/main.cpp.
    env["OMP_NUM_THREADS"] = "1"
    os.chdir(ROOT)
    sys.stdout.flush()
    os.execve(BINARY, [BINARY] + sys.argv[1:], env)


if __name__ == "__main__":
    main()
