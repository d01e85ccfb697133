#!/usr/bin/env python3
"""The benchmark's own test: every output check must pass on clean small
inputs and fail on deliberately damaged ones.

    python3 deshbench/selftest.py

Runs each workload in small-input mode (--small, about three seconds a run)
once clean and once per corruption, through deshbench/run.py, and checks
which output checks the run names as failed on standard error.
"""
import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
WORKLOADS = ["replay", "storm", "raw", "train"]

# Checks each corruption must trip, per workload. The alert corruptions hit
# the first full-speed and the first paced pass: a dropped alert and a
# shifted one break the alert streams (the shift also zeroes a lead); alerts
# delayed past their chains break the ground-truth floors too. A truncated
# input breaks the record counts and the recall floor (train: a one-epoch
# fit, so the losses never fall).
STREAMS = ["full-speed alert stream", "paced alert stream"]
TRUNCATED = ["full-speed records", "paced records",
             "failures_predicted floor"]
EXPECTED = {
    "drop": {w: STREAMS for w in WORKLOADS},
    "shift": {w: STREAMS + ["lead"] for w in WORKLOADS},
    "delay": {w: STREAMS + ["failures_predicted floor",
                            "alert precision floor"] for w in WORKLOADS},
    "truncate": {
        "replay": TRUNCATED + STREAMS,
        "storm": TRUNCATED + STREAMS,
        "raw": TRUNCATED + STREAMS + ["full-speed parsed records",
                                      "wal restart"],
        "train": TRUNCATED + ["loss"],
    },
}


def run(workload, corrupt):
    command = [sys.executable, RUN, "--workload", workload, "--seed", "7",
               "--seconds", "1", "--trace", "0", "--small",
               "--corrupt", corrupt]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        sys.exit("%s %s: exit %d\n%s" % (workload, corrupt, done.returncode,
                                         done.stderr))
    result = json.loads(done.stdout.strip().splitlines()[-1])
    failed = set()
    for line in done.stderr.splitlines():
        if line.startswith("CHECK FAILED: "):
            failed.add(line[len("CHECK FAILED: "):].split(":")[0])
    return result, failed


def main():
    problems = []
    for workload in WORKLOADS:
        result, failed = run(workload, "none")
        if not result["correct"] or failed:
            problems.append("%s clean run failed: %s" % (workload,
                                                         sorted(failed)))
        if result["failed"] != 0 or result["attempted"] < 1:
            problems.append("%s clean run counts %d/%d" % (
                workload, result["failed"], result["attempted"]))
        for corrupt, by_workload in EXPECTED.items():
            result, failed = run(workload, corrupt)
            missing = [c for c in by_workload[workload] if c not in failed]
            if result["correct"] or missing:
                problems.append("%s --corrupt %s: checks not tripped %s "
                                "(failed: %s)" % (workload, corrupt, missing,
                                                  sorted(failed)))
            print("%-7s %-9s tripped: %s" % (workload, corrupt,
                                             ", ".join(sorted(failed))))
    for p in problems:
        print("FAIL:", p)
    print("selftest: %s" % ("FAILED" if problems else "ok"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
