#!/usr/bin/env python3
"""Self-test of the benchmark's output checks: each must be able to fail.

    python3 perfbench/selftest.py

Runs short `estate` and `serve` workloads through perfbench/run.py and
expects:
  1. a clean run to be correct;
  2. a run compared against a wrong recorded digest to be incorrect, with
     every operation failed and the digest check named;
  3. a run that drops one completion (--fault drop-completion) to be
     incorrect on the conservation check, for `estate` and for `serve`.
Exits 0 when every expectation holds.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_build", "perfbench-selftest")
SEED = 3


def run(workload, *extra):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "0", *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit("run.py %s failed:\n%s" % (workload, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def expect(label, ok, failures):
    print("%s %s" % ("ok  " if ok else "FAIL", label))
    if not ok:
        failures.append(label)


def main():
    os.makedirs(SCRATCH, exist_ok=True)
    failures = []

    clean, _ = run("estate")
    expect("clean estate run is correct", clean["correct"] and clean["failed"] == 0, failures)

    report = os.path.join(ROOT, ".bench_build", "perfbench-runs",
                          "estate-seed%d-trace0.json" % SEED)
    with open(report) as f:
        digests = json.load(f)["digests"]
    wrong = {"estate": {str(SEED): {k: "0" * 16 for k in digests}}}
    wrong_path = os.path.join(SCRATCH, "wrong-digests.json")
    with open(wrong_path, "w") as f:
        json.dump(wrong, f)
    bad, log = run("estate", "--digests", wrong_path)
    expect("wrong recorded digest is caught",
           not bad["correct"] and bad["failed"] == bad["attempted"]
           and "[FAILED] merged digest matches" in log, failures)

    for workload, check in (("estate", "issued = completed + failed"),
                            ("serve", "submitted = completed + shed")):
        dropped, log = run(workload, "--fault", "drop-completion")
        expect("dropped completion is caught in %s" % workload,
               not dropped["correct"] and "[FAILED] " + check in log, failures)

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
