#!/usr/bin/env python3
"""Repository benchmark: builds perfbench/ (with the gsight libraries from
src/) under .bench_build/, runs one workload, checks its outputs and prints
one JSON result line as the last line of standard output.

    python3 perfbench/run.py --workload study|estate|cells|serve \
        --seed N --seconds S --trace 0|1

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(and writes the run's spans under .bench_build/perfbench-runs/). Extra
options: --record stores this run's digests as the ones recorded for the
seed; --digests FILE compares against another digest file; --fault
drop-completion makes the driver lose one completion (see selftest.py).
Build output and a readable summary go to standard error.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS_DIR = os.path.join(ROOT, ".bench_build", "perfbench-runs")
DIGESTS = os.path.join(HERE, "digests.json")
WORKLOADS = ("study", "estate", "cells", "serve")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no gsight sources next to perfbench/ (src/ is missing)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR],
                       stdout=sys.stderr, check=True, env=env)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   stdout=sys.stderr, check=True, env=env)
    return os.path.join(BUILD_DIR, "perfbench_driver")


def load_digests(path):
    if not os.path.isfile(path):
        return {}
    with open(path) as f:
        return json.load(f)


def check_digests(result, workload, seed, path):
    """Compare the run's digests with the ones recorded for this seed."""
    recorded = load_digests(path).get(workload, {}).get(str(seed))
    if not result["digests"]:
        return
    if recorded is None:
        result["checks"].append({"name": "digest recorded for seed %d" % seed,
                                 "ok": True, "detail": "none recorded; not compared"})
        return
    for name, value in sorted(result["digests"].items()):
        want = recorded.get(name)
        result["checks"].append({
            "name": "%s digest matches the one recorded for seed %d" % (name, seed),
            "ok": value == want,
            "detail": "got %s, recorded %s" % (value, want)})


def record_digests(result, workload, seed):
    data = load_digests(DIGESTS)
    data.setdefault(workload, {})[str(seed)] = result["digests"]
    with open(DIGESTS, "w") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--record", action="store_true")
    ap.add_argument("--digests", default=DIGESTS)
    ap.add_argument("--fault", default="")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    driver = build()
    os.makedirs(RUNS_DIR, exist_ok=True)
    stem = os.path.join(RUNS_DIR, "%s-seed%d-trace%s" % (args.workload, args.seed, args.trace))
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--spans", stem + "-spans.json"]
    if args.fault:
        cmd += ["--fault", args.fault]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("driver exited with %d" % proc.returncode)
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    check_digests(result, args.workload, args.seed, args.digests)
    if args.record:
        record_digests(result, args.workload, args.seed)
    failed_checks = [c for c in result["checks"] if not c["ok"]]
    correct = not failed_checks
    attempted = int(result["attempted"])
    # A failed check voids the whole run: every operation counts as failed.
    failed = int(result["failed"]) if correct else attempted

    with open(stem + ".json", "w") as f:
        json.dump(result, f, indent=1)
    for c in result["checks"]:
        log("  [%s] %s%s" % ("ok" if c["ok"] else "FAILED", c["name"],
                             " (%s)" % c["detail"] if c["detail"] else ""))
    for name, m in result["metrics"].items():
        log("  %-24s %.6g %s" % (name, m["value"], m["unit"]))
    log("  detail: %s" % json.dumps(result["detail"]))

    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError) as e:
        log("perfbench: %s" % e)
        sys.exit(1)
