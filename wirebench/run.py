#!/usr/bin/env python3
"""Builds and runs the open-loop wire benchmark of the TSPN-RA serving stack.

    python3 wirebench/run.py --workload rec_city --seed 1 --seconds 24 --trace 0

Run from the root of a checkout. The first call configures and builds
wirebench/ (and the repository's src/) into .bench_build/wirebench; later
calls reuse the build. Every call runs the benchmark's self-tests before it
measures anything. Checkpoints, unix
sockets and span files go to .wirebench/ in the checkout.

An untraced run (--trace 0) is ROUNDS independent rounds, each a fresh
process with its own stack, of --seconds / ROUNDS seconds of load each.
Every round prints its own report; the last line of standard output is one
JSON object with the end-to-end metrics: setup_s is the median of the
rounds' set-up times, hit10 comes from the first round (it is one number per
checkpoint), every other metric is the mean over the rounds. A traced
run (--trace 1) is a single process whose last line carries the per-layer
metrics. See wirebench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "wirebench")
BINARY = os.path.join(BUILD_DIR, "wirebench")
SELFTEST = os.path.join(BUILD_DIR, "wirebench_selftest")

ROUNDS = 3
DEADLINE_S = 170.0  # the rounds of a run must end within 180 s of the build


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def stray_knobs():
    """TSPN_* variables would feed FromEnv defaults inside the stack."""
    return sorted(k for k in os.environ if k.startswith("TSPN_"))


def build():
    """Configures (once) and builds."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs]
    return subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) == 0


def selftests_pass():
    """Runs the benchmark's self-tests; every call, so no result is ever
    reported from a build whose self-tests fail."""
    return subprocess.call([SELFTEST], cwd=ROOT, stdout=sys.stderr,
                           stderr=sys.stderr, env=child_env()) == 0


def child_env():
    env = dict(os.environ)
    env["TSPN_NUM_THREADS"] = "1"  # the GEMM row split, pinned
    return env


def run_round(args, seed, seconds, trace, quality, deadline):
    """Runs one benchmark process; returns its final JSON object or None."""
    cmd = [BINARY, "--workload", args.workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "1" if trace else "0",
           "--quality", "1" if quality else "0"]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        log("wirebench: out of time before a round could start")
        return None
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("wirebench: round timed out")
        return None
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print(lines[-1])
        return None
    result["_exit"] = proc.returncode
    return result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    stray = stray_knobs()
    if stray:
        log("wirebench: refusing to run with %s set; unset them" % ", ".join(stray))
        return 2
    if not build():
        log("wirebench: build failed")
        return 1
    if not selftests_pass():
        log("wirebench: self-tests failed")
        return 1
    deadline = time.monotonic() + DEADLINE_S

    if args.trace:
        # One traced process: an untraced pass, then a traced pass, each
        # half the run, so the tracing overhead is measured on one stack.
        result = run_round(args, args.seed, args.seconds / 2.0, True, False,
                           deadline)
        if result is None:
            return 1
        code = result.pop("_exit")
        print(json.dumps(result))
        return 0 if code == 0 and result["correct"] else 1

    rounds = []
    for r in range(ROUNDS):
        seed = args.seed * ROUNDS + r
        # hit10 is one number per checkpoint; the first round serves the
        # quality set, the others skip it.
        result = run_round(args, seed, args.seconds / ROUNDS, False, r == 0,
                           deadline)
        if result is None:
            return 1
        rounds.append(result)

    names = list(rounds[0]["metrics"])
    metrics = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in rounds if name in r["metrics"]]
        agg = statistics.median(values) if name == "setup_s" else statistics.fmean(values)
        metrics[name] = {"value": agg, "unit": rounds[0]["metrics"][name]["unit"]}
    summary = {
        "correct": all(r["correct"] and r["_exit"] == 0 for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    print("rounds: " + " | ".join(
        " ".join("%s=%.4g" % (n, v["value"]) for n, v in r["metrics"].items())
        for r in rounds))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
