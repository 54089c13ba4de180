#!/usr/bin/env python3
"""Build and run the zolcsim benchmark.

Run from the repository root:

    python3 zolcbench/run.py --workload exec-scale8 --seed 1 --seconds 35 --trace 0
    python3 zolcbench/run.py --self-check

The first call configures and builds the benchmark program (and the
simulator library it links) as an optimized build under .bench_build/;
later calls rebuild only what changed. All remaining arguments go to
zolcbench, whose last stdout line is the result object. --self-check runs
zolcbench's own checks, then one short run of every workload, traced and
untraced, and validates each result line against BENCHMARK.json.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "zolcbench")
BINARY = os.path.join(BUILD, "zolcbench")
JOBS = "3"


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds zolcbench; returns True on success."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            log("the simulator sources are missing (" + needed + ")")
            return False
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "zolcbench",
                  "-j", JOBS])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log("build step failed: " + " ".join(step))
            sys.stderr.write(done.stdout[-4000:])
            return False
    return True


def zolcbench(args):
    return subprocess.run([BINARY] + args, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)


def self_check():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    checked = zolcbench(["--self-check"])
    sys.stdout.write(checked.stdout)
    if checked.returncode != 0:
        return 1
    failures = 0
    for workload in bench["workloads"]:
        for trace, listed in (("0", bench["end_to_end"]),
                              ("1", bench["per_layer"])):
            name = workload["name"]
            done = zolcbench(["--workload", name, "--seed", "3",
                              "--seconds", "1", "--trace", trace])
            lines = done.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = None
            problems = []
            if done.returncode != 0:
                problems.append("exit status %d" % done.returncode)
            if result is None:
                problems.append("no result line")
            else:
                if sorted(result) != ["attempted", "correct", "failed",
                                      "metrics"]:
                    problems.append("result keys %s" % sorted(result))
                if result.get("correct") is not True:
                    problems.append("not correct")
                want = {m["name"]: m["unit"] for m in listed}
                metrics = result.get("metrics", {})
                got = {k: v["unit"] for k, v in metrics.items()}
                if want != got:
                    problems.append("metric names/units differ from "
                                    "BENCHMARK.json")
            status = "ok" if not problems else "; ".join(problems)
            print("self-check %s trace=%s: %s" % (name, trace, status))
            failures += bool(problems)
    return 1 if failures else 0


def main():
    if not build():
        return 1
    if sys.argv[1:] == ["--self-check"]:
        return self_check()
    done = subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
