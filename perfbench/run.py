#!/usr/bin/env python3
"""Run one perfbench workload, building the benchmark from source first.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  The first call configures and builds
perfbench (a CMake package of its own, on top of the simulator sources in
src/) into .bench_build/perfbench; later calls only bring that build up to
date.  Build output goes to stderr, so stdout carries only the benchmark's
report, whose last line is the result object
{"correct", "attempted", "failed", "metrics"}.  That line is checked here
(exact keys, no duplicate keys, the metric names BENCHMARK.json declares)
before it is printed.  The full report of each run is also written to
.bench_build/results/.

Environment variables that change what the simulator does (BFLY_FAST,
BFLY_NO_FASTPATH, BFLY_HOST_SHARDS, BFLY_HOST_THREADS, BFLY_TRACE) are
removed from the benchmark's environment.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
FORBIDDEN_ENV = ("BFLY_FAST", "BFLY_NO_FASTPATH", "BFLY_HOST_SHARDS",
                 "BFLY_HOST_THREADS", "BFLY_TRACE")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench/run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "perfbench", "perfbench_selftest"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT, check=False)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, check=False)
            if done.returncode == 0 and done.stdout.strip():
                return "git:" + done.stdout.strip()
        except OSError:
            pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def no_duplicates(pairs):
    keys = [k for k, _ in pairs]
    if len(keys) != len(set(keys)):
        raise ValueError("duplicate key in %r" % keys)
    return dict(pairs)


def declared_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, trace):
    result = json.loads(line, object_pairs_hook=no_duplicates)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys are %s" % sorted(result))
    want = declared_metrics(trace)
    if want is not None and sorted(result["metrics"]) != sorted(want):
        missing = sorted(set(want) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(want))
        raise ValueError("metrics differ from BENCHMARK.json: missing %s, "
                         "extra %s" % (missing, extra))


def compare_baseline(report_path, workload, seed, trace):
    """Say on stderr whether sim_digest matches the recorded baseline."""
    path = os.path.join(HERE, "baseline.json")
    if trace or not os.path.isfile(path) or not os.path.isfile(report_path):
        return
    with open(path) as f:
        base = json.load(f)
    want = base.get("sim_digest", {}).get(workload)
    if seed != base.get("seed") or want is None:
        return
    with open(report_path) as f:
        got = json.load(f).get("sim_digest")
    verdict = "matches" if got == want else "DIFFERS FROM"
    print("perfbench/run.py: sim_digest %s %s the baseline for seed %d (%s)"
          % (got, verdict, seed, want), file=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()
    if not args.self_test and None in (args.workload, args.seed,
                                       args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    build()
    env = dict(os.environ)
    for var in FORBIDDEN_ENV:
        if env.pop(var, None) is not None:
            print("perfbench/run.py: cleared %s" % var, file=sys.stderr)

    if args.self_test:
        done = subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                              env=env, cwd=ROOT, check=False)
        sys.exit(done.returncode)

    os.makedirs(RESULTS, exist_ok=True)
    out = os.path.join(RESULTS, "%s-seed%d-trace%d.json" %
                       (args.workload, args.seed, args.trace))
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--source-id", source_id(), "--out", out]
    try:
        done = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S, 3)
    lines = done.stdout.rstrip("\n").split("\n")
    # On any failure the output goes to stderr: stdout must not end in
    # something that could be read as a result.
    if done.returncode not in (0, 1) or not lines[-1]:
        sys.stderr.write(done.stdout)
        fail("benchmark exited with code %d" % done.returncode, 3)
    try:
        check_result(lines[-1], args.trace == 1)
    except ValueError as e:
        sys.stderr.write(done.stdout)
        fail("malformed result line: %s" % e, 4)
    compare_baseline(out, args.workload, args.seed, args.trace)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
