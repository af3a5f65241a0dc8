#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds perfbench/ (the fgpm libraries from
src/ plus the benchmark program) into $CARGO_TARGET_DIR, or .bench_build
when that is unset; later calls rebuild incrementally. The program's last
stdout line is the result object; this script checks it against BENCHMARK.json
(every end-to-end metric with --trace 0, every per-layer metric with
--trace 1, each once, with its declared unit and a finite value) and
exits non-zero without a result line if the build, the run or the check
fails. With --trace 1 the spans go to <build dir>/traces/ as Chrome
trace JSON.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def source_id():
    """The commit when ROOT is a git work tree, else a hash of the sources."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode == 0 and os.path.samefile(top.stdout.strip(), ROOT):
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if sha.returncode == 0:
                return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, base))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree:" + h.hexdigest()[:16]


def build(build_root):
    """Configures and builds the program (incrementally); returns its path."""
    bdir = os.path.join(build_root, "perfbench")
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(build_root, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cfg = subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                             stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            fail("cmake configure failed")
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        made = subprocess.run(["cmake", "--build", bdir, "--target", "perfbench",
                               "-j", jobs], stdout=sys.stderr, stderr=sys.stderr)
        if made.returncode != 0:
            fail("build failed")
    return os.path.join(bdir, "perfbench")


def check(result, spec, trace):
    """Problems with the result line against BENCHMARK.json."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys: %s" % sorted(result))
        return problems
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    for name in sorted(set(want) - set(got)):
        problems.append("metric missing: " + name)
    for name in sorted(set(got) - set(want)):
        problems.append("metric not declared: " + name)
    for name, m in got.items():
        if name in want and m.get("unit") != want[name]:
            problems.append("unit of %s: %s, declared %s" % (name, m.get("unit"), want[name]))
        v = m.get("value")
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            problems.append("value of %s is not a finite number" % name)
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (spec_path, e))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_root)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--source", source_id()]
    if args.trace:
        traces = os.path.join(build_root, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-file", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = [l for l in run.stdout.splitlines() if l.strip()]
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        fail("perfbench exited with %d" % run.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line is not JSON: " + lines[-1][:200])
    problems = check(result, spec, args.trace == 1)
    if problems:
        sys.stderr.write(run.stdout)
        fail("result does not match BENCHMARK.json:\n  " + "\n  ".join(problems))
    for line in lines:
        print(line)


if __name__ == "__main__":
    main()
