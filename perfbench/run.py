#!/usr/bin/env python3
"""Repository benchmark: builds efd_perfbench and runs one workload.

    python3 perfbench/run.py --workload explore|explore-spill|farm \
        --seed N --seconds S --trace 0|1

Run it from the repository root. The first run configures and builds
perfbench/ (which compiles the library from src/) into .bench_build/, or into
$CARGO_TARGET_DIR when that is set; later runs only rebuild what changed.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics. --trace 0 prints the end-to-end metrics, --trace 1 the
per-layer ones and writes the run's spans to
<build dir>/spans/<workload>-seed<N>.jsonl. Build output and the human
report go to standard error.

Exit status: 0 when every verdict matched its known answer, 1 when one did
not (the result line still prints), 2 on a build or usage failure, 3 when
efd_perfbench failed or timed out (no result line).
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("explore", "explore-spill", "farm")
# Measuring must end within 180 s of the start of a run (a first run may
# build for longer before that).
RUN_DEADLINE_S = 175


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build(targets):
    """Configures (once) and builds; returns the build directory or None."""
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(bdir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", bdir, "-j", jobs, "--target", *targets])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
                return None
    return bdir


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    bdir = build(["efd_perfbench"])
    if bdir is None:
        return 2
    work = os.path.join(bdir, "work", "%s-%d" % (args.workload, os.getpid()))
    spans_dir = os.path.join(bdir, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [os.path.join(bdir, "efd_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work,
           "--spans", os.path.join(spans_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_DEADLINE_S)
    except subprocess.TimeoutExpired:
        print("perfbench: efd_perfbench timed out", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        print("perfbench: efd_perfbench failed with status %d" % proc.returncode, file=sys.stderr)
        return 3
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print("perfbench: efd_perfbench printed no result line", file=sys.stderr)
        return 3
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: malformed result line", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
