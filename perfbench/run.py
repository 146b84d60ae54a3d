#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload fb15k-transe --seed 1 --seconds 20 --trace 0

The first call configures and builds the library plus the benchmark binary
into .bench_build/perfbench (Release); later calls only re-check the build.
The binary runs with a pool width of 2 (SPTX_RUNTIME_THREADS=2) and with
every other SPTX_* knob cleared, so the inherited environment cannot change
what is measured. Its last stdout line is the result JSON; build output goes
to stderr. With --trace 1 the span trace is written to
.bench_build/traces/<workload>-seed<seed>.json.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
POOL_WIDTH = "2"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "sptransx.hpp")):
        fail(f"library sources not found under {ROOT}/src")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def git_sha():
    """HEAD's commit id when the checkout is a git work tree, else unknown."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small blocks and one setup (the benchmark's own tests)")
    args = parser.parse_args()

    build()

    env = {k: v for k, v in os.environ.items() if not k.startswith("SPTX_")}
    # Procs-mode DDP stages its data file and socket under TMPDIR; a path
    # relative to the checkout keeps them inside it and short enough for a
    # Unix socket address.
    tmp = os.path.join(".bench_build", "tmp")
    os.makedirs(os.path.join(ROOT, tmp), exist_ok=True)
    env.update(SPTX_RUNTIME_THREADS=POOL_WIDTH, OMP_NUM_THREADS=POOL_WIDTH,
               PERFBENCH_GIT_SHA=git_sha(), TMPDIR=tmp)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]

    # Own process group, so a timeout also reaps any DDP worker processes.
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"benchmark exited with code {proc.returncode}")
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
