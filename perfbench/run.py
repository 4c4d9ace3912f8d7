#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. Builds the repository's library,
`mlcask_server` and the benchmark client (perfbench/CMakeLists.txt) into
`.bench_build/` (or $CARGO_TARGET_DIR when set), then runs the client, which
spawns real server processes, drives the named workload from one process,
checks every output, and prints one JSON result as its last stdout line.
Sockets, server logs and span dumps stay under the build directory.
"""

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("merge_wide", "merge_storm", "artifact_io")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))
            and os.path.isfile(os.path.join(ROOT, "tools", "mlcask_server.cc"))):
        fail("repository sources not found next to " + BENCH_DIR)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "perfbench_client", "mlcask_server"])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail("build step failed: %s" % err)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))


def fixed_layout():
    # Run the client (and, inherited, its servers) with address-space
    # randomization off: one less source of run-to-run variance.
    ADDR_NO_RANDOMIZE = 0x0040000
    try:
        ctypes.CDLL(None, use_errno=True).personality(ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(build_dir)
    client = os.path.join(build_dir, "perfbench_client")
    server = os.path.join(build_dir, "mlcask", "mlcask_server")

    # Unix socket paths are capped at 108 bytes, so the client gets a
    # run directory relative to the checkout root (its working directory).
    run_dir = os.path.join(build_dir, "run-%d" % os.getpid())
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    os.makedirs(os.path.join(build_dir, "traces"), exist_ok=True)
    env = dict(os.environ, TMPDIR=run_dir)
    command = [client, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--server-bin", server,
               "--run-dir", os.path.relpath(run_dir, ROOT)]
    if args.trace:
        command += ["--trace-out", os.path.join(
            build_dir, "traces", "%s-seed%d.json" % (args.workload, args.seed))]

    # The client and the servers it forks share one process group, so a
    # timeout takes all of them down together.
    proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            start_new_session=True, preexec_fn=fixed_layout)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("workload %s timed out after %ds" % (args.workload,
                                                  RUN_TIMEOUT_S), code=3)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    text = out.decode("utf-8", "replace")
    lines = text.rstrip("\n").splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if proc.returncode != 0:
        for name in sorted(os.listdir(run_dir)):
            if name.endswith(".log"):
                with open(os.path.join(run_dir, name), errors="replace") as log:
                    sys.stderr.write("--- %s ---\n%s" % (name, log.read()[-2000:]))
    shutil.rmtree(run_dir, ignore_errors=True)
    if not isinstance(result, dict):
        sys.stderr.write(text)
        fail("workload %s printed no result (exit %d)" % (args.workload,
                                                         proc.returncode),
             code=proc.returncode or 1)
    # A failed correctness check still prints its result, with
    # "correct": false, and exits non-zero.
    sys.stdout.write(text if text.endswith("\n") else text + "\n")
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
