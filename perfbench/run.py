#!/usr/bin/env python3
"""Build the program from source and run one benchmark workload.

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 20 --trace 0

Run from the root of a source tree.  Builds `bin/main.exe` (the volcomp
CLI) and `perfbench/bench.exe` with dune into `.bench_build/`, runs the
workload with scratch files under `.bench_run/`, relays the report and
ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.
Exits non-zero, without a result line, when the tree cannot be built or
the workload cannot run.  See perfbench/README.md for the metrics.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ("serve-hot", "serve-churn", "ladder", "synth")
BUILD_DIR = ".bench_build"
WORK_DIR = ".bench_run"
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_id(root):
    """The commit when the tree is a git checkout, else a digest of its sources."""
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("dune-project", "bin", "lib", "perfbench"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "sources-sha256:" + h.hexdigest()[:16]


def group_alive(pgid):
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % pid) as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


def stop_group(pgid):
    """Kill whatever is left of the run's process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.time() + 10
    while group_alive(pgid) and time.time() < deadline:
        time.sleep(0.05)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    root = os.getcwd()
    for need in ("dune-project", "bin/main.ml", "lib", "perfbench/bench.ml"):
        if not os.path.exists(os.path.join(root, need)):
            fail("not a volcomp source tree (missing %s)" % need)

    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "./bin/main.exe", "./perfbench/bench.exe"],
        cwd=root, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    if build.returncode != 0:
        sys.stderr.write(build.stderr)
        fail("build failed")
    exe = os.path.join(BUILD_DIR, "default", "bin", "main.exe")
    bench = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
    os.makedirs(WORK_DIR, exist_ok=True)

    cmd = [bench, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--exe", exe, "--dir", WORK_DIR, "--commit", source_id(root)]
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.wait()
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S)
    stop_group(proc.pid)
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(out)
        fail("workload exited with code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(out)
        fail("workload printed no result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result: %s" % lines[-1])
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
