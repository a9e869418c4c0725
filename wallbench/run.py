#!/usr/bin/env python3
r"""Wall-clock benchmark of BioOpera: builds the benchmark from source and
runs one workload, printing one JSON result as the last line of stdout.

    python3 wallbench/run.py --workload fanout_crash --seed 1 --seconds 30 \
        --trace 0

Run it from the root of the repository. The build goes to
$CARGO_TARGET_DIR/wallbench (default .bench_build/wallbench); stores,
scratch files and span traces stay under that directory too. See
wallbench/README.md for the workloads and metrics.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("fanout_crash", "front_door_restart", "allvsall_real")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"wallbench: {msg}", file=sys.stderr, flush=True)


def scoped_env(build_dir):
    """Environment whose temporary files (compiler scratch included) stay
    inside the build directory."""
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build(root, build_dir):
    """Configures and builds the benchmark (incremental after the first run)."""
    bench_dir = os.path.join(root, "wallbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log(f"BioOpera sources not found under {root}/src")
        return None
    os.makedirs(build_dir, exist_ok=True)
    binary = os.path.join(build_dir, "wallbench")
    env = scoped_env(build_dir)
    # One build at a time per build directory.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", bench_dir, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env).returncode:
                log("cmake configure failed")
                return None
        jobs = str(len(os.sched_getaffinity(0)))
        if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                          stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            log("build failed")
            return None
    return binary if os.path.isfile(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "wallbench")
    binary = build(root, build_dir)
    if binary is None:
        return 1

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work_dir = os.path.join(build_dir, "work", tag)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, tag + ".jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S,
                              env=scoped_env(build_dir))
    except subprocess.TimeoutExpired:
        log("benchmark run timed out")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0:
        log(f"benchmark exited with {proc.returncode}")
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("benchmark printed no result")
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("malformed result")
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
