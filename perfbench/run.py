#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <serve_join|serve_point|ingest_mixed>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. Builds the wdsparql library, the
wdsparql_load / wdsparql_serve tools and the benchmark program from
source (Release, CMake package in perfbench/) into $CARGO_TARGET_DIR
(default .bench_build), checks the program's order statistics with its
self-test, then runs the program with a fresh temporary directory under
the build directory for the generated inputs. The program's last stdout
line is the result object; perfbench/perfbench.cc documents the workloads
and every metric. Exits non-zero without a result when the sources are
missing or the build fails.
"""

import argparse
import ctypes
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_join", "serve_point", "ingest_mixed")
RUN_TIMEOUT_S = 175


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def die_with_parent():
    """Children of this script are killed if it dies (Linux prctl)."""
    PR_SET_PDEATHSIG = 1
    ctypes.CDLL(None).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


def source_identity():
    """The git commit when there is one, else a digest of the sources."""
    try:
        if not os.path.isdir(os.path.join(ROOT, ".git")):
            raise OSError("not a git checkout")
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha1()
    for top in ("CMakeLists.txt", "include", "src", "tools"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "tree-" + digest.hexdigest()[:16]


def build(build_dir):
    for needed in ("CMakeLists.txt", "src", "include", "tools"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            die("source tree incomplete: %s missing under %s" % (needed, ROOT))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "2", "--target",
                  "perfbench", "perfbench_stats_test", "wdsparql_load",
                  "wdsparql_serve"])
    steps.append([os.path.join(build_dir, "perfbench_stats_test")])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            die("build step failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    build(build_dir)

    tmp_root = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    command = [
        os.path.join(build_dir, "perfbench"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace,
        "--bin-dir", os.path.join(build_dir, "wdsparql"),
        "--work-dir", work_dir,
        "--trace-dir", os.path.join(build_dir, "traces"),
        "--commit", source_identity(),
    ]
    try:
        proc = subprocess.Popen(command, cwd=ROOT, preexec_fn=die_with_parent)
        try:
            code = proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            die("benchmark program exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
