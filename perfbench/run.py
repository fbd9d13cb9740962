#!/usr/bin/env python3
"""Build and run the lmbench++ repository benchmark.

    python3 perfbench/run.py --workload suite|echo_closed|rpc_open \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root.  The first call configures the repository's
CMake project with the perfbench directory grafted in and builds the
`perfbench` target under $CARGO_TARGET_DIR (default .bench_build); later
calls rebuild incrementally.  Build output goes to stderr, so the last line
of stdout is the benchmark's result object.  Scratch files, temporary files
of the benchmarks and the Chrome trace of a traced run are written under
<build dir>/perfbench-work.  See perfbench/README.md for the workloads and
metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def work_env(out):
    """The environment for builds and runs: temporary files stay in `out`."""
    tmp = os.path.join(out, "perfbench-work", "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"lmbench++ sources not found: {os.path.join(ROOT, needed)} is missing")
    out = build_dir()
    env = work_env(out)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", ROOT, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
               "-DCMAKE_PROJECT_INCLUDE=" + os.path.join(HERE, "graft.cmake")]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
        fail("build failed")
    return os.path.join(out, "perfbench", "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["suite", "echo_closed", "rpc_open"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check the output checks and that BENCHMARK.json matches perfbench")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        fail("--workload is required")
    if args.seed < 0:
        fail("--seed must be non-negative")

    binary = build()
    if args.self_test:
        sys.exit(subprocess.run([binary, "--self-test",
                                 os.path.join(ROOT, "BENCHMARK.json")]).returncode)

    work = os.path.join(build_dir(), "perfbench-work")
    env = work_env(build_dir())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--work-dir", work]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
