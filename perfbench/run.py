#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload trace_replay --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The first run configures and builds perfbench/ (which compiles ../src) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset; later runs
only rebuild what changed. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. HIPEC_JIT is removed from the environment: the benchmark pins
the dispatch mode itself. Exits non-zero when the build or any output check fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 175


def build(build_dir, env):
    if not (build_dir / "Makefile").exists():
        configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", str(build_dir), "-j", jobs]
    return subprocess.run(compile_cmd, stdout=sys.stderr, env=env).returncode == 0


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the benchmark's own tests and a smoke round of each workload")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    env = dict(os.environ)
    if env.pop("HIPEC_JIT", None) is not None:
        print("perfbench: ignoring HIPEC_JIT from the environment", file=sys.stderr)
    build_dir = ROOT / env.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    # Compiler temporaries stay inside the checkout too.
    tmp_dir = build_dir / "tmp"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp_dir)
    if not build(build_dir, env):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    # Relative to the checkout root (the working directory of the benchmark), which keeps
    # the server's socket path short.
    workdir = os.path.relpath(build_dir, ROOT)

    if args.selftest:
        cmd = [str(build_dir / "perfbench_tests"), "--root", ".", "--workdir", workdir]
    else:
        cmd = [str(build_dir / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--root", ".", "--workdir", workdir,
               "--commit", git_commit()]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
