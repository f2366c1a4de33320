#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Usage, from the repository root:

    python3 perfbench/run.py --workload <frozen-serve|mutable-serve|sq8-batch> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Rust package of its own (perfbench/Cargo.toml) that
builds the program's crates from source. It is built in release mode into
CARGO_TARGET_DIR (default: .bench_build under the current directory), then
run with the same arguments. Its human-readable report goes to stderr; the
last line of stdout is the result JSON. The exit code is the benchmark's: 0
on success, non-zero when the build fails, a correctness check fails or the
run errors.
"""

import os
import subprocess
import sys

# The benchmark must finish well inside three minutes once built.
RUN_TIMEOUT_S = 170


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    # Two worker threads for the fork/join pools (NN-Descent and
    # search_batch), whatever the machine reports.
    env = dict(os.environ, CARGO_TARGET_DIR=target, NSG_SHIM_THREADS="2")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    exe = os.path.join(target, "release", "perfbench")
    scratch = os.path.join(target, "perfbench")
    try:
        run = subprocess.run([exe, *sys.argv[1:], "--scratch", scratch], env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
