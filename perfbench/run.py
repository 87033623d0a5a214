#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload grid_cold|fleet_mix|stream_long \
        --seed N --seconds S --trace 0|1

Builds the `critic` binary and the `perfbench` binary in release mode
(into $CARGO_TARGET_DIR, default `.bench_build`), then runs `perfbench`.
Its last stdout line is the JSON result; its exit code is
passed through. Scratch state goes to `.bench_work/`.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    os.chdir(ROOT)
    if not os.path.isfile("Cargo.toml"):
        print("perfbench: run from a checkout of the repository", file=sys.stderr)
        return 2
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.abspath(target)
    builds = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "critic-bench", "--bin", "critic"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for build in builds:
        # Build output goes to stderr so stdout stays the result stream.
        if subprocess.run(build, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(build), file=sys.stderr)
            return 1
    perfbench = os.path.join(target, "release", "perfbench")
    critic = os.path.join(target, "release", "critic")
    command = [perfbench, *sys.argv[1:], "--critic", critic, "--work", ".bench_work"]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
