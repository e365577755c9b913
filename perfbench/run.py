#!/usr/bin/env python3
"""Build the planner benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload search|sweep|serve|fleet \\
        --seed N --seconds S --trace 0|1 [--smoke]

The build goes to $CARGO_TARGET_DIR, or to .bench_build when that is
unset. The last line of standard output is the JSON result; the exit code
is non-zero when the build fails or a correctness check fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
