#!/usr/bin/env python3
"""Builds the benchmark and the server it drives from source, then runs one
measurement and passes its output and exit code through.

    python3 perfbench/run.py --workload sensor_gd|dns_auto|flows_durable \
        --seed N --seconds S --trace 0|1

Run it from the repository root. The build goes to $CARGO_TARGET_DIR when
set (relative to the working directory, as cargo reads it), otherwise to
perfbench/target. Build output goes to standard error, so the last line of
standard output is the benchmark's JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet", "--bins",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
