#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload fleet|hotspot|storm --seed N \
        --seconds S --trace 0|1

Run from the repository root. The build (`dune build` of
perfbench/main.exe and the libraries it links) writes only under
`_build/`; its output goes to stderr, so the benchmark's JSON result is
the last line of stdout. Exits non-zero without a result when the build
or a correctness check fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def main():
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            cwd=ROOT,
            stdin=subprocess.DEVNULL,
            stdout=sys.stderr,
            stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    try:
        run = subprocess.run(
            [EXE] + sys.argv[1:], cwd=ROOT, stdin=subprocess.DEVNULL, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
