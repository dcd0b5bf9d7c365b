#!/usr/bin/env python3
"""Build the benchmark harness from source, then run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The build goes to _build/ in the checkout (dune's shared cache is
disabled, so nothing is written outside it); its output goes to stderr.
Exits non-zero without printing a result when the build fails, e.g.
when the library sources are missing.
"""

import os
import subprocess
import sys

TARGET = "./perfbench/perfbench.exe"


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", TARGET],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join("_build", "default", "perfbench", "perfbench.exe")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
