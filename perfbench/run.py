#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload design|verify|serve --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The benchmark is the OCaml program perfbench/main.ml.  This script builds
it with dune from the checkout's own sources, runs it, and passes its
output through; the program's last stdout line is the JSON result.  A
tree without the repository's sources (dune-project, lib/) fails with a
non-zero exit and prints no result.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    root = os.getcwd()
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(root, needed)):
            fail("no %s here: run from the root of a repository checkout" % needed)
    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    # no shared dune cache: the build writes only inside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", root, "perfbench/main.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if build.returncode != 0 or not os.path.exists(exe):
        fail("build failed (dune exit %d)" % build.returncode)
    try:
        run = subprocess.run([exe] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
