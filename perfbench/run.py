#!/usr/bin/env python3
"""Build the slow-link benchmark from source and run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The benchmark is built with
dune into .bench_build/ (the shared dune cache is disabled, so nothing
is written outside the checkout), then perfbench.exe runs with the same
arguments in the checkout root.  Its standard output passes through
unchanged; the last line is the JSON result.  Build diagnostics go to
standard error.  The exit code is the benchmark's, or non-zero if the
build fails.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def main() -> int:
    root = os.getcwd()
    build_dir = os.path.join(root, ".bench_build")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", root, "--build-dir", build_dir,
             "--display", "quiet", "./perfbench/perfbench.exe"],
            cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    exe = os.path.join(build_dir, "default", "perfbench", "perfbench.exe")
    if build.returncode != 0 or not os.path.exists(exe):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        run = subprocess.run([exe] + sys.argv[1:], cwd=root,
                             timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
