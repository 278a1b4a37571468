#!/usr/bin/env python3
"""Build the benchmark from source with dune and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The benchmark binary prints its report
and, as the last line of standard output, the result object; its exit
code is passed through (non-zero when the build fails, an output check
fails or a pass diverges from the seed's fingerprint).
"""

import os
import subprocess
import sys

TARGET = os.path.join("perfbench", "bin", "main.exe")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kw):
    proc = subprocess.Popen(cmd, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 124


def main():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, TARGET.replace("main.exe", "main.ml"))):
        print("perfbench: run from the repository root", file=sys.stderr)
        return 2
    # The shared dune cache lives outside the checkout: keep it off.
    build = run(
        ["dune", "build", "--root", ".", "--cache=disabled", "./" + TARGET],
        BUILD_TIMEOUT_S,
        stdout=sys.stderr,
    )
    if build != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build
    exe = os.path.join(root, "_build", "default", TARGET)
    return run([exe] + sys.argv[1:], RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
