#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload distance --seed 1 --seconds 20 --trace 0

It builds the Go program in perfbench/ (its module points at the
repository root for the code under test) into .bench_build/, keeping the
Go build cache there too, then runs it with the given arguments. The
program prints its metrics and, as its last line, one JSON result; this
script passes its output and exit code through. Without the repository's
source next to perfbench/ the build fails and the script exits non-zero
without printing a result.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170


def main():
    root = os.getcwd()
    bench_dir = os.path.join(root, "perfbench")
    build = os.path.join(root, BUILD_DIR)
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOFLAGS="",
        GOENV="off",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
    )
    binary = os.path.join(build, "perfbench")
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench_dir, env=env)
    except OSError as err:
        print("perfbench: cannot run go: %s" % err, file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        ran = subprocess.run([binary] + sys.argv[1:], cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out after %ds" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
