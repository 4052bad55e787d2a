#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload audit-engine --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The first run configures and builds the
library sources under src/ plus adya_perfbench into .bench_build/
(Release); later runs only rebuild what changed. adya_perfbench's output is
passed through: a line per metric, then the JSON result as the last line.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
BINARY = os.path.join(BUILD_DIR, "adya_perfbench")


def build(root):
    source = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no src/CMakeLists.txt under %s; run from the "
                 "root of a checkout" % root)
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", source, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            sys.exit("perfbench: cmake configure failed")
    if subprocess.call(["cmake", "--build", BUILD_DIR, "--parallel", jobs],
                       stdout=sys.stderr) != 0:
        sys.exit("perfbench: build failed")


def main():
    root = os.getcwd()
    build(root)
    # exec: adya_perfbench's exit code and output are the benchmark's.
    os.execv(BINARY, [BINARY] + sys.argv[1:])


if __name__ == "__main__":
    main()
