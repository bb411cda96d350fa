#!/usr/bin/env python3
"""Build the repository benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload local-mail --seed 1 --seconds 10 --trace 0

Every argument is passed to the benchmark binary (see perfbench/main.go).
The binary, the Go build cache and the span files go under the directory
named by CARGO_TARGET_DIR, or .bench_build when it is unset. The build uses
only the local toolchain and the sources in this tree; a tree without the
Simurgh module next to perfbench/ fails to build, and the script then exits
non-zero without running anything.
"""

import os
import subprocess
import sys


def main() -> int:
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    out_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(out_dir, exist_ok=True)
    binary = os.path.join(out_dir, "perfbench")
    env = dict(
        os.environ,
        GOCACHE=os.path.join(out_dir, "gocache"),
        GOPATH=os.path.join(out_dir, "gopath"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOWORK="off",
    )
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench_dir, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([binary] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
