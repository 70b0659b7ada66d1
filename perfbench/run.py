#!/usr/bin/env python3
"""Build and run the perf benchmark from the repository root.

    python3 perfbench/run.py --workload announce --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check BENCHMARK.json

Builds perfbench/perfbench.exe with dune (inside the checkout's _build,
shared build cache off), then runs it with the given arguments. The
executable prints the report and, last, one JSON result line. Exits
non-zero without a result when the repository sources are missing or
the build or the run fails.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = os.path.join("perfbench", "perfbench.exe")


def main():
    if not (
        os.path.isfile(os.path.join(ROOT, "dune-project"))
        and os.path.isdir(os.path.join(ROOT, "lib"))
    ):
        print("perfbench: repository sources not found next to perfbench/", file=sys.stderr)
        return 2
    dune = shutil.which("dune")
    if dune is None:
        print("perfbench: dune is not on PATH", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        [dune, "build", "--root", ".", "--display", "quiet", TARGET],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(ROOT, "_build", "default", TARGET)
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
