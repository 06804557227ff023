#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 hcbench/run.py --workload sweep|cold|rescan --seed N \
        --seconds S --trace 0|1

The script builds hcbench/main.exe with dune (the first build compiles the
simulator libraries from source), then runs it with the same arguments.
The last line of standard output is the benchmark's JSON result. Build
output goes to standard error.

The environment is cleaned first: OCAMLRUNPARAM, HC_JOBS and HC_CACHE_DIR
are removed (the benchmark sets its own GC parameters, starts no worker
domains and uses a private cache directory), and dune's shared cache is
disabled so nothing is written outside the repository.

Other entry points, run the same way:

    python3 hcbench/run.py --workload cold --self-test
    python3 hcbench/run.py --record-golden
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "hcbench", "main.exe")


def git_sha():
    """HEAD's commit, or "unknown" outside a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("hcbench: run from the repository root "
              "(no dune-project or lib/ here)", file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items()
           if k not in ("OCAMLRUNPARAM", "HC_JOBS", "HC_CACHE_DIR")}
    env["DUNE_CACHE"] = "disabled"
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./hcbench/main.exe"],
            stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("hcbench: build timed out", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("hcbench: build failed", file=sys.stderr)
        return 1
    args = [EXE] + sys.argv[1:] + [
        "--git-sha", git_sha(), "--nproc", str(os.cpu_count() or 0)]
    try:
        run = subprocess.run(args, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("hcbench: run timed out", file=sys.stderr)
        return 1
    return 0 if run.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
