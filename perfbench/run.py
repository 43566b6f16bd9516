#!/usr/bin/env python3
"""Entry point of the end-to-end benchmark.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1
    python3 perfbench/run.py abort-test

Run from the repository root.  Builds the `etx` binary and the benchmark
program etxbench (perfbench/src) from source with dune, then hands the
process over to etxbench, which spawns and owns every daemon, measures,
checks every output and prints the result as the last line of stdout.
Build output goes to stderr so stdout carries only etxbench's report.
"""

import os
import shutil
import subprocess
import sys

SOURCES = ["dune-project", "bin/etx_main.ml", "lib", "perfbench/src/etxbench.ml"]
TARGETS = ["./bin/etx_main.exe", "./perfbench/src/etxbench.exe"]
ETXBENCH = "_build/default/perfbench/src/etxbench.exe"


def find_dune():
    dune = shutil.which("dune")
    if dune:
        return dune
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    candidates = [os.path.join(prefix, "bin", "dune")] if prefix else []
    opam_root = os.path.expanduser("~/.opam")
    if os.path.isdir(opam_root):
        candidates += [os.path.join(opam_root, d, "bin", "dune") for d in sorted(os.listdir(opam_root))]
    for c in candidates:
        if os.access(c, os.X_OK):
            os.environ["PATH"] = os.path.dirname(c) + os.pathsep + os.environ.get("PATH", "")
            return c
    return None


def main():
    missing = [p for p in SOURCES if not os.path.exists(p)]
    if missing:
        sys.stderr.write("run.py: run from the repository root (missing: %s)\n" % ", ".join(missing))
        return 2
    dune = find_dune()
    if dune is None:
        sys.stderr.write("run.py: dune not found\n")
        return 2
    build = subprocess.run([dune, "build", "--root", ".", *TARGETS], stdout=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("run.py: build failed\n")
        return 2
    args = sys.argv[1:]
    command = args if args[:1] == ["abort-test"] else ["run", *args]
    sys.stdout.flush()
    os.execv(ETXBENCH, [ETXBENCH, *command])


if __name__ == "__main__":
    sys.exit(main())
