#!/usr/bin/env python3
"""Build the benchmark and run one workload.

    python3 perfbench/run.py --workload fig4|study|serve-cold --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/main.exe and the
qubikos binary that serve-cold spawns, then hands every argument to
main.exe, whose last line of standard output is the result. Build
output goes to standard error. Exits non-zero without a result when the
checkout lacks the program's sources or the build fails.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGETS = ["perfbench/main.exe", "bin/qubikos_cli.exe"]
SOURCES = ["dune-project", "lib", "bin", "perfbench"]


def source_digest():
    """A digest of the sources the benchmark builds, standing in for a
    commit id: a checkout need not be a git repository."""
    h = hashlib.sha256()
    for top in SOURCES:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for path in paths:
            h.update(path.encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def main():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        sys.exit("perfbench: no dune-project at %s; run from a checkout of "
                 "the whole repository" % ROOT)
    os.chdir(ROOT)
    # The dune cache lives outside the checkout; keep every build file in
    # _build.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release"] + TARGETS,
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        sys.exit("perfbench: build failed (exit %d)" % build.returncode)
    exe, server = (os.path.join("_build", "default", t) for t in TARGETS)
    env["PERFBENCH_SOURCE"] = source_digest()
    sys.stdout.flush()
    os.execve(exe, [exe] + sys.argv[1:] + ["--server", server], env)


if __name__ == "__main__":
    main()
