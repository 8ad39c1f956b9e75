#!/usr/bin/env python3
"""Build the performance ledger from source, then run it.

Run from anywhere inside a softft source tree:

    python3 ledger/run.py --workload matrix --seed 1 --seconds 15 --trace 0
    python3 ledger/run.py ledger --quick

Builds ledger/ledger.exe with dune (build output goes to stderr, so the
ledger's own last stdout line stays its JSON result), then runs it from
the repository root with the arguments given.  Exits 2 without a result
when the tree around this script holds no library sources to build.
"""

import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    missing = [p for p in ("dune-project", "lib") if not os.path.exists(os.path.join(root, p))]
    if missing:
        print(f"ledger: {root} is not a softft source tree (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2
    # The shared dune cache lives outside the tree; build without it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", root, "./ledger/ledger.exe"],
            cwd=root, env=env, stdout=sys.stderr)
    except FileNotFoundError:
        print("ledger: dune is not on PATH", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("ledger: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(root, "_build", "default", "ledger", "ledger.exe")
    return subprocess.run([exe] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
