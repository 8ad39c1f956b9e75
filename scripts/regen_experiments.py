#!/usr/bin/env python3
"""Regenerate the generated blocks of EXPERIMENTS.md in place.

A generated block is

    <!-- BEGIN generated: experiments ARGS -->
    ```text
    (the stdout of `experiments ARGS`)
    ```
    <!-- END generated -->

Each block's command runs through the built `experiments` binary at its
default domain count; campaigns are bit-identical at any domain count.
To check the committed text against the code, build, run this script
from the repository root, then `git diff --exit-code EXPERIMENTS.md`.

Usage: python3 scripts/regen_experiments.py
"""

import re
import shlex
import subprocess
import sys

EXE = "_build/default/bin/experiments.exe"
DOC = "EXPERIMENTS.md"
BLOCK = re.compile(
    r"(<!-- BEGIN generated: experiments (.*?) -->\n)(.*?)(<!-- END generated -->)",
    re.S,
)


def regenerate(m):
    out = subprocess.run(
        [EXE, *shlex.split(m.group(2))],
        check=True,
        stdout=subprocess.PIPE,
        encoding="utf-8",
    ).stdout
    return m.group(1) + "```text\n" + out.strip("\n") + "\n```\n" + m.group(4)


def main():
    with open(DOC, encoding="utf-8") as f:
        text = f.read()
    text, n = BLOCK.subn(regenerate, text)
    if n == 0:
        sys.exit(f"{DOC}: no generated blocks")
    with open(DOC, "w", encoding="utf-8") as f:
        f.write(text)
    print(f"{DOC}: regenerated {n} block(s)")


if __name__ == "__main__":
    main()
