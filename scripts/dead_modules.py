#!/usr/bin/env python3
"""Fail when a module under lib/ is unreachable from the programs.

Starting from every module name that bin/, ledger/ and examples/ mention,
follow mentions through lib/*/*.ml and .mli until nothing new is reached,
then name each lib/ module never reached.  Comments and string literals
are stripped first; a bare name reaches every lib/ module of that name.
Run from the repository root: python3 scripts/dead_modules.py
"""
import glob
import os
import re
import sys

# The text-IR reader: the reference for the print/parse round-trip tests.
ALLOWED = {"Parser", "Str_split"}
TOKEN = re.compile(r'\(\*|\*\)|\{\|.*?\|\}|"(?:\\.|[^"\\])*"'
                   r"|'(?:\\[0-9]{3}|\\.|[^\\'\n])'|[A-Z]\w*", re.S)


def mentions(path):
    depth, names = 0, set()
    for tok in TOKEN.findall(open(path, encoding="utf-8").read()):
        if tok == "(*":
            depth += 1
        elif tok == "*)":
            depth = max(depth - 1, 0)
        elif depth == 0 and tok[0].isupper():
            names.add(tok)
    return names


def module_name(path):
    return os.path.splitext(os.path.basename(path))[0].capitalize()


files = {}
for path in sorted(glob.glob("lib/*/*.ml") + glob.glob("lib/*/*.mli")):
    files.setdefault(module_name(path), []).append(path)
todo = set()
for path in glob.glob("bin/*.ml") + glob.glob("ledger/*.ml") + glob.glob("examples/*.ml"):
    todo |= mentions(path)
reached = set()
while todo:
    name = todo.pop()
    if name in files and name not in reached:
        reached.add(name)
        for path in files[name]:
            todo |= mentions(path)
dead = sorted(set(files) - reached - ALLOWED)
if dead:
    print("lib/ modules no program reaches: " + ", ".join(dead))
    sys.exit(1)
print(f"{len(reached)} of {len(files)} lib/ modules reachable; "
      f"allowlisted: {', '.join(sorted(ALLOWED))}")
