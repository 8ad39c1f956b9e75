#!/usr/bin/env python3
"""Fail when DESIGN.md or README.md names a lib/ value that does not exist.

Every backticked dotted path in the two documents, such as
`Machine.run_compiled` or `Softft.Experiments.fig2_rows`, is read from its
rightmost component that names a lib/ module: the component after it must
be defined in that module's .ml or .mli.  A lower-case name must be bound
there by a `let`, `and`, `val`, `external` or `type`, or be a record
field; a capitalized one must be a constructor, an exception or a
submodule.  A module that `include`s another defines its names too.
Paths that name no lib/ module (`List.map`, `Stdlib.compare`) are
skipped, and so is a path that ends at its module (`Fork`).

The match is lenient (a name bound anywhere in the file counts), so the
check errs towards passing; what it flags is a name the code lacks.
Run from the repository root: python3 scripts/doc_names.py
"""
import glob
import os
import re
import sys

DOCS = ["DESIGN.md", "README.md"]
FENCE = re.compile(r"^```.*?^```", re.M | re.S)
SPAN = re.compile(r"`([^`]+)`")
PATH = re.compile(r"[A-Za-z_][\w']*(?:\.[A-Za-z_][\w']*)+")
COMMENT = re.compile(r"\(\*.*?\*\)", re.S)
LOWER = [
    r"\b(?:let|and|val|external)\s+(?:rec\s+)?([a-z_][\w']*)",
    r"\btype\s+(?:nonrec\s+)?(?:'\w+\s+|\([^)]*\)\s+)?([a-z_][\w']*)",
    r"(?:^|[{;])\s*(?:mutable\s+)?([a-z_][\w']*)\s*:",
]
UPPER = [
    r"(?:\||=)\s*([A-Z][\w']*)",
    r"\b(?:exception|module)\s+([A-Z][\w']*)",
]


def module_name(path):
    return os.path.splitext(os.path.basename(path))[0].capitalize()


defined, includes = {}, {}
for path in sorted(glob.glob("lib/*/*.ml") + glob.glob("lib/*/*.mli")):
    # Nested comments are rare in lib/; a flat strip only errs lenient.
    text = COMMENT.sub(" ", open(path, encoding="utf-8").read())
    module = module_name(path)
    names = defined.setdefault(module, set())
    for pattern in LOWER + UPPER:
        names.update(re.findall(pattern, text, re.M))
    includes.setdefault(module, set()).update(
        re.findall(r"^include\s+([A-Z][\w']*)", text, re.M))
for module, included in includes.items():
    for other in included & set(defined):
        defined[module] |= defined[other]

stale = []
for doc in DOCS:
    text = FENCE.sub("", open(doc, encoding="utf-8").read())
    for span in SPAN.findall(text):
        for path in PATH.findall(span):
            parts = path.split(".")
            owners = [i for i, p in enumerate(parts) if p in defined]
            if not owners or owners[-1] + 1 == len(parts):
                continue
            module, name = parts[owners[-1]], parts[owners[-1] + 1]
            if name not in defined[module]:
                stale.append(f"{doc}: `{path}` ({module} defines no {name})")

for line in dict.fromkeys(stale):
    print(line)
if stale:
    sys.exit(1)
print(f"every lib/ name backticked in {' and '.join(DOCS)} is defined")
