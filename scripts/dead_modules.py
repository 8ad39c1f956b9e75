#!/usr/bin/env python3
"""Fail when a module, a top-level value or an option under lib/ has no caller.

Modules: starting from every module name that bin/, ledger/ and
examples/ mention, follow mentions through lib/*/*.ml and .mli until
nothing new is reached, then name each lib/ module never reached.

Values: a top-level value of a lib/ module is each column-0 `val` of its
.mli, or each column-0 `let`/`and` of its .ml when it has no .mli.  It is
dead when no file of bin/, ledger/, examples/ or another lib/ module
names it, and its own .ml names it only at its definition.  Names are
bare: `x` anywhere counts as a mention of every value called `x`, so the
check errs towards keeping a value.

Options: an optional argument `?x` of a live top-level value is dead when
no file other than its own module's .ml and .mli passes `~x` or `?x`.  A
label that the module itself forwards (an inner call passing `~x` on)
does not keep the option alive.  Labels are bare too, so a label any
function of another file passes keeps the option.

Comments and string literals are stripped first.  Tests do not count as
callers: a value or option only tests need goes on ALLOWED_VALUES or
ALLOWED_OPTIONS with the test.
Run from the repository root: python3 scripts/dead_modules.py
"""
import glob
import os
import re
import sys

# Modules only tests reach: none, since test-only code lives under test/.
ALLOWED = set()
# Values and options that only tests use, each with the test that needs it.
ALLOWED_VALUES = set()
ALLOWED_OPTIONS = {
    # api "experiments: evaluate" and "experiments: csv export" run two
    # techniques to stay fast.
    "Experiments.evaluate ?techniques",
    # obs "progress: heartbeat jsonl" forces a snapshot per trial (0.0);
    # the others silence the heartbeat (1e9) to count without emitting.
    "Progress.create ?interval",
    # profiling "histogram: bins bounded and mass conserved" varies B.
    "Histogram.create ?max_bins",
}
TOKEN = re.compile(r'\(\*|\*\)|\{\|.*?\|\}|"(?:\\.|[^"\\])*"'
                   r"|'(?:\\[0-9]{3}|\\.|[^\\'\n])'|[A-Za-z_][\w']*", re.S)
DEF = re.compile(r"^(let|and|val|type|module|class|exception|external|open"
                 r"|include)\b(?:\s+rec\b)?\s*([a-z_][\w']*)?", re.M)


def strip(path):
    """The file's text with comments and literals blanked, lines kept."""
    def blank(s):
        return re.sub(r"[^\n]", " ", s)
    text = open(path, encoding="utf-8").read()
    out, depth, last = [], 0, 0
    for m in TOKEN.finditer(text):
        tok, inside = m.group(), depth > 0
        if tok == "(*":
            depth += 1
        elif tok == "*)":
            depth = max(depth - 1, 0)
        hide = inside or tok in ("(*", "*)") or tok[0] in "\"'{"
        out += [blank(text[last:m.start()]) if inside else text[last:m.start()],
                blank(tok) if hide else tok]
        last = m.end()
    out.append(text[last:])
    return "".join(out)


def idents(text):
    return re.findall(r"[A-Za-z_][\w']*", text)


def definitions(text, keyword):
    """(name, start, end) of each column-0 `keyword` binding (and of its
    `and` continuations): a `val` runs to the next column-0 item, a `let`
    header to its first `=` outside parentheses."""
    items = list(DEF.finditer(text)) + [None]
    found, current = [], None
    for m, nxt in zip(items, items[1:]):
        if m.group(1) != "and":
            current = m.group(1)
        if current != keyword or not m.group(2):
            continue
        end = nxt.start() if nxt else len(text)
        if keyword == "let":
            depth, i = 0, m.end()
            while i < end and not (text[i] == "=" and depth == 0):
                depth += {"(": 1, ")": -1}.get(text[i], 0)
                i += 1
            end = i
        found.append((m.group(2), m.start(), end))
    return found


def module_name(path):
    return os.path.splitext(os.path.basename(path))[0].capitalize()


texts = {path: strip(path) for path in sorted(
    glob.glob("lib/*/*.ml") + glob.glob("lib/*/*.mli")
    + glob.glob("bin/*.ml") + glob.glob("ledger/*.ml")
    + glob.glob("examples/*.ml"))}
tokens = {path: idents(text) for path, text in texts.items()}
files = {}
for path in texts:
    if path.startswith("lib/"):
        files.setdefault(module_name(path), []).append(path)
todo = {t for path in texts if not path.startswith("lib/")
        for t in tokens[path]}
reached = set()
while todo:
    name = todo.pop()
    if name in files and name not in reached:
        reached.add(name)
        for path in files[name]:
            todo |= set(tokens[path])
dead = sorted(set(files) - reached - ALLOWED)

dead_values, dead_options = [], []
labels = {path: set(re.findall(r"[~?]([a-z_][\w']*)", text))
          for path, text in texts.items()}
for ml in (p for p in texts if p.startswith("lib/") and p.endswith(".ml")):
    mli = ml + "i"
    values = (definitions(texts[mli], "val") if mli in texts
              else definitions(texts[ml], "let"))
    outside = {t for path in texts if path not in (ml, mli)
               for t in tokens[path]}
    passed = {t for path in texts if path not in (ml, mli)
              for t in labels[path]}
    text_ml = texts[ml]
    for v, start, end in values:
        qualified = f"{module_name(ml)}.{v}"
        if v not in outside and tokens[ml].count(v) <= 1:
            if qualified not in ALLOWED_VALUES:
                dead_values.append(qualified)
            continue
        # An option is passed when [~x] or [?x] appears in a file other
        # than the module's own.
        declared = texts.get(mli, text_ml)[start:end]
        for x in re.findall(r"\?\(?\s*([a-z_][\w']*)", declared):
            option = f"{qualified} ?{x}"
            if x not in passed and option not in ALLOWED_OPTIONS:
                dead_options.append(option)

if dead:
    print("lib/ modules no program reaches: " + ", ".join(dead))
if dead_values:
    print(f"lib/ values no program calls ({len(dead_values)}): "
          + ", ".join(dead_values))
if dead_options:
    print(f"lib/ options no program passes ({len(dead_options)}): "
          + ", ".join(dead_options))
if dead or dead_values or dead_options:
    sys.exit(1)
print(f"{len(reached)} of {len(files)} lib/ modules reachable; "
      f"allowlisted: {', '.join(sorted(ALLOWED)) or 'none'}; "
      f"every top-level value and option has a caller "
      f"({len(ALLOWED_VALUES)} values and {len(ALLOWED_OPTIONS)} options "
      f"allowlisted for tests)")
