#!/usr/bin/env python3
"""Fail when a library export has no caller outside its own module.

Every top-level `val` in lib/**/*.mli must satisfy one of:

- `Module.name` appears in some .ml file under lib, bin, bench,
  perfbench, examples or test, other than the module's own .ml;
- the bare `name` appears in a .ml file that opens the module
  (`open Module` or `let open Module in`), other than its own;
- `Module.name` is listed in tools/exports_allowlist.txt, one per line
  followed by the reason it stays exported.  An entry that names no
  export fails the check too.

Comments and string literals do not count as uses.  Indented vals (the
signatures of submodules) are not checked.

Usage: python3 tools/check_exports.py
Exit status 0 when every export has a caller, 1 otherwise.
"""
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCAN_DIRS = ["lib", "bin", "bench", "perfbench", "examples", "test"]
ALLOWLIST = os.path.join(ROOT, "tools", "exports_allowlist.txt")

QUOTED = re.compile(r"\{([a-z_]*)\|")
# a char literal ('a', '\n', '\123', '"'); a type variable or a primed
# identifier does not match
CHAR = re.compile(r"'(\\(\d{3}|x[0-9a-fA-F]{2}|.)|[^\\'])'")
QUALIFIED = re.compile(r"\b([A-Z][\w']*)\.([a-z_][\w']*)")
BARE = re.compile(r"(?<![\w'.])([a-z_][\w']*)")
OPEN = re.compile(r"\bopen!?\s+([A-Z][\w']*)")


def code_only(src):
    """Blank out comments and string literals, keeping line breaks."""
    out = []
    i, n = 0, len(src)
    depth = 0
    while i < n:
        c = src[i]
        if depth == 0 and src.startswith("(*", i):
            depth, i = 1, i + 2
            continue
        if depth > 0:
            if src.startswith("(*", i):
                depth, i = depth + 1, i + 2
            elif src.startswith("*)", i):
                depth, i = depth - 1, i + 2
            else:
                if c == "\n":
                    out.append(c)
                i += 1
            continue
        if c == '"':
            i += 1
            while i < n and src[i] != '"':
                if src[i] == "\\":
                    i += 1
                elif src[i] == "\n":
                    out.append("\n")
                i += 1
            i += 1
            out.append('""')
            continue
        m = QUOTED.match(src, i) if c == "{" else None
        if m:
            close = "|" + m.group(1) + "}"
            j = src.find(close, m.end())
            j = n if j < 0 else j
            out.append("\n" * src.count("\n", i, j) + '""')
            i = j + len(close)
            continue
        m = CHAR.match(src, i) if c == "'" else None
        if m:
            out.append("' '")
            i = m.end()
            continue
        out.append(c)
        i += 1
    return "".join(out)


def module_name(path):
    base = os.path.splitext(os.path.basename(path))[0]
    return base[0].upper() + base[1:]


def main():
    os.chdir(ROOT)
    # per .ml file: the qualified names (Module.name) its code mentions,
    # its bare lowercase names, and the modules it opens
    quals, bares, opens, mlis = {}, {}, {}, []
    for top in SCAN_DIRS:
        for d, dirs, files in os.walk(top):
            dirs[:] = [x for x in dirs if x != "_build"]
            for f in sorted(files):
                p = os.path.join(d, f)
                if f.endswith(".ml"):
                    with open(p) as h:
                        src = code_only(h.read())
                    quals[p] = {m + "." + n for m, n in QUALIFIED.findall(src)}
                    bares[p] = set(BARE.findall(src))
                    opens[p] = set(OPEN.findall(src))
                elif f.endswith(".mli") and top == "lib":
                    mlis.append(p)

    allowed = set()
    with open(ALLOWLIST) as h:
        for line in h:
            fields = line.split(None, 1)
            if not fields or fields[0].startswith("#"):
                continue
            if len(fields) < 2:
                sys.exit(f"{ALLOWLIST}: {fields[0]} needs a reason")
            allowed.add(fields[0])

    missing, exported = [], set()
    for mli in sorted(mlis):
        mod = module_name(mli)
        own = mli[:-1]
        with open(mli) as h:
            names = re.findall(r"^val\s+([a-z_][A-Za-z0-9_']*)", h.read(), re.M)
        others = [p for p in quals if p != own]
        for name in names:
            qualified = mod + "." + name
            exported.add(qualified)
            if qualified in allowed:
                continue
            if any(qualified in quals[p] for p in others):
                continue
            if any(mod in opens[p] and name in bares[p] for p in others):
                continue
            missing.append((mli, qualified))

    for mli, qualified in missing:
        print(f"{mli}: {qualified} is exported but nothing outside its module calls it")
    stale = sorted(allowed - exported)
    for qualified in stale:
        print(f"{os.path.relpath(ALLOWLIST, ROOT)}: {qualified} is not a top-level export")
    if missing:
        print(
            f"{len(missing)} export(s) without a caller: drop them from the .mli "
            f"(and delete them if nothing uses them), or list them with a reason "
            f"in {os.path.relpath(ALLOWLIST, ROOT)}"
        )
    if missing or stale:
        return 1
    print(f"every export of {len(mlis)} interfaces has a caller outside its module")
    return 0


if __name__ == "__main__":
    sys.exit(main())
