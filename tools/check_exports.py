#!/usr/bin/env python3
"""Fail when a library export has no caller, or only tests call it.

Every top-level `val` in lib/**/*.mli must pass two rules, unless
`Module.name` is listed in tools/exports_allowlist.txt, one per line
followed by the reason it stays exported (an entry that names no
export fails the check too):

1. Some caller outside its module: `Module.name` appears in a .ml
   file under lib, bin, bench, perfbench, examples or test, other than
   the module's own .ml; or the bare `name` appears in such a file that
   opens the module (`open Module` or `let open Module in`).
2. Some caller that is not a test: as rule 1, but over lib, bin, bench,
   perfbench and examples only, where a mention of `name` in the
   module's own .ml other than its definition also counts.  Tests
   check library code; they do not keep it alive.

Comments and string literals do not count as uses.  Indented vals (the
signatures of submodules) are not checked.

Usage: python3 tools/check_exports.py [--self-test]
Exit status 0 when every export passes, 1 otherwise.  --self-test runs
the check on a small tree built in a temporary directory instead.
"""
import os
import re
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCAN_DIRS = ["lib", "bin", "bench", "perfbench", "examples", "test"]
TEST_DIR = "test"
ALLOWLIST = os.path.join("tools", "exports_allowlist.txt")

QUOTED = re.compile(r"\{([a-z_]*)\|")
# a char literal ('a', '\n', '\123', '"'); a type variable or a primed
# identifier does not match
CHAR = re.compile(r"'(\\(\d{3}|x[0-9a-fA-F]{2}|.)|[^\\'])'")
QUALIFIED = re.compile(r"\b([A-Z][\w']*)\.([a-z_][\w']*)")
BARE = re.compile(r"(?<![\w'.])([a-z_][\w']*)")
OPEN = re.compile(r"\bopen!?\s+([A-Z][\w']*)")
# a name after these keywords is a definition, not a use
DEFINES = re.compile(r"\b(?:let|and|external)(?:\s+rec)?\s+([a-z_][\w']*)")


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


def check(root):
    """Return (exports without a caller outside their module, exports
    without a caller outside the tests, stale allowlist entries, number
    of interfaces), each export as (mli path, Module.name)."""
    # per .ml file: the qualified names (Module.name) its code mentions,
    # its bare lowercase names, those of them it uses other than where it
    # defines them, and the modules it opens
    quals, bares, uses, opens, mlis = {}, {}, {}, {}, []
    for top in SCAN_DIRS:
        for d, dirs, files in os.walk(os.path.join(root, top)):
            dirs[:] = [x for x in dirs if x != "_build"]
            for f in sorted(files):
                p = os.path.relpath(os.path.join(d, f), root)
                if f.endswith(".ml"):
                    with open(os.path.join(root, p)) as h:
                        src = code_only(h.read())
                    quals[p] = {m + "." + n for m, n in QUALIFIED.findall(src)}
                    bares[p] = set(BARE.findall(src))
                    defs = {m.start(1) for m in DEFINES.finditer(src)}
                    uses[p] = {
                        m.group(1) for m in BARE.finditer(src) if m.start() not in defs
                    }
                    opens[p] = set(OPEN.findall(src))
                elif f.endswith(".mli") and top == "lib":
                    mlis.append(p)

    allowed = set()
    with open(os.path.join(root, ALLOWLIST)) as h:
        for line in h:
            fields = line.split(None, 1)
            if not fields or fields[0].startswith("#"):
                continue
            if len(fields) < 2:
                sys.exit(f"{ALLOWLIST}: {fields[0]} needs a reason")
            allowed.add(fields[0])

    def test(p):
        return p.split(os.sep, 1)[0] == TEST_DIR

    no_caller, test_only, exported = [], [], set()
    for mli in sorted(mlis):
        mod = module_name(mli)
        own = mli[:-1]
        with open(os.path.join(root, mli)) as h:
            names = re.findall(r"^val\s+([a-z_][A-Za-z0-9_']*)", h.read(), re.M)
        others = [p for p in quals if p != own]
        for name in names:
            qualified = mod + "." + name
            exported.add(qualified)
            if qualified in allowed:
                continue
            callers = [
                p
                for p in others
                if qualified in quals[p] or (mod in opens[p] and name in bares[p])
            ]
            if not callers:
                no_caller.append((mli, qualified))
            elif all(test(p) for p in callers) and name not in uses.get(own, ()):
                test_only.append((mli, qualified))
    return no_caller, test_only, sorted(allowed - exported), len(mlis)


def report(root):
    no_caller, test_only, stale, n_mlis = check(root)
    for mli, qualified in no_caller:
        print(f"{mli}: {qualified} is exported but nothing outside its module calls it")
    for mli, qualified in test_only:
        print(f"{mli}: {qualified} is exported but only tests call it")
    for qualified in stale:
        print(f"{ALLOWLIST}: {qualified} is not a top-level export")
    flagged = len(no_caller) + len(test_only)
    if flagged:
        print(
            f"{flagged} export(s) without a caller outside the tests: drop them "
            f"from the .mli (and delete them if nothing uses them), or list "
            f"them with a reason in {ALLOWLIST}"
        )
    if flagged or stale:
        return 1
    print(f"every export of {n_mlis} interfaces has a caller outside the tests")
    return 0


def self_test():
    """Build a tree whose only export called by tests alone is
    `Lib_a.tested`, and check that exactly it is flagged."""
    files = {
        "lib/a/lib_a.mli": "val tested : int\nval called : int\n"
        "val inner : int\nval kept : int\n",
        "lib/a/lib_a.ml": "let tested = 1\nlet called = 2\n"
        "let inner = 3\nlet kept = inner + 1\n",
        "bin/main.ml": "let () = print_int Lib_a.called\n",
        # the first rule wants a caller outside the module for `inner`
        "test/test_a.ml": "let () = assert (Lib_a.tested + Lib_a.inner = 4)\n",
        ALLOWLIST: "Lib_a.kept  public API, called by no code here\n",
    }
    with tempfile.TemporaryDirectory() as root:
        for path, text in files.items():
            os.makedirs(os.path.dirname(os.path.join(root, path)), exist_ok=True)
            with open(os.path.join(root, path), "w") as h:
                h.write(text)
        no_caller, test_only, stale, _ = check(root)
    got = [q for _, q in no_caller + test_only] + stale
    if got != ["Lib_a.tested"]:
        print(f"self-test: flagged {got}, expected exactly ['Lib_a.tested']")
        return 1
    print("self-test: flagged exactly the export only tests call")
    return 0


def main(argv):
    if argv == ["--self-test"]:
        return self_test()
    if argv:
        sys.exit(__doc__)
    return report(ROOT)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
