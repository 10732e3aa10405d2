#!/usr/bin/env bash
# Inventory of exports no other module calls.
#
#   bench/unused_exports.sh                print the inventory
#   bench/unused_exports.sh --check        diff it against bench/unused_exports.txt
#   bench/unused_exports.sh --tests        print the exports only tests reach
#   bench/unused_exports.sh --check-tests  diff those against bench/test_only_exports.txt
#
# Prints every `val` declared in lib/**/*.mli that nothing references
# outside its own module, as "Module.name" (a val inside a nested module
# signature prints as "Module.Sub.name"), sorted.  With --tests it prints
# instead every such val that files under test reference and nothing
# else outside its own module does.  A reference is, in
# any .ml or .mli file under lib, bin, bench, perfbench, examples or test
# other than the module's own two files:
#   - a qualified use "Q.name", where Q is the module, an enclosing
#     submodule of the val, or any alias of either: a name bound by
#     "module Q = P" or "module Q : module type of P" whose path P runs
#     through the module or through another alias (so "Sh" aliases Shard
#     after "module Sh = Dudetm_shard.Shard.Make (Tm)");
#   - an unqualified use of "name" in a file that opens or includes the
#     module or an alias ("open Q", "include Q", "let open Q in", "Q.(").
# Aliases are matched by name across all files, so a name bound to two
# modules counts for both: the inventory may miss an unused export, but
# it never lists a called one.  Comments are stripped before matching.
set -euo pipefail
cd "$(dirname "$0")/.."
mode=${1:-print}
case "$mode" in
print | --check | --tests | --check-tests) ;;
*)
    echo "usage: $0 [--check | --tests | --check-tests]" >&2
    exit 2
    ;;
esac
inventory() {
    find lib bin bench perfbench examples test -name '*.ml' -o -name '*.mli' |
        LC_ALL=C sort | python3 -c '
import re, sys, os
from collections import defaultdict

files = [l.strip() for l in sys.stdin if l.strip()]
tests_only = sys.argv[1] == "--tests"

def strip_comments(src):
    out, depth, i, n = [], 0, 0, len(src)
    in_str = False
    while i < n:
        c = src[i]
        if in_str:
            if depth == 0:
                out.append(c)
            if c == "\\":
                if depth == 0 and i + 1 < n:
                    out.append(src[i + 1])
                i += 2
                continue
            if c == "\"":
                in_str = False
            i += 1
        elif src.startswith("(*", i):
            depth += 1
            i += 2
        elif depth > 0 and src.startswith("*)", i):
            depth -= 1
            i += 2
        elif c == "\"":
            in_str = True
            if depth == 0:
                out.append(c)
            i += 1
        else:
            if depth == 0:
                out.append(c)
            elif c == "\n":
                out.append(c)
            i += 1
    return "".join(out)

text = {}
for f in files:
    with open(f) as h:
        text[f] = strip_comments(h.read())

def modname(f):
    b = os.path.basename(f).rsplit(".", 1)[0]
    return b[:1].upper() + b[1:]

# Alias edges: Q -> every capitalised component of the path it binds.  A
# path that does not start at a library, a compilation unit or another
# binder names a submodule of the file it sits in ("module Stm : module
# type of Make (Tinystm)" in dude_ptm.mli), so it also points at the
# module of that file.
units = {modname(f) for f in files}
bind = re.compile(r"\bmodule\s+([A-Z]\w*)\s*(?:=|:\s*module\s+type\s+of)\s*([A-Z][\w.]*(?:\s*\([^)]*\))*)")
binds = [(f, m.group(1), m.group(2)) for f in files for m in bind.finditer(text[f])]
binders = {q for _, q, _ in binds}
edges = defaultdict(set)
for f, q, path in binds:
    comps = re.findall(r"[A-Z]\w*", path)
    edges[q].update(comps)
    if not (comps[0].startswith("Dudetm_") or comps[0] in units or comps[0] in binders):
        edges[q].add(modname(f))

def aliases(names):
    names = set(names)
    grown = True
    while grown:
        grown = False
        for q, comps in edges.items():
            if q not in names and comps & names:
                names.add(q)
                grown = True
    return names

# Every val of every lib interface, with its enclosing submodules.
decls = []
for f in files:
    if not (f.startswith("lib/") and f.endswith(".mli")):
        continue
    top = modname(f)
    stack = []  # enclosing plain submodules; None for a functor or module type
    for line in text[f].split("\n"):
        s = line.strip()
        m = re.match(r"module\s+(type\s+)?([A-Z]\w*)\s*(\(.*)?[:=]\s*sig\b", s)
        if m and not re.search(r"\bend\s*$", s):
            plain = m.group(1) is None and m.group(3) is None
            stack.append(m.group(2) if plain else None)
            continue
        if re.match(r"end\b", s) and stack:
            stack.pop()
            continue
        m = re.match(r"val\s+([a-z_]\w*\x27*)", s)
        if m:
            decls.append((f, top, tuple(x for x in stack if x), m.group(1)))

cache = {}
def quals(top, subs):
    key = (top, subs)
    if key not in cache:
        cache[key] = aliases({top} | set(subs))
    return cache[key]

opens = {}
for f in files:
    o = set(re.findall(r"\b(?:open!?|include)\s+([A-Z][\w.]*)", text[f]))
    o |= set(re.findall(r"\b([A-Z]\w*)\.\(", text[f]))
    opens[f] = {c for p in o for c in p.split(".")}

unused = []
for f, top, subs, name in decls:
    own = {f, f[:-1]}
    qs = quals(top, subs)
    qual = re.compile(r"\b(?:" + "|".join(sorted(map(re.escape, qs))) + r")\s*\.\s*" + re.escape(name) + r"\b(?!\x27)")
    word = re.compile(r"(?<![\w.\x27])" + re.escape(name) + r"\b(?!\x27)")
    users = set()
    for g in files:
        if g in own:
            continue
        t = text[g]
        if qual.search(t) or (opens[g] & qs and word.search(t)):
            users.add("test" if g.startswith("test/") else "other")
            if "other" in users:
                break
    if users == ({"test"} if tests_only else set()):
        unused.append(".".join((top,) + subs + (name,)))

for u in sorted(set(unused)):
    print(u)
' "$1"
}
# Diffs the committed file $1 against the inventory of kind $2.
check() {
    diff -u --label "$1" --label source "$1" <(inventory "$2" | LC_ALL=C sort)
}
case "$mode" in
--check) check bench/unused_exports.txt print ;;
--check-tests) check bench/test_only_exports.txt --tests ;;
*) inventory "$mode" | LC_ALL=C sort ;;
esac
