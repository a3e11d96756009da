#!/usr/bin/env python3
"""Narrow `pub` to `pub(crate)` in the library crates, then give `pub` back
to whatever a privacy error names, until everything compiles: what is left
`pub` has a caller outside its crate, and `cargo check --workspace` lists what
only `#[cfg(test)]` reaches as `dead_code`. Item-level `pub` (fn / struct /
enum / trait / const / static / type / use) and named struct fields, in the
non-test region of each file (up to its first top-level `#[cfg(test)]`). Not
run by cargo or any test; `tests/public_surface.rs` is the standing check and
`.claude/skills/verify/SKILL.md` has the procedure.

    git commit / stash first: both steps rewrite crates/*/src in place
    python3 tools/narrow/vis.py narrow    # pub -> pub(crate)
    python3 tools/narrow/vis.py iterate   # check, restore, repeat (about 2 min, ~40 rounds)
    git diff --stat                       # empty at a fixpoint
    cargo check --workspace               # dead_code = reached by tests only

`VIS_PROD=1` checks production callers only (libs, bins, examples, the
benchmark's `src/`): the difference to a plain run is the surface that is
public for a test.
"""
import json, os, re, subprocess, sys, glob

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.realpath(__file__))))
PROD = os.environ.get("VIS_PROD") == "1"  # production callers only: no test targets
TARGETS = ["--lib", "--bins", "--examples"] if PROD else ["--all-targets"]
BTARGETS = [] if PROD else ["--all-targets"]
# The library crates: every directory under crates/ with a src/lib.rs.
CRATES = sorted(os.path.basename(os.path.dirname(os.path.dirname(p)))
                for p in glob.glob(f"{REPO}/crates/*/src/lib.rs"))
ITEM = re.compile(
    r"^(\s*)pub ((?:const |unsafe |async )*(?:fn|struct|enum|trait|static|type|use)\b|const [A-Z_0-9]+\b)"
)
NARROWED = re.compile(
    r"^(\s*)pub\(crate\) ((?:const |unsafe |async )*(?:fn|struct|enum|trait|static|type|use)\b|const [A-Z_0-9]+\b)"
)
FIELD = re.compile(r"^(\s+)pub (\w+): ")
NARROWED_FIELD = re.compile(r"^(\s+)pub\(crate\) (\w+): ")


def files():
    for c in CRATES:
        yield from sorted(glob.glob(f"{REPO}/crates/{c}/src/**/*.rs", recursive=True))


def test_start(lines):
    for i, l in enumerate(lines):
        if l.startswith("#[cfg(test)]"):
            return i
    return len(lines)


# Public for a reason the compiler cannot see: the doctest on `Sha256` is an
# outside caller, and the `paper::` constants wait for the scorecard item.
KEEP = {
    "crates/atproto/src/crypto.rs": re.compile(r"pub (struct Sha256|fn (new|update|finalize)\b)"),
    "crates/workload/src/config.rs": re.compile(r"    pub const [A-Z_0-9]+: (u64|f64) ="),
    # clippy's len_without_is_empty: `len` is public (the benchmark calls it)
    "crates/workload/src/population.rs": re.compile(r"pub fn is_empty\b"),
}


def narrow():
    n = 0
    for f in files():
        lines = open(f).read().split("\n")
        end = test_start(lines)
        keep = KEEP.get(f[len(REPO) + 1:])
        for i in range(end):
            m = ITEM.match(lines[i]) or FIELD.match(lines[i])
            if m and keep and keep.search(lines[i]):
                continue
            if m:
                lines[i] = lines[i].replace("pub ", "pub(crate) ", 1)
                n += 1
        open(f, "w").write("\n".join(lines))
    print("narrowed", n)


def check():
    msgs = []
    for cmd in (
        ["cargo", "check", "--offline", "--workspace", "--message-format=json", "--quiet"] + TARGETS,
        ["cargo", "check", "--offline", "--manifest-path", "benchmark/Cargo.toml",
         "--message-format=json", "--quiet"] + BTARGETS,
    ):
        p = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True)
        for line in p.stdout.splitlines():
            try:
                j = json.loads(line)
            except ValueError:
                continue
            if j.get("reason") == "compiler-message":
                msgs.append(j["message"])
    return msgs


def all_spans(m):
    yield from m.get("spans", [])
    for c in m.get("children", []):
        yield from all_spans(c)


def abspath(p):
    if os.path.isabs(p):
        return os.path.realpath(p)
    for base in (REPO, REPO + "/benchmark"):
        q = os.path.realpath(os.path.join(base, p))
        if os.path.exists(q):
            return q
    return p


def restore(path, line):
    lines = open(path).read().split("\n")
    # a name inside a multi-line `pub(crate) use x::{ ... };` group: the group's first line
    for up in range(line, max(line - 12, -1), -1):
        if up != line and ";" in lines[up]:
            break
        if re.match(r"\s*pub\(crate\) use .*\{$", lines[up]):
            line = up
            break
    if NARROWED.match(lines[line]) or NARROWED_FIELD.match(lines[line]):
        lines[line] = lines[line].replace("pub(crate) ", "pub ", 1)
        open(path, "w").write("\n".join(lines))
        return True
    return False


def crate_of(path):
    m = re.search(r"/crates/(\w+)/src/", path)
    return m.group(1) if m else None


def find_def(crate, name):
    hits = []
    pat = re.compile(
        r"^\s*pub\(crate\) (?:(?:const |unsafe |async )*(?:fn|struct|enum|trait|static|type|const) "
        + re.escape(name) + r"\b|use [\w:]*\b" + re.escape(name) + r";)"
    )
    for f in sorted(glob.glob(f"{REPO}/crates/{crate}/src/**/*.rs", recursive=True)):
        lines = open(f).read().split("\n")
        for i in range(test_start(lines)):
            if pat.match(lines[i]):
                hits.append((f, i))
    return hits


def find_field(struct, field):
    hits = []
    for f in files():
        lines = open(f).read().split("\n")
        inside = False
        for i in range(test_start(lines)):
            if re.match(r"\s*pub(\(crate\))? struct " + re.escape(struct) + r"\b", lines[i]):
                inside = True
            elif inside and re.match(r"\s*\}", lines[i]):
                inside = False
            elif inside and re.match(r"\s+pub\(crate\) (?:" + field + r"): ", lines[i]):
                hits.append((f, i))
    return hits


PRIV = {"E0603", "E0624", "E0364", "E0365", "E0446", "E0616", "E0451",
        "private_interfaces", "private_bounds"}


def iterate():
    rnd = 0
    while True:
        rnd += 1
        msgs = check()
        errs = [m for m in msgs if m["level"] == "error" or (m.get("code") or {}).get("code") in PRIV]
        restored = set()
        other = []
        for m in errs:
            code = (m.get("code") or {}).get("code")
            text = m["message"]
            if code not in PRIV and "private" not in text:
                other.append(m)
                continue
            done = False
            for s in all_spans(m):
                p = abspath(s["file_name"])
                if crate_of(p) in CRATES and restore(p, s["line_start"] - 1):
                    restored.add((p, s["line_start"]))
                    done = True
                    print(f"  restore {p[len(REPO)+1:]}:{s['line_start']} <- {code}: {text[:90]}")
            fm = re.search(r"fields? (.+?) of (?:struct|union) `([\w:]+)` (?:is|are) private", text)
            if not done and fm:
                names = re.findall(r"`(\w+)`", fm.group(1))
                if "other" in fm.group(1):
                    names = [r"\w+"]
                for name in names:
                    for (f, i) in find_field(fm.group(2).split("::")[-1], name):
                        if restore(f, i):
                            restored.add((f, i + 1))
                            done = True
            if not done and code in ("E0364", "E0365"):
                names = re.findall(r"`([\w:]+)`", text)
                crate = None
                for s in m.get("spans", []):
                    crate = crate or crate_of(abspath(s["file_name"]))
                for name in names:
                    name = name.split("::")[-1]
                    cands = find_def(crate, name) if crate else []
                    if not cands:
                        for c in CRATES:
                            cands += find_def(c, name)
                    for (f, i) in cands:
                        print("  fallback", code, name, f, i + 1)
                        if restore(f, i):
                            restored.add((f, i + 1))
                            done = True
                    if done:
                        break
            if not done:
                other.append(m)
                print("  unhandled:", code, text, [(s["file_name"], s["line_start"]) for s in m.get("spans", [])][:2])
        print(f"round {rnd}: {len(errs)} privacy/error messages, {len(restored)} restored, {len(other)} unhandled")
        if not restored:
            for m in other[:40]:
                print("UNHANDLED:", m.get("rendered") or m["message"])
            break


if __name__ == "__main__":
    {"narrow": narrow, "iterate": iterate}[sys.argv[1]]()
