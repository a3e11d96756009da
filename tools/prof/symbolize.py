#!/usr/bin/env python3
"""Turn sigprof.so sample files into per-symbol shares, using `nm` only.

    ./symbolize.py samples.txt [more.txt ...] [--top 40] [--under SUBSTRING]
                   [--callers SUBSTRING [--depth N]]

Prints two tables over all samples of all files: self share (innermost
frame) and inclusive share (symbol anywhere on the stack, counted once per
sample). `--under S` keeps only samples with a frame whose symbol contains S
(a substring match: pass a qualified name to pick one of several methods).
`--callers S` prints one table instead: for the samples whose innermost
frame contains S, who called it — the first N frames (default 1) above it
that are not in libc, `alloc::`, `core::`, `hashbrown::` or the `__rust*`
allocator shims, tallied as one caller chain per sample.
Addresses are mapped through the `M` lines (a copy of /proc/<pid>/maps) to
offsets from each object's lowest mapping, which for a PIE or shared object
is the symbol value `nm` prints.
"""
import bisect, collections, os, subprocess, sys

# Frames `--callers` looks through: the standard library's plumbing between
# a hot libc routine and the Rust code that asked for it.
PLUMBING = ("alloc::", "core::", "hashbrown::", "__rust", "__rdl_")

def is_plumbing(name, obj):
    return obj.rsplit("/", 1)[-1].startswith("libc.") or name.lstrip("<").startswith(PLUMBING)

def symbols(path):
    table = []
    for flags in (["-C", "-n", "--defined-only"], ["-C", "-n", "-D", "--defined-only"]):
        try:
            out = subprocess.run(["nm", *flags, path], capture_output=True, text=True).stdout
        except OSError:
            continue
        for line in out.splitlines():
            parts = line.split(" ", 2)
            if len(parts) == 3 and parts[1] in "tTwWiV":
                table.append((int(parts[0], 16), parts[2]))
    table.sort()
    return [a for a, _ in table], [n for _, n in table]

def main():
    args, top, under, callers, depth = [], 40, None, None, 1
    it = iter(sys.argv[1:])
    for a in it:
        if a == "--top": top = int(next(it))
        elif a == "--under": under = next(it)
        elif a == "--callers": callers = next(it)
        elif a == "--depth": depth = int(next(it))
        else: args.append(a)
    self_n, incl_n, total, cache = collections.Counter(), collections.Counter(), 0, {}
    chains = collections.Counter()
    for path in args:
        maps, extra = [], []  # (start, end, base, object); (address, name) of resolved ifuncs
        for line in open(path):
            if line.startswith("# "):
                maps, extra = [], []
            elif line.startswith("M "):
                f = line.split()
                start, end = (int(x, 16) for x in f[1].split("-"))
                base = min([m[2] for m in maps if m[3] == f[6]] + [start])
                maps.append((start, end, base, f[6]))
            elif line.startswith("X "):
                _, addr, name = line.split()
                extra.append((int(addr, 16), name))
            elif line.startswith("S"):
                names, objs = [], []
                for addr in (int(x, 16) for x in line.split()[1:]):
                    name, where = "?", ""
                    for start, end, base, obj in maps:
                        if start <= addr < end:
                            if obj not in cache:
                                cache[obj] = symbols(obj)
                            addrs, syms = cache[obj]
                            i = bisect.bisect_right(addrs, addr - base) - 1
                            name = syms[i] if i >= 0 else obj.rsplit("/", 1)[-1]
                            floor = addrs[i] + base if i >= 0 else start
                            for at, ifunc in extra:
                                if floor < at <= addr:
                                    floor, name = at, ifunc
                            where = obj
                            break
                    names.append(name)
                    objs.append(where)
                if not names or (under and not any(under in n for n in names)):
                    continue
                if callers is not None:
                    if callers not in names[0]:
                        continue
                    above = [n for n, o in zip(names[1:], objs[1:]) if not is_plumbing(n, o)]
                    chains[" <- ".join(above[:depth]) or "(none)"] += 1
                total += 1
                self_n[names[0]] += 1
                incl_n.update(set(names))
    tables = (("self", self_n), ("inclusive", incl_n))
    if callers is not None:
        tables = ((f"callers of {callers}, depth {depth}", chains),)
    for title, counts in tables:
        print(f"== {title} ({total} samples)")
        for name, n in counts.most_common(top):
            print(f"{100 * n / max(total, 1):6.2f}%  {n:6d}  {name[:150]}")

if __name__ == "__main__":
    try:
        main()
    except BrokenPipeError:
        # Piped into `head` and cut short: not an error. Point stdout at
        # /dev/null so the interpreter's final flush cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
