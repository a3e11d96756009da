#!/usr/bin/env python3
"""Turn sigprof.so sample files into per-symbol shares, using `nm` only.

    ./symbolize.py samples.txt [more.txt ...] [--top 40] [--under SUBSTRING]

Prints two tables over all samples of all files: self share (innermost
frame) and inclusive share (symbol anywhere on the stack, counted once per
sample). `--under S` keeps only samples with a frame whose symbol contains S.
Addresses are mapped through the `M` lines (a copy of /proc/<pid>/maps) to
offsets from each object's lowest mapping, which for a PIE or shared object
is the symbol value `nm` prints.
"""
import bisect, collections, subprocess, sys

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
    args, top, under = [], 40, None
    it = iter(sys.argv[1:])
    for a in it:
        if a == "--top": top = int(next(it))
        elif a == "--under": under = next(it)
        else: args.append(a)
    self_n, incl_n, total, cache = collections.Counter(), collections.Counter(), 0, {}
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
                names = []
                for addr in (int(x, 16) for x in line.split()[1:]):
                    name = "?"
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
                            break
                    names.append(name)
                if not names or (under and not any(under in n for n in names)):
                    continue
                total += 1
                self_n[names[0]] += 1
                incl_n.update(set(names))
    for title, counts in (("self", self_n), ("inclusive", incl_n)):
        print(f"== {title} ({total} samples)")
        for name, n in counts.most_common(top):
            print(f"{100 * n / max(total, 1):6.2f}%  {n:6d}  {name[:150]}")

if __name__ == "__main__":
    main()
