#!/usr/bin/env python3
"""Scale ladder: one serial `repro` study per rung, with wall time and peak RSS.

    cargo build --release
    python3 tools/ladder.py 4000 2000 1000          # rungs are --scale values
    python3 tools/ladder.py --seed 7 --repro path/to/repro 4000 2000

Each rung runs `repro --scale RUNG --jobs 1 --seed SEED` as a fresh child
process and reads that child's own `ru_maxrss` from `wait4`. Per rung it
prints the DID count (the report's `FQDN handles` figure: one handle per
DID document), wall seconds, peak RSS (MB = MiB, `ru_maxrss / 1024`, as
the CI memory gate reads it) and RSS per DID (KiB); between rungs, the
wall and RSS ratios; and, over all rungs, the fitted exponents: the
least-squares slope of log(wall) and of log(peak RSS) against log(DIDs).
An exponent of 1 is linear in the population. The reports themselves are
discarded; compare them with `cmp` in a separate run when that matters.
"""

import argparse
import math
import os
import re
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_rung(repro, scale, seed):
    """Run one study; return (DIDs, wall seconds, peak RSS in KiB)."""
    command = [repro, "--scale", str(scale), "--jobs", "1", "--seed", str(seed)]
    start = time.monotonic()
    child = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    report = child.stdout.read()
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.monotonic() - start
    child.stdout.close()
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        sys.exit(f"{' '.join(command)} exited with {code}")
    match = re.search(rb"FQDN handles: (\d+)", report)
    if match is None:
        sys.exit(f"{' '.join(command)}: no 'FQDN handles' line in the report")
    # Linux reports ru_maxrss in KiB.
    return int(match.group(1)), wall, usage.ru_maxrss


def slope(xs, ys):
    """Least-squares slope of log(ys) against log(xs)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx = sum(lx) / len(lx)
    my = sum(ly) / len(ly)
    den = sum((x - mx) ** 2 for x in lx)
    return sum((x - mx) * (y - my) for x, y in zip(lx, ly)) / den


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rungs", nargs="+", type=int, help="--scale values, e.g. 4000 2000 1000")
    parser.add_argument("--seed", type=int, default=42, help="study seed (repro's default: 42)")
    parser.add_argument(
        "--repro",
        default=os.path.join(ROOT, "target", "release", "repro"),
        help="the repro binary (default: target/release/repro)",
    )
    args = parser.parse_args()
    if not os.access(args.repro, os.X_OK):
        sys.exit(f"{args.repro} is not an executable; run `cargo build --release` first")

    rows = []
    print(f"{'rung':>8} {'DIDs':>7} {'wall s':>8} {'peak MB':>8} {'KiB/DID':>7} {'wall x':>7} {'RSS x':>6}")
    for scale in args.rungs:
        dids, wall, rss = run_rung(args.repro, scale, args.seed)
        ratios = ""
        if rows:
            _, prev_wall, prev_rss = rows[-1]
            ratios = f" {wall / prev_wall:7.2f} {rss / prev_rss:6.2f}"
        rows.append((dids, wall, rss))
        print(
            f"{'1:' + str(scale):>8} {dids:7d} {wall:8.1f} {rss / 1024:8.0f} {rss / dids:7.0f}{ratios}",
            flush=True,
        )
    if len({dids for dids, _, _ in rows}) > 1:
        dids = [row[0] for row in rows]
        print(f"time exponent {slope(dids, [row[1] for row in rows]):.2f}, "
              f"memory exponent {slope(dids, [row[2] for row in rows]):.2f}")


if __name__ == "__main__":
    main()
