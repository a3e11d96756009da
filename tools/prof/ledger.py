#!/usr/bin/env python3
"""A layer ledger: `sigprof.so` or `liveheap.so` samples charged to layers.

    ./ledger.py samples.txt [more.txt ...]                    # one ledger
    ./ledger.py before.txt [...] --vs after.txt [...]          # two, side by side

Each sample is charged to its innermost layer: the first frame, walking out
from the innermost one, that one of the patterns in `LAYERS` matches (a
substring of the demangled name; where one frame matches several layers, the
first in the table wins). A sample with no such frame is `other`. So the rows
sum to 100 %, and the script exits with status 1 when `other` holds more than
`OTHER_MAX` of any ledger: the table then needs a row.

A `liveheap` file (its `#` line counts `live_bytes`) is a heap ledger: the
allocator's own rows are skipped, since every stack starts in it, so each byte
is charged to the layer that holds it, and a row's MB is its share of the
peak live heap. A `sigprof` file is a CPU ledger; its allocator row is the
time spent in `malloc`, `free`, `realloc` and the growth routines that call
them. Files of one ledger must be of one kind; several runs appended to one
file, or several files, are one ledger.
"""
import collections, os, sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from symbolize import samples  # noqa: E402

# (layer, frame patterns), innermost-first charging; see the module docs.
LAYERS = [
    ("allocator", ("malloc", "free@", "realloc", "calloc", "__default_morecore", "cfree",
                   "__rust_alloc", "__rust_dealloc", "__rust_realloc", "__rdl_", "finish_grow",
                   "do_reserve_and_handle", "grow_one", "reserve_rehash")),
    ("SHA-256", ("bsky_atproto::crypto::shani::", "bsky_atproto::crypto::Sha256",
                 "bsky_atproto::crypto::sha256")),
    ("signature", ("bsky_atproto::crypto::",)),
    ("record encode", ("Record::encode_into", "PostRecord::encode_into", "Record::to_cbor",
                       "bsky_atproto::cbor::raw::", "bsky_atproto::cbor::write_head",
                       "bsky_atproto::cbor::encode")),
    ("record decode", ("Record::from_cbor", "Record::is_record_block", "bsky_atproto::record::decode",
                       "decode_from", "bsky_atproto::cbor::", "Datetime::parse_iso8601")),
    ("MST", ("bsky_atproto::mst::",)),
    ("block store", ("bsky_atproto::blockstore::",)),
    ("CAR export", ("Repository::export_car", "bsky_atproto::repo::CarWriter")),
    ("CAR parse", ("bsky_atproto::repo::CarReader", "scan_car", "parse_car", "apply_delta")),
    ("repository", ("bsky_atproto::repo::",)),
    ("atproto, other", ("bsky_atproto::",)),
    ("PDS", ("bsky_pds::",)),
    ("relay crawl", ("Relay::crawl",)),
    ("relay subscribe", ("Relay::subscribe",)),
    ("relay, other", ("bsky_relay::",)),
    ("mirror sync", ("bsky_study::collect::mirror::",)),
    ("collector, other", ("bsky_study::collect::",)),
    ("analyzer merge", ("Analyzer>::merge", "Analyzers::merge", "Analyzers::absorb")),
    ("§4 activity", ("bsky_study::activity::",)),
    ("§5 identity", ("bsky_study::identity::",)),
    ("§6 moderation", ("bsky_study::moderation::",)),
    ("§7 recommendation", ("bsky_study::recommendation::",)),
    ("Table 1, §9 volume", ("bsky_study::table1::",)),
    ("§10 observatory", ("bsky_study::observatory::",)),
    ("report", ("bsky_study::report::",)),
    ("study engine", ("bsky_study::",)),
    ("world draw", ("bsky_workload::",)),
    ("benchmark harness", ("bsky_benchmark::", "bsky_bench::")),
]
OTHER = "other"
OTHER_MAX = 0.10


def layer_of(names, heap):
    for name in names:
        for layer, patterns in LAYERS:
            if heap and layer == "allocator":
                continue
            if any(p in name for p in patterns):
                return layer
    return OTHER


def is_heap(path):
    with open(path) as f:
        for line in f:
            if line.startswith("# "):
                return "live_bytes" in line
    sys.exit(f"{path}: no '#' line; not a sigprof or liveheap file")


def ledger(paths):
    """(kind, {layer: samples}, total samples, MB per sample or None)."""
    kinds = {is_heap(p) for p in paths}
    if len(kinds) != 1:
        sys.exit(f"{' '.join(paths)}: CPU and heap samples in one ledger")
    heap = kinds.pop()
    counts = collections.Counter(layer_of(names, heap) for names, _ in samples(paths))
    # liveheap writes one sample line per 16 KiB a stack holds.
    return heap, counts, sum(counts.values()), (16 / 1024 if heap else None)


def main():
    args = sys.argv[1:]
    groups = [[]]
    for a in args:
        if a == "--vs":
            groups.append([])
        else:
            groups[-1].append(a)
    if not all(groups) or len(groups) > 2:
        sys.exit(__doc__.split("\n\n")[1])
    ledgers = [ledger(g) for g in groups]
    if len({heap for heap, *_ in ledgers}) != 1:
        sys.exit("a CPU ledger and a heap ledger cannot be compared")
    heap = ledgers[0][0]
    rows = [layer for layer, _ in LAYERS if not (heap and layer == "allocator")] + [OTHER]
    unit = "MB" if heap else "samples"
    head = "".join(f" {'share':>7} {unit:>8}" for _ in ledgers) + ("    change" if len(ledgers) == 2 else "")
    print(f"{'layer':<20}{head}")
    for row in rows + ["total"]:
        line, shares, held = f"{row:<20}", [], []
        for _, counts, total, mb in ledgers:
            n = total if row == "total" else counts[row]
            share = 100 * n / max(total, 1)
            shares.append(share)
            held.append(n * (mb or 0))
            line += f" {share:6.1f}% {n * mb:8.1f}" if mb else f" {share:6.1f}% {n:8d}"
        # A heap row changes by the bytes it holds; a CPU row by its share,
        # since two profiles' sample counts follow the box's speed.
        if len(ledgers) == 2:
            line += f" {held[1] - held[0]:+7.1f} MB" if heap else f" {shares[1] - shares[0]:+7.1f} pt"
        print(line)
    over = [total and counts[OTHER] / total > OTHER_MAX for _, counts, total, _ in ledgers]
    if any(over):
        sys.exit(f"'{OTHER}' holds more than {OTHER_MAX:.0%}: the layer table needs a row")


if __name__ == "__main__":
    main()
