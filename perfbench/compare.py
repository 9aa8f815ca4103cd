#!/usr/bin/env python3
"""Summarize and compare perfbench result records.

run.py writes one record per run to .bench_work/results/. This tool
groups records by (workload, trace mode) and prints, per metric, the
median, the quartiles, and the spread (Q3 - Q1) / median, marking a
spread at or above a third of the metric's BENCHMARK.json bound. It
flags a group whose runs have different fingerprints in anything but
the seed:

    python3 perfbench/compare.py .bench_work/results/*.json

Given two sets separated by `--`, e.g. a parent and a child commit, it
also prints each metric's median change from the first set to the
second, marks a change worse than the bound, and flags a workload whose
two sets ran on different hosts or settings (CPU model, nproc, build
type, SIMD, threads, trace length, run length):

    python3 perfbench/compare.py base/*.json -- head/*.json
"""

import json
import statistics
import sys
from pathlib import Path

# Fingerprint fields two compared sets must share. The commit and the
# source digest may differ between sets: that is what is compared.
HOST_KEYS = ("cpu_model", "nproc", "build_type", "simd", "engine_threads",
             "producer_threads", "instructions_per_trace", "seconds")
# Within one set, the code must match too.
SET_KEYS = HOST_KEYS + ("git_commit", "source_digest")


def load(paths):
    groups = {}
    for path in paths:
        record = json.loads(Path(path).read_text())
        key = (record["workload"], record["trace"])
        groups.setdefault(key, []).append(record)
    return groups


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def bounds():
    bench = json.loads(Path("BENCHMARK.json").read_text())
    return {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}


def fingerprints(records, keys):
    return {json.dumps({k: r["fingerprint"].get(k) for k in keys},
                       sort_keys=True)
            for r in records}


def summarize(groups, spec):
    medians = {}
    for (workload, trace), records in sorted(groups.items()):
        bad = [r for r in records if not r["correct"]]
        print(f"== {workload} trace={trace}: {len(records)} runs, "
              f"{len(bad)} incorrect")
        if len(fingerprints(records, SET_KEYS)) > 1:
            print("   FLAG: runs have different fingerprints")
        for name in sorted(records[0]["metrics"]):
            values = [r["metrics"][name]["value"] for r in records]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            bound = spec.get(name, {}).get("bound")
            mark = ""
            if bound is not None and spread >= bound / 3:
                mark = "  <-- spread >= bound/3"
            print(f"   {name:34s} median {med:12.6g}  q1 {q1:12.6g}  "
                  f"q3 {q3:12.6g}  spread {spread:7.4f}"
                  + (f"  bound {bound}" if bound is not None else "")
                  + mark)
            medians[(workload, trace, name)] = med
    return medians


def main(argv):
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0 if argv else 2
    spec = bounds()
    if "--" not in argv:
        summarize(load(argv), spec)
        return 0
    cut = argv.index("--")
    base, head = load(argv[:cut]), load(argv[cut + 1:])
    print("# first set")
    m1 = summarize(base, spec)
    print("# second set")
    m2 = summarize(head, spec)
    print("# change, second vs first")
    for group in sorted(set(base) & set(head)):
        if (fingerprints(base[group], HOST_KEYS) !=
                fingerprints(head[group], HOST_KEYS)):
            print(f"   FLAG {group[0]} trace={group[1]}: the sets ran on "
                  "different hosts or settings")
    worse = 0
    for key in sorted(set(m1) & set(m2)):
        workload, _, name = key
        metric = spec.get(name, {})
        if "bound" not in metric or not m1[key]:
            continue
        change = (m2[key] - m1[key]) / abs(m1[key])
        regressed = (change < -metric["bound"]
                     if metric["better"] == "higher"
                     else change > metric["bound"])
        worse += regressed
        print(f"   {workload:13s} {name:16s} {change:+8.4f}  bound "
              f"{metric['bound']}{'  WORSE' if regressed else ''}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
