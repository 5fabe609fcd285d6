#!/usr/bin/env python3
"""Compares two sets of benchmark run records.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the record-<workload>-seed<n>-trace<k>.json files that
perfbench/run.py writes (under <build dir>/perfbench-out). Records are paired
by (workload, seed, trace). The comparison is refused (exit 2) when any pair's
host fingerprint differs -- CPU model, nproc, compiler, build type or scale --
or when the two sides ran different seeds: numbers from different hosts,
builds or inputs are never compared. Otherwise it prints, per workload and
metric, each side's median and quartiles over its runs and the ratio of the
medians (new / base).
"""
import glob
import json
import os
import statistics
import sys

FINGERPRINT_KEYS = ("cpu", "nproc", "compiler", "build_type", "scale")


def load(directory):
    records = {}
    for path in glob.glob(os.path.join(directory, "record-*.json")):
        with open(path) as f:
            rec = json.load(f)
        fp = rec["fingerprint"]
        records[(fp["workload"], fp["seed"], rec["trace"])] = rec
    return records


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[1]), load(argv[2])
    if not base or set(base) != set(new):
        print("refused: the two sides ran different (workload, seed, trace) "
              "sets", file=sys.stderr)
        return 2
    for key in sorted(base):
        a, b = base[key]["fingerprint"], new[key]["fingerprint"]
        diff = [k for k in FINGERPRINT_KEYS if a.get(k) != b.get(k)]
        if diff:
            print("refused: %s seed %s: fingerprints differ in %s (%s vs %s)"
                  % (key[0], key[1], ", ".join(diff),
                     [a.get(k) for k in diff], [b.get(k) for k in diff]),
                  file=sys.stderr)
            return 2
    groups = sorted({(w, t) for (w, _, t) in base})
    for workload, trace in groups:
        keys = [k for k in sorted(base) if k[0] == workload and k[2] == trace]
        print("%s (trace %d, %d runs)" % (workload, trace, len(keys)))
        failed = [sum(side[k]["failed"] for k in keys) for side in (base, new)]
        print("  failed operations: base %d, new %d" % tuple(failed))
        for name in sorted(base[keys[0]]["metrics"]):
            va = [base[k]["metrics"][name]["value"] for k in keys]
            vb = [new[k]["metrics"][name]["value"] for k in keys]
            ma, mb = statistics.median(va), statistics.median(vb)
            unit = base[keys[0]]["metrics"][name]["unit"]
            ratio = "%.3f" % (mb / ma) if ma else "n/a"
            print("  %-34s base %.4g [%.4g, %.4g]  new %.4g [%.4g, %.4g] %s"
                  "  new/base %s" % ((name, ma) + quartiles(va) + (mb,) +
                                     quartiles(vb) + (unit, ratio)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
