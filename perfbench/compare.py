"""Compare two run records written by ``record.py``.

    python3 perfbench/compare.py BASE.json CHANGE.json

Prints one markdown row per workload and end-to-end metric: both medians,
the ratio change/base, the paired wins and a verdict, with the bounds of
``BENCHMARK.json``:

- ``REGRESSION``: the change's median is worse than the base's by more
  than the bound;
- ``unresolved``: the base's own spread (quartile distance over median)
  exceeds the bound, and not every change run beats every base run;
- ``better``: the change wins at least 9 of every 10 seed-paired runs
  (ties count for neither side) and the medians differ by more than the
  base's quartile distance;
- ``same``: none of the above.

Per-layer medians and ratios follow for every workload whose records
hold traced runs, for pasting next to the end-to-end rows.
"""

import argparse
import json
import sys
from pathlib import Path

from record import load_spec


def _better(direction, a, b):
    """True when ``a`` is better than ``b``."""
    return a > b if direction == "higher" else a < b


def verdict(base_runs, change_runs, base_summary, change_summary, metric):
    name, direction, bound = metric["name"], metric["better"], metric["bound"]
    base, change = base_summary[name], change_summary[name]
    b, c = base["median"], change["median"]
    worse_by = (b - c) / b if direction == "higher" else (c - b) / b
    paired = {run["seed"]: run["metrics"][name]["value"] for run in base_runs}
    pairs = [(paired[run["seed"]], run["metrics"][name]["value"])
             for run in change_runs if run["seed"] in paired]
    wins = sum(_better(direction, cv, bv) for bv, cv in pairs)
    base_values = [run["metrics"][name]["value"] for run in base_runs]
    change_values = [run["metrics"][name]["value"] for run in change_runs]
    dominates = all(_better(direction, cv, bv) for cv in change_values for bv in base_values)
    if worse_by > bound:
        label = "REGRESSION"
    elif base["spread"] > bound and not dominates:
        label = "unresolved"
    elif pairs and wins >= 0.9 * len(pairs) and abs(c - b) > base["q3"] - base["q1"]:
        label = "better"
    else:
        label = "same"
    return b, c, wins, len(pairs), label


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = load_spec()
    base = json.loads(args.base.read_text())
    change = json.loads(args.change.read_text())
    print(f"base {base['revision']}  change {change['revision']}  "
          f"python {change['python']}  nproc {change['nproc']}  seconds {change['seconds']}")
    print()
    print("| workload | metric | base | change | change/base | paired wins | bound | verdict |")
    print("|---|---|---|---|---|---|---|---|")
    regressions = 0
    common = [w for w in base["workloads"] if w in change["workloads"]]
    for workload in common:
        b, c = base["workloads"][workload], change["workloads"][workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in b["summary"] or name not in c["summary"]:
                continue
            bm, cm, wins, n, label = verdict(b["runs"], c["runs"], b["summary"],
                                             c["summary"], metric)
            regressions += label == "REGRESSION"
            unit = b["summary"][name]["unit"]
            print(f"| {workload} | {name} | {bm:.6g} {unit} | {cm:.6g} {unit} | "
                  f"{cm / bm:.3f} | {wins}/{n} | {metric['bound']} | {label} |")
    for workload in common:
        b = base["workloads"][workload]["per_layer"]
        c = change["workloads"][workload]["per_layer"]
        rows = [(name, b[name], c[name]) for name in b
                if name in c and (b[name]["median"] or c[name]["median"])]
        if not rows:
            continue
        print()
        print(f"per-layer, {workload} (traced medians)")
        print()
        print("| metric | base | change | change/base |")
        print("|---|---|---|---|")
        for name, bs, cs in rows:
            ratio = f"{cs['median'] / bs['median']:.3f}" if bs["median"] else "new"
            print(f"| {name} | {bs['median']:.6g} {bs['unit']} | "
                  f"{cs['median']:.6g} {cs['unit']} | {ratio} |")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
