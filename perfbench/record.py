"""Run the benchmark over several seeds and write a run record.

    python3 perfbench/record.py --out RECORD.json [--workload NAME ...]
        [--seeds 1-10] [--src DIR] [--base-src DIR --base-out BASE.json]

Every run is one ``run.py`` subprocess, and only one runs at a time.  The
record holds the git revision, Python version, ``nproc``, the seeds and,
per workload, every run's result and the median and quartiles of each
metric, plus two traced runs on the first seed for the per-layer metrics;
their counts must agree exactly.

With ``--base-src`` the same benchmark code also measures a second
library source (the parent commit's ``src``) into ``--base-out``; for
every seed both sides run back to back and the side that runs first
alternates, so ``compare.py`` can pair the runs by seed.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def run_once(src, workload, seed, seconds, trace):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
               "--src", str(src)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    return dict(json.loads(done.stdout.splitlines()[-1]), seed=seed)


def summarize(runs):
    """Median, quartiles and relative spread of every metric."""
    out = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (values[0],) * 3)
        out[name] = {"unit": runs[0]["metrics"][name]["unit"], "n": len(values),
                     "median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else 0.0}
    return out


def _git(src, *args):
    try:
        done = subprocess.run(["git", *args], cwd=src, capture_output=True, text=True,
                              timeout=30)
    except OSError:
        return ""
    return done.stdout.strip() if done.returncode == 0 else ""


def new_record(src, seeds, seconds):
    """Header of a record: what was measured, where and how."""
    return {"revision": _git(src, "rev-parse", "HEAD") or "unknown",
            "src_modified": bool(_git(src, "status", "--porcelain", "--", ".")),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "seconds": seconds, "seeds": seeds, "workloads": {}}


def counts_repeat(traced):
    """True when every count metric agrees across the traced runs."""
    counts = [{name: m["value"] for name, m in run["metrics"].items() if m["unit"] == "count"}
              for run in traced]
    return all(c == counts[0] for c in counts)


def main(argv=None):
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload in BENCHMARK.json")
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--base-src", type=Path)
    parser.add_argument("--base-out", type=Path)
    args = parser.parse_args(argv)
    if (args.base_src is None) != (args.base_out is None):
        parser.error("--base-src and --base-out go together")

    sides = [(args.src.resolve(), args.out)]
    if args.base_src:
        sides.append((args.base_src.resolve(), args.base_out))
    seconds = spec["run_seconds"]
    records = [new_record(src, args.seeds, seconds) for src, _ in sides]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = [[] for _ in sides]
        for turn, seed in enumerate(args.seeds):
            order = range(len(sides)) if turn % 2 == 0 else reversed(range(len(sides)))
            for side in order:
                runs[side].append(run_once(sides[side][0], workload, seed, seconds, 0))
        for side, (src, _) in enumerate(sides):
            traced = [run_once(src, workload, args.seeds[0], seconds, 1) for _ in range(2)]
            records[side]["workloads"][workload] = {
                "runs": runs[side], "summary": summarize(runs[side]),
                "traced_runs": traced, "per_layer": summarize(traced),
                "counts_repeat": counts_repeat(traced)}
            print(f"{workload} ({src})")
            for name, s in records[side]["workloads"][workload]["summary"].items():
                bound = bounds.get(name)
                flag = "" if bound is None else (
                    "steady" if s["spread"] < bound / 3 else
                    "within bound" if s["spread"] <= bound else "TOO WIDE")
                print(f"  {name:<16} median {s['median']:<12.6g} {s['unit']:<5} "
                      f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                      f"spread {s['spread']:.4f} (bound {bound}) {flag}")
            failed = sum(run["failed"] for run in runs[side])
            print(f"  failed items: {failed} of {sum(run['attempted'] for run in runs[side])}; "
                  f"traced counts repeat: {records[side]['workloads'][workload]['counts_repeat']}")
        for record, (_, out) in zip(records, sides):
            out.write_text(json.dumps(record, indent=1) + "\n")   # after every workload
    return 0


if __name__ == "__main__":
    sys.exit(main())
