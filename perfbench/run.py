"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src`` directory.  With ``--trace 0`` the workload's corpus is run in
whole passes until the timed total reaches ``--seconds``, and the
end-to-end metrics are reported.  Times are scaled to a reference host:
the shared machine's speed swings by tens of percent from one minute to
the next, so a fixed pure-Python calibration loop is timed about once a
second between items and set-ups, and all times are multiplied by
``CALIBRATION_S`` over the run's median loop time.  The loop runs no library code, so a
change to the library moves the scaled times exactly as it moves the raw
ones.

- ``setup_s``: median of the set-ups (fresh import of the library plus
  the corpus build), repeated between passes so the samples spread over
  the run;
- ``items_per_s``: items of one pass over the median pass time;
- ``latency_p50_ms`` / ``latency_p90_ms``: percentiles over the corpus
  items of each item's median latency across the passes;
- ``peak_rss_mb``: ``ru_maxrss`` of this process, or of its children for
  a workload that starts subprocesses.

With ``--trace 1`` one untraced pass and one traced pass are run and the
per-layer metrics are reported, in unscaled times.  Every output is
checked outside the timed region.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

sys.dont_write_bytecode = False   # cache bytecode like an installed package would

import tracer  # noqa: E402
from workloads import WORKLOADS, child_env  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_FIRST = 8   # set-ups before the first pass; one more follows each pass
IMPORT_REPS = 7
CALIBRATION_S = 0.03   # the calibration loop's time on the reference host


def _calibration_loop():
    total, table = 0, {}
    for i in range(200_000):
        total += i * i % 7
        table[i & 1023] = total
    return total


class Meter:
    """Samples the host's speed with the calibration loop."""

    def __init__(self):
        self.samples = []
        self.due = 0.0

    def tick(self):
        """Time the loop if a second has passed since the last sample."""
        start = time.perf_counter()
        if start >= self.due:
            _calibration_loop()
            end = time.perf_counter()
            self.samples.append(end - start)
            self.due = end + 1.0

    def factor(self):
        """Multiplier that scales this run's times to the reference host."""
        return CALIBRATION_S / statistics.median(self.samples)


class Verdicts:
    """Checks every output, re-checking an item only when its output
    differs from the last one checked for it."""

    def __init__(self, workload):
        self.workload = workload
        self.last = {}
        self.attempted = 0
        self.failed = 0

    def add(self, index, item, output):
        units = self.workload.units
        self.attempted += units
        try:
            key = self.workload.key(item, output)
            cached = self.last.get(index)
            if cached is None or cached[0] != key:
                cached = (key, bool(self.workload.check(item, key)))
                self.last[index] = cached
            ok = cached[1]
        except Exception:  # a malformed output is a failed item, not a crash
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            self.failed += units


_FAILED = object()


def run_pass(fn, corpus, recorder=None, meter=None):
    """One pass over the corpus: per-item latencies and outputs.  An item
    whose call raises yields ``_FAILED``.  ``meter`` ticks between items."""
    latencies, outputs = [], []
    gc.collect()   # every pass starts from the same collector state
    for item in corpus:
        start = time.perf_counter()
        try:
            output = (recorder.span("bench.item", fn, item) if recorder
                      else fn(item))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            output = _FAILED
        latencies.append(time.perf_counter() - start)
        outputs.append(output)
        if meter:
            meter.tick()
    return latencies, outputs


def tally(verdicts, corpus, outputs):
    for index, (item, output) in enumerate(zip(corpus, outputs)):
        if output is _FAILED:
            verdicts.attempted += verdicts.workload.units
            verdicts.failed += verdicts.workload.units
        else:
            verdicts.add(index, item, output)


def set_up(workload, seed, workdir, meter, times):
    """One full set-up, its scaled duration appended to ``times``."""
    gc.collect()
    start = time.perf_counter()
    corpus = workload.setup(seed, workdir)
    times.append(time.perf_counter() - start)
    meter.tick()
    return corpus


def untraced(workload, corpus, seconds, verdicts, meter, set_up_again, setup_times):
    per_item = [[] for _ in corpus]
    pass_times = []
    elapsed = 0.0
    while elapsed < seconds:
        latencies, outputs = run_pass(workload.run, corpus, meter=meter)
        tally(verdicts, corpus, outputs)
        for samples, latency in zip(per_item, latencies):
            samples.append(latency)
        pass_times.append(sum(latencies))
        elapsed += pass_times[-1]
        corpus = set_up_again()
    scale = meter.factor()
    item_latency = [statistics.median(samples) for samples in per_item]
    spawns = hasattr(workload, "run_in_process")
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if spawns else resource.RUSAGE_SELF)
    metrics = {
        "setup_s": (statistics.median(setup_times) * scale, "s"),
        "items_per_s": (workload.units * len(corpus)
                        / (statistics.median(pass_times) * scale), "1/s"),
        "latency_p50_ms": (statistics.median(item_latency) * scale * 1e3, "ms"),
        "latency_p90_ms": (_p90(item_latency) * scale * 1e3, "ms"),
        "peak_rss_mb": (usage.ru_maxrss / 1024, "MB"),
    }
    beyond = len(corpus) - 1 - int(0.9 * (len(corpus) - 1))
    notes = [f"{len(pass_times)} passes of {len(corpus)} items, {len(setup_times)} set-ups; "
             f"latency percentiles over {len(corpus)} per-item medians "
             f"({beyond} beyond p90)",
             f"times scaled to the reference host by {scale:.4f}: calibration loop "
             f"median {statistics.median(meter.samples) * 1e3:.2f} ms over "
             f"{len(meter.samples)} samples, reference {CALIBRATION_S * 1e3:.0f} ms"]
    return metrics, notes


def traced(workload, corpus, verdicts, seed):
    spawns = hasattr(workload, "run_in_process")
    in_process = workload.run_in_process if spawns else workload.run
    extra, notes = {}, []
    if spawns:
        subprocess_lat, outputs = run_pass(workload.run, corpus)
        tally(verdicts, corpus, outputs)
        extra["cli.import_ms"] = _import_ms(workload.src)
    plain_lat, outputs = run_pass(in_process, corpus)
    tally(verdicts, corpus, outputs)
    if spawns:
        extra["cli.process_ms"] = (statistics.median(subprocess_lat)
                                   - statistics.median(plain_lat)) * 1e3
    recorder = tracer.Recorder()
    recorder.install()
    try:
        traced_lat, outputs = run_pass(in_process, corpus, recorder)
    finally:
        recorder.uninstall()
    tally(verdicts, corpus, outputs)
    extra["trace.overhead_frac"] = sum(traced_lat) / sum(plain_lat) - 1
    values, idle = recorder.layer_metrics(extra)
    spans = OUT / f"spans-{workload.name}-seed{seed}.jsonl"
    recorder.write(spans, {"workload": workload.name, "seed": seed})
    notes.append(f"spans written to {spans.relative_to(ROOT)} "
                 f"({len(recorder.spans)} kept, {recorder.dropped} beyond the cap)")
    notes.append("not exercised: " + (", ".join(idle) if idle else "none"))
    metrics = {name: (values[name], unit) for name, (unit, _) in tracer.LAYER_METRICS.items()}
    return metrics, notes


def _import_ms(src):
    """``import sparking.cli`` in a fresh interpreter, less a bare start."""
    env = child_env(src)
    samples = {"pass": [], "import sparking.cli": []}
    for _ in range(IMPORT_REPS):
        for code, times in samples.items():
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
            times.append(time.perf_counter() - start)
    return (statistics.median(samples["import sparking.cli"])
            - statistics.median(samples["pass"])) * 1e3


def _p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="library source to measure (default: this checkout's src)")
    args = parser.parse_args(argv)

    src = args.src.resolve()
    if not (src / "sparking" / "__init__.py").is_file():
        print(f"error: no library source at {src}; run from a sparking checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workload = WORKLOADS[args.workload](src)
    workdir = OUT / f"{workload.name}-seed{args.seed}"
    meter = Meter()
    setup_times = []
    for _ in range(SETUP_FIRST):
        corpus = set_up(workload, args.seed, workdir, meter, setup_times)
    if not Path(workload.sp.__file__).resolve().is_relative_to(src):
        print(f"error: imported sparking from {workload.sp.__file__}, not {src}",
              file=sys.stderr)
        return 2

    verdicts = Verdicts(workload)
    if args.trace:
        metrics, notes = traced(workload, corpus, verdicts, args.seed)
    else:
        metrics, notes = untraced(
            workload, corpus, args.seconds, verdicts, meter,
            lambda: set_up(workload, args.seed, workdir, meter, setup_times), setup_times)
    failed_frac = verdicts.failed / verdicts.attempted
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    for line in notes:
        print(f"  {line}")
    for name, (value, unit) in metrics.items():
        moves = tracer.LAYER_METRICS.get(name, ("", ""))[1]
        print(f"  {name:<52} {value:>14.6g} {unit:<6} {moves}".rstrip())
    print(f"  {'failed_frac':<52} {failed_frac:>14.6g} ratio "
          f"({verdicts.failed} of {verdicts.attempted} items)")
    print(json.dumps({
        "correct": verdicts.failed == 0,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
