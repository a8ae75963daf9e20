"""Span recorder for the traced run, and the per-layer metrics it yields.

``Recorder.install`` wraps each public function named in ``TARGETS`` at
every ``sparking.*`` module attribute that binds it (callers use
``from .systems import ...``), plus the ``Matroid`` methods on the class.
A wrapper records one span (id, parent id, name, start, end) per call and
the counts its hook reads off the arguments and result.  A span's self
time is its duration minus the durations of its direct children.
``uninstall`` restores every binding, so checks never record spans.

A target that no longer exists, or whose hook no longer understands the
result, is reported as not exercised instead of failing the run.
"""

import json
import math
import sys
import time
from collections import Counter, defaultdict

MAX_SPANS = 200_000   # spans kept for the spans file; every call is counted


def _steps(counts, args, result):
    trace = result[1]
    counts["bijections.sweep_steps"] += len(trace.deletions) + len(trace.fixations)


def _box(counts, args, result):
    counts["enumeration.enumerate_parking_functions.candidates"] += math.prod(
        len(a) for a in args[0].sets)
    counts["enumeration.enumerate_parking_functions.yield"] += len(result)


def _choose(counts, args, result):
    system = args[0]
    counts["enumeration.enumerate_parking_sets.candidates"] += math.comb(
        len(system.covered), system.k)
    counts["enumeration.enumerate_parking_sets.yield"] += len(result)


def _trees(counts, args, result):
    graph = args[0]
    edges = sum(1 for _, u, v in graph.edges if u != v)
    counts["graphs.spanning_trees.candidates"] += math.comb(edges, graph.n_vertices - 1)
    counts["graphs.spanning_trees.yield"] += len(result)


def _members(counts, args, result):
    counts["enumeration.scan.members"] += result.members


# (module, attribute, span name, hook)
TARGETS = [
    ("systems", "is_parking_function", "systems.is_parking_function", None),
    ("systems", "is_parking_set", "systems.is_parking_set", None),
    ("systems", "exactly_one_sets", "systems.exactly_one_sets", None),
    ("systems", "parking_function_permutation", "systems.certificate", None),
    ("systems", "parking_set_permutation", "systems.certificate", None),
    ("bijections", "sigma", "bijections.sigma", _steps),
    ("bijections", "rho", "bijections.rho", _steps),
    ("enumeration", "enumerate_parking_functions", "enumeration.enumerate_parking_functions", _box),
    ("enumeration", "enumerate_parking_sets", "enumeration.enumerate_parking_sets", _choose),
    ("enumeration", "verify_bijection", "enumeration.verify_bijection", None),
    ("enumeration", "exhaustive_roundtrip_scan", "enumeration.exhaustive_roundtrip_scan", _members),
    ("matroids", "Matroid.__init__", "matroids.Matroid.init", None),
    ("matroids", "Matroid.rank", "matroids.Matroid.rank", None),
    ("matroids", "Matroid.bases_bracket", "matroids.bases_bracket", None),
    ("matroids", "parking_sets_vs_bases_circuit_side", "matroids.identity", None),
    ("matroids", "parking_sets_vs_bases_cocircuit_side", "matroids.identity", None),
    ("matroids", "theorem_bijection", "matroids.theorem_bijection", None),
    ("graphs", "spanning_trees", "graphs.spanning_trees", _trees),
    ("graphs", "spanning_tree_bijection", "graphs.spanning_tree_bijection", None),
    ("graphs", "is_g_parking_function", "graphs.is_g_parking_function", None),
    ("graphs", "deletion_contraction_count", "graphs.deletion_contraction_count", None),
    ("formats", "parse_set_system", "formats.parse", None),
    ("formats", "parse_set_system_json", "formats.parse", None),
    ("formats", "load_set_system", "formats.parse", None),
    ("formats", "parse_matroid", "formats.parse", None),
    ("formats", "parse_multigraph", "formats.parse", None),
    ("formats", "parse_faces", "formats.parse", None),
    ("formats", "render_pairing_table", "formats.render_pairing_table", None),
    ("cli", "main", "cli.main", None),
]

# per-layer metric -> (unit, the end-to-end metric and workload it should move)
LAYER_METRICS = {
    "systems.is_parking_function.calls": ("count", "cli-queries latency_p90_ms, object-verify items_per_s"),
    "systems.is_parking_function.self_s": ("s", "cli-queries latency_p90_ms, object-verify items_per_s"),
    "systems.is_parking_set.calls": ("count", "cli-queries latency_p90_ms, object-verify items_per_s"),
    "systems.is_parking_set.self_s": ("s", "cli-queries latency_p90_ms, object-verify items_per_s"),
    "systems.exactly_one_sets.calls": ("count", "graph-matroid and object-verify items_per_s"),
    "systems.exactly_one_sets.self_s": ("s", "graph-matroid and object-verify items_per_s"),
    "systems.certificate.calls": ("count", "cli-queries latency_p90_ms, object-verify items_per_s"),
    "systems.certificate.self_s": ("s", "cli-queries latency_p90_ms, object-verify items_per_s"),
    "bijections.sigma.calls": ("count", "object-verify, then graph-matroid items_per_s"),
    "bijections.sigma.self_s": ("s", "object-verify, then graph-matroid items_per_s"),
    "bijections.rho.calls": ("count", "object-verify, then graph-matroid items_per_s"),
    "bijections.rho.self_s": ("s", "object-verify, then graph-matroid items_per_s"),
    "bijections.sweep_steps": ("count", "object-verify, then graph-matroid items_per_s"),
    "bijections.step_us": ("us", "object-verify, then graph-matroid items_per_s"),
    "enumeration.enumerate_parking_functions.self_s": ("s", "graph-matroid and object-verify items_per_s"),
    "enumeration.enumerate_parking_functions.candidates": ("count", "graph-matroid and object-verify items_per_s"),
    "enumeration.enumerate_parking_functions.yield_ratio": ("ratio", "graph-matroid and object-verify items_per_s"),
    "enumeration.enumerate_parking_sets.self_s": ("s", "graph-matroid and object-verify items_per_s"),
    "enumeration.enumerate_parking_sets.candidates": ("count", "graph-matroid and object-verify items_per_s"),
    "enumeration.enumerate_parking_sets.yield_ratio": ("ratio", "graph-matroid and object-verify items_per_s"),
    "enumeration.verify_bijection.self_s": ("s", "object-verify items_per_s"),
    "enumeration.exhaustive_roundtrip_scan.self_s": ("s", "mask-scan items_per_s"),
    "enumeration.scan.us_per_member": ("us", "mask-scan items_per_s"),
    "matroids.Matroid.init.calls": ("count", "graph-matroid items_per_s and latency_p90_ms"),
    "matroids.Matroid.init.self_s": ("s", "graph-matroid items_per_s and latency_p90_ms"),
    "matroids.Matroid.rank.calls": ("count", "graph-matroid items_per_s and latency_p90_ms"),
    "matroids.Matroid.rank.self_s": ("s", "graph-matroid items_per_s and latency_p90_ms"),
    "matroids.bases_bracket.self_s": ("s", "graph-matroid items_per_s and latency_p90_ms"),
    "matroids.identity.self_s": ("s", "graph-matroid items_per_s and latency_p90_ms"),
    "matroids.theorem_bijection.self_s": ("s", "graph-matroid items_per_s and latency_p90_ms"),
    "graphs.spanning_trees.self_s": ("s", "graph-matroid latency_p90_ms and items_per_s"),
    "graphs.spanning_trees.candidates": ("count", "graph-matroid latency_p90_ms and items_per_s"),
    "graphs.spanning_trees.yield_ratio": ("ratio", "graph-matroid latency_p90_ms and items_per_s"),
    "graphs.spanning_tree_bijection.self_s": ("s", "graph-matroid latency_p90_ms and items_per_s"),
    "graphs.is_g_parking_function.calls": ("count", "graph-matroid latency_p90_ms and items_per_s"),
    "graphs.is_g_parking_function.self_s": ("s", "graph-matroid latency_p90_ms and items_per_s"),
    "graphs.deletion_contraction_count.self_s": ("s", "graph-matroid latency_p90_ms and items_per_s"),
    "formats.parse.self_s": ("s", "cli-queries latency_p50_ms"),
    "formats.render_pairing_table.self_s": ("s", "cli-queries latency_p50_ms"),
    "cli.import_ms": ("ms", "cli-queries latency_p50_ms"),
    "cli.process_ms": ("ms", "cli-queries latency_p50_ms"),
    "cli.main.self_s": ("s", "cli-queries latency_p50_ms"),
    "trace.overhead_frac": ("ratio", "none: cost of the traced run itself"),
}


class Recorder:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []
        self.dropped = 0
        self.stack = []          # open spans: [id, start, child time]
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = Counter()
        self.missing = set()     # targets absent from the library
        self.broken = set()      # hooks that could not read a result
        self._patches = []
        self._next_id = 0

    # -- spans -------------------------------------------------------------

    def _open(self):
        self._next_id += 1
        frame = [self._next_id, time.perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def _close(self, name, frame):
        end = time.perf_counter()
        self.stack.pop()
        span_id, start, child = frame
        duration = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += duration
        self.calls[name] += 1
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, parent[0] if parent else 0, name, start, end))
        else:
            self.dropped += 1

    def span(self, name, fn, *args):
        """Run ``fn(*args)`` inside a span of the benchmark's own."""
        frame = self._open()
        try:
            return fn(*args)
        finally:
            self._close(name, frame)

    def _wrap(self, name, fn, hook):
        def wrapper(*args, **kwargs):
            frame = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, frame)
            if hook is not None and name not in self.broken:
                try:
                    hook(self.counts, args, result)
                except (AttributeError, TypeError, IndexError, KeyError):
                    self.broken.add(name)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing the wrappers ---------------------------------------------

    def install(self):
        prefix = "sparking."
        modules = [m for key, m in list(sys.modules.items())
                   if key == "sparking" or key.startswith(prefix)]
        for module_name, attribute, name, hook in TARGETS:
            owner = sys.modules.get(prefix + module_name)
            class_name, _, function_name = attribute.rpartition(".")
            holder = getattr(owner, class_name, None) if class_name else owner
            original = vars(holder).get(function_name) if holder is not None else None
            if not callable(original):
                self.missing.add(name)
                continue
            wrapper = self._wrap(name, original, hook)
            if class_name:
                self._patch(holder, function_name, original, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, holder, key, original, wrapper):
        setattr(holder, key, wrapper)
        self._patches.append((holder, key, original))

    def uninstall(self):
        while self._patches:
            holder, key, original = self._patches.pop()
            setattr(holder, key, original)

    # -- results -----------------------------------------------------------

    def layer_metrics(self, extra):
        """Every metric of ``LAYER_METRICS`` (0 when not exercised), and
        the names that were not exercised.  ``extra`` holds metrics the
        runner measured itself (``cli.*_ms``, ``trace.overhead_frac``)."""
        calls, self_s, counts = self.calls, self.self_s, self.counts
        steps = counts["bijections.sweep_steps"]
        derived = {
            "bijections.sweep_steps": steps,
            "bijections.step_us": _ratio(self_s["bijections.sigma"] + self_s["bijections.rho"],
                                         steps) * 1e6,
            "enumeration.scan.us_per_member": _ratio(
                self.total_s["enumeration.exhaustive_roundtrip_scan"],
                counts["enumeration.scan.members"]) * 1e6,
        }
        for name in ("enumeration.enumerate_parking_functions",
                     "enumeration.enumerate_parking_sets", "graphs.spanning_trees"):
            derived[name + ".candidates"] = counts[name + ".candidates"]
            derived[name + ".yield_ratio"] = _ratio(counts[name + ".yield"],
                                                    counts[name + ".candidates"])
        values, idle = {}, []
        for metric in LAYER_METRICS:
            span, _, stat = metric.rpartition(".")
            if metric in extra:
                value = extra[metric]
            elif metric in derived:
                value = derived[metric]
            elif stat == "calls":
                value = calls[span]
            else:
                value = self_s[span]
            values[metric] = value
            source = metric if metric in extra else span
            if not value or source in self.missing or source in self.broken:
                idle.append(metric)
        return values, idle

    def write(self, path, meta):
        """Spans as JSON lines after one header line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            out.write(json.dumps(dict(meta, spans=len(self.spans),
                                      dropped=self.dropped)) + "\n")
            for span_id, parent, name, start, end in self.spans:
                out.write(json.dumps([span_id, parent, name, start, end]) + "\n")


def _ratio(a, b):
    return a / b if b else 0.0
