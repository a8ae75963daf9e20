"""The four benchmark workloads.

Each workload builds a corpus from the seed (the library sees only the
generated inputs), runs one corpus item per ``run`` call and checks each
output with the references in ``checks``.  The structures (set families,
multigraphs, matroid parts) come from a fixed schedule; the seed
relabels their elements and edge ids and draws the weights and the
CLI's map inputs.  Relabelling leaves the enumeration work unchanged, so
every seed does the same amount of it, while the weight orders, and with
them every pairing the sweeps produce, differ.  The inputs are generated
here rather than by the library's own random generators, so a change to
those generators cannot change what is measured.

A workload's ``run`` looks every library function up on the package at
call time, so the traced run sees the calls through its wrappers.
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import warnings
from fractions import Fraction
from itertools import combinations, product

import checks

SHAPE_SEED = 1407  # fixes the corpus shapes; the run's --seed fills them in


def child_env(src):
    """Environment for a ``python`` child that imports the library from
    ``src``.  Bytecode caching is always on, as for an installed package,
    so the measured start-up never depends on PYTHONDONTWRITEBYTECODE."""
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _fresh_import(names):
    """Import ``names`` after dropping every cached ``sparking`` module, so
    each set-up repetition pays the full import."""
    for key in [k for k in sys.modules if k == "sparking" or k.startswith("sparking.")]:
        del sys.modules[key]
    for name in names:
        __import__(name)
    return sys.modules["sparking"]


def _quiet(fn, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fn(*args)


class Workload:
    """Common shape: ``build`` the corpus, ``run`` one item, ``check`` it.

    ``units`` is how many items one ``run`` call completes.  ``key`` turns
    an output into the plain value that ``check`` judges and the verdict
    cache compares; it runs outside the timed region.
    """
    name = ""
    modules = ("sparking",)
    units = 1

    def __init__(self, src):
        self.src = src
        self.sp = None

    def setup(self, seed, workdir):
        self.sp = _fresh_import(self.modules)
        return self.build(random.Random(seed), workdir)

    def key(self, item, output):
        return output


# ---------------------------------------------------------------------------

class MaskScan(Workload):
    """One call of the exhaustive bitmask roundtrip scan; no seed input."""
    name = "mask-scan"
    MAX_K, MAX_UNIVERSE = 3, 5
    SYSTEMS = checks.roundtrip_scan_size(MAX_K, MAX_UNIVERSE)   # 19,978
    # |P| summed over those systems; the reference certificates in
    # checks.py count the same 79,869 parking functions and parking sets
    MEMBERS = 79869
    units = SYSTEMS

    def build(self, rng, workdir):
        return [None]

    def run(self, item):
        return self.sp.exhaustive_roundtrip_scan(
            max_k=self.MAX_K, max_universe=self.MAX_UNIVERSE, canonical=False)

    def key(self, item, report):
        return report.ok, report.systems, report.members, tuple(report.failures)

    def check(self, item, output):
        ok, systems, members, failures = output
        return ok and not failures and systems == self.SYSTEMS and members == self.MEMBERS


# ---------------------------------------------------------------------------

def _random_family(rng, m, sizes):
    return [frozenset(rng.sample(range(1, m + 1), size)) for size in sizes]


def _relabel(rng, sets, m):
    """``sets`` over 1..m with the elements permuted."""
    image = dict(zip(range(1, m + 1), rng.sample(range(1, m + 1), m)))
    return [frozenset(image[e] for e in s) for s in sets]


def _weights(rng, m, kind):
    """Identity, shuffled integer, or Fraction-valued weights on 1..m."""
    ids = list(range(1, m + 1))
    if kind == 0:
        return {e: e for e in ids}
    if kind == 1:
        shuffled = ids[:]
        rng.shuffle(shuffled)
        return dict(zip(ids, shuffled))
    return {e: Fraction(n, 7) for e, n in zip(ids, rng.sample(range(1, 100), m))}


class ObjectVerify(Workload):
    """``verify_bijection`` over 300 systems with k <= 5 and m <= 7."""
    name = "object-verify"
    SYSTEMS, MAX_K, MAX_UNIVERSE = 300, 5, 7

    def build(self, rng, workdir):
        shapes = random.Random(SHAPE_SEED)
        corpus = []
        for i in range(self.SYSTEMS):
            k, m = 1 + i % self.MAX_K, 1 + (i // self.MAX_K) % self.MAX_UNIVERSE
            sizes = [max(1, sum(shapes.random() < 0.6 for _ in range(m))) for _ in range(k)]
            sets = _relabel(rng, _random_family(shapes, m, sizes), m)
            weights = _weights(rng, m, i % 3)
            system = _quiet(self.sp.SetSystem, sets, self.sp.Universe(weights))
            corpus.append((system, sets, weights))
        return corpus

    def run(self, item):
        return self.sp.verify_bijection(item[0])

    def key(self, item, report):
        return report.ok, report.n_functions, report.n_sets, tuple(report.pairs)

    def check(self, item, output):
        _, sets, weights = item
        ok, n_functions, n_sets, pairs = output
        expected = _count_parking_functions(sets)
        return (ok and n_functions == n_sets == len(pairs) == expected
                and len({d for _, d in pairs}) == len(pairs)
                and all(checks.pairing_ok(sets, weights.__getitem__, f, d) for f, d in pairs))


def _count_parking_functions(sets):
    """Reference |P|: the certificate over the value box 0 <= f_i < |A_i|."""
    box = product(*(range(len(a)) for a in sets))
    return sum(1 for f in box if checks.is_parking_function(sets, f))


# ---------------------------------------------------------------------------

def _random_multigraph(rng, n_vertices, n_edges):
    """Connected multigraph on 0..n-1: a random tree plus random extra
    edges, loops and parallels allowed; edge ids 1..n_edges."""
    order = list(range(1, n_vertices))
    rng.shuffle(order)
    attached = [0]
    edges = []
    for vertex in order:
        edges.append((len(edges) + 1, rng.choice(attached), vertex))
        attached.append(vertex)
    while len(edges) < n_edges:
        edges.append((len(edges) + 1, rng.randrange(n_vertices), rng.randrange(n_vertices)))
    return n_vertices, edges


def _relabel_graph(rng, n_vertices, edges):
    """The multigraph with its edge ids permuted."""
    ids = rng.sample(range(1, len(edges) + 1), len(edges))
    return n_vertices, sorted((i, u, v) for i, (_, u, v) in zip(ids, edges))


def _complete(n_vertices):
    pairs = combinations(range(n_vertices), 2)
    return n_vertices, [(i, u, v) for i, (u, v) in enumerate(pairs, start=1)]


def _random_tree(rng, n_vertices, edges):
    """Edge ids of a random spanning tree of a complete graph."""
    ids = {(u, v): e for e, u, v in edges}
    order = list(range(n_vertices))
    rng.shuffle(order)
    return [ids[tuple(sorted((rng.choice(order[:i]), order[i])))]
            for i in range(1, n_vertices)]


def _random_parking_function(rng, length):
    """Random parking function of the complete-graph star family: sorted
    values never exceed their position."""
    values = [rng.randint(0, j) for j in range(length)]
    rng.shuffle(values)
    return values


class GraphMatroid(Workload):
    """Spanning-tree bijections on graphs, basis identities on uniform
    matroids, and the theorem bijection on small graphic matroids."""
    name = "graph-matroid"
    RANDOM_GRAPHS = 40
    UNIFORM_JOBS, UNIFORM_PARTS = 4, 20   # per (n, r, side)
    GRAPHIC = 38

    def build(self, rng, workdir):
        shapes = random.Random(SHAPE_SEED)
        graphs = [_complete(n) for n in (3, 4, 5, 6)]
        for _ in range(self.RANDOM_GRAPHS):
            n = shapes.randint(2, 6)
            graphs.append(_random_multigraph(shapes, n, shapes.randint(n - 1, 9)))
        jobs = [("graph", *_relabel_graph(rng, *g)) for g in graphs]
        for n in range(2, 7):
            for r in range(1, n):
                for side in ("circuit", "cocircuit"):
                    k = n - r if side == "circuit" else r
                    for _ in range(self.UNIFORM_JOBS):
                        parts = [_relabel(rng, [frozenset(e for e in range(1, n + 1)
                                                          if shapes.random() < 0.6)
                                                for _ in range(k)], n)
                                 for _ in range(self.UNIFORM_PARTS)]
                        jobs.append(("uniform", n, r, side, parts))
        graphs = [_complete(n) for n in (4, 5)]
        for _ in range(self.GRAPHIC):
            n = shapes.randint(2, 5)
            graphs.append(_random_multigraph(shapes, n, shapes.randint(n - 1, 7)))
        jobs += [("graphic", *_relabel_graph(rng, *g)) for g in graphs]
        return jobs

    def run(self, job):
        sp = self.sp
        if job[0] == "uniform":
            _, n, r, side, parts = job
            matroid = sp.uniform_matroid(n, r)
            identity = (sp.parking_sets_vs_bases_circuit_side if side == "circuit"
                        else sp.parking_sets_vs_bases_cocircuit_side)
            return [identity(matroid, p) for p in parts]
        _, n, edges = job
        graph = sp.Multigraph(n, edges)
        if job[0] == "graph":
            pairs = sp.spanning_tree_bijection(graph)
            report = sp.g_parking_equals_s_parking(graph)
            return pairs, report, sp.deletion_contraction_count(graph)
        matroid = sp.graphic_matroid(graph)
        parts = sp.star_sets(graph)
        pairs = sp.theorem_bijection(matroid, parts, "cocircuit")
        return pairs, parts, sp.corollary_full_cover(matroid, parts, "cocircuit")

    def key(self, job, output):
        if job[0] == "uniform":
            return tuple((r.equal, r.lhs) for r in output)
        pairs, extra, last = output
        if job[0] == "graphic":
            return tuple(pairs), tuple(extra), last
        return tuple(pairs), (extra.equal, extra.count), last

    def check(self, job, output):
        if job[0] == "uniform":
            _, n, r, side, parts = job
            bases = checks.uniform_bases(n, r)
            return all(equal and lhs == checks.surviving_bases(bases, p, side)
                       for (equal, lhs), p in zip(output, parts))
        _, n, edges = job
        pairs, extra, last = output
        if job[0] == "graphic":
            return (last is True and list(extra) == checks.star_sets(n, edges)
                    and checks.tree_bijection_ok(n, edges, pairs))
        equal, count = extra
        complete = len({frozenset((u, v)) for _, u, v in edges if u != v}) == len(edges) \
            == n * (n - 1) // 2
        return (equal and count == len(pairs) == last
                and (not complete or len(pairs) == n ** (n - 2))
                and checks.tree_bijection_ok(n, edges, pairs))


# ---------------------------------------------------------------------------

def _write(path, text):
    path.write_text(text)
    return str(path)


def _system_text(sets, m):
    return f"{len(sets)} {m}\n" + "".join(" ".join(map(str, sorted(s))) + "\n" for s in sets)


def _graph_text(n_vertices, edges):
    return f"vertices {n_vertices}\n" + "".join(f"{e} {u} {v}\n" for e, u, v in edges)


def _parse_set(line):
    return frozenset(int(t) for t in line.strip().strip("{}").split(",") if t)


def _parse_function(line):
    return tuple(int(t) for t in line.strip().strip("()").split(",") if t.strip())


class CliQueries(Workload):
    """A closed loop of one client: sequential ``python -m sparking`` runs.

    Each item is ``(argv, expected exit code, check kind, check data)``.
    ``run`` starts one subprocess; ``run_in_process`` calls ``cli.main``
    with the output captured, for the traced run.
    """
    name = "cli-queries"
    modules = ("sparking", "sparking.cli")
    STARS = range(6, 15)
    VERIFY, GRAPHS, MATROIDS, DEMOS = 25, 12, 16, 10

    def build(self, rng, workdir):
        workdir.mkdir(parents=True, exist_ok=True)
        shapes = random.Random(SHAPE_SEED)
        queries = []
        for n in self.STARS:
            nv, edges = _complete(n)
            sets = checks.star_sets(nv, edges)
            path = _write(workdir / f"star{n}.txt", _system_text(sets, len(edges)))
            for flags in ([], ["--trace", "--json"]):
                f = _random_parking_function(rng, n - 1)
                queries.append((["map", path, "--sigma", *map(str, f), *flags], 0,
                                "sigma", (sets, tuple(f))))
                tree = _random_tree(rng, n, edges)
                queries.append((["map", path, "--rho", *map(str, tree), *flags], 0,
                                "rho", (sets, frozenset(tree))))
        for i in range(self.VERIFY):
            k, m = 1 + i % 4, 2 + i % 5
            sets = _relabel(rng, _random_family(shapes, m, [shapes.randint(1, m)
                                                             for _ in range(k)]), m)
            path = _write(workdir / f"system{i}.txt", _system_text(sets, m))
            queries.append((["verify", path, "--json"], 0, "verify", sets))
        graphs = [_complete(4), _complete(5)]
        graphs += [_random_multigraph(shapes, n, shapes.randint(n - 1, 7))
                   for n in [shapes.randint(2, 5) for _ in range(self.GRAPHS - 2)]]
        graphs = [_relabel_graph(rng, *g) for g in graphs]
        for i, (nv, edges) in enumerate(graphs):
            path = _write(workdir / f"graph{i}.txt", _graph_text(nv, edges))
            queries.append((["graph", path, "--json"], 0, "graph", (nv, edges)))
        for i in range(self.MATROIDS):
            n = shapes.randint(3, 5)
            r = shapes.randint(1, n - 1)
            side = ("circuit", "cocircuit")[i % 2]
            k, smallest = (n - r, r + 1) if side == "circuit" else (r, n - r + 1)
            parts = _relabel(rng, [frozenset(shapes.sample(range(1, n + 1),
                                                           shapes.randint(smallest, n)))
                                   for _ in range(k)], n)
            path = _write(workdir / f"parts{i}.txt", _system_text(parts, n))
            queries.append((["matroid", f"uniform:{n}:{r}", "--parts", path,
                             "--side", side, "--json"], 0, "matroid", (n, r, side, parts)))
        queries += [(["demo", "u42"], 0, "demo", None)] * self.DEMOS
        path = _write(workdir / "malformed.txt", "two sets\n1 2\n")
        queries.append((["verify", path], 2, "malformed", None))
        rng.shuffle(queries)
        return queries

    def run(self, query):
        done = subprocess.run([sys.executable, "-m", "sparking", *query[0]],
                              env=child_env(self.src),
                              capture_output=True, text=True, timeout=120)
        return done.returncode, done.stdout

    def run_in_process(self, query):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = self.sp.cli.main(query[0])
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()

    def check(self, query, output):
        """Exit code, then the output against the references; a malformed
        output raises, which the caller counts as a failure."""
        _, expected_code, kind, data = query
        code, stdout = output
        if code != expected_code:
            return False
        if kind == "malformed":
            return True
        if kind == "demo":
            golden = self.src / "sparking" / "data" / "u42_table.txt"
            return stdout == golden.read_text()
        payload = json.loads(stdout) if "--json" in query[0] else None
        if kind in ("sigma", "rho"):
            sets, given = data
            if kind == "sigma":
                values = given
                image = (frozenset(payload["output"]) if payload
                         else _parse_set(stdout.splitlines()[-1]))
            else:
                values = (tuple(payload["output"]) if payload
                          else _parse_function(stdout.splitlines()[-1]))
                image = given
            fixed = ({ev["element"] for ev in payload["trace"] if ev["kind"] == "FIX"}
                     if payload else image)
            return checks.pairing_ok(sets, int, values, image) and fixed == image
        if kind == "verify":
            sets = data
            expected = _count_parking_functions(sets)
            pairs = [(tuple(f), frozenset(d)) for f, d in payload["pairs"]]
            return (payload["ok"] is True and len(payload["functions"]) == expected
                    and len(payload["sets"]) == expected == len(pairs)
                    and all(checks.pairing_ok(sets, int, f, d) for f, d in pairs))
        if kind == "graph":
            nv, edges = data
            pairs = [(tuple(f), frozenset(t)) for f, t in payload["pairs"]]
            return (payload["spanning_trees"] == checks.kirchhoff(nv, edges)
                    and checks.tree_bijection_ok(nv, edges, pairs))
        n, r, side, parts = data
        identity = payload["identity"]
        bases = checks.uniform_bases(n, r)
        lhs = checks.surviving_bases(bases, parts, side)
        ground = frozenset(range(1, n + 1))
        pairs = [(tuple(f), frozenset(b)) for f, b in payload["pairs"]]
        images = [ground - b if side == "circuit" else b for _, b in pairs]
        return (identity["equal"] is True
                and {frozenset(b) for b in identity["lhs"]} == lhs
                and {b for _, b in pairs} == lhs and len(pairs) == len(lhs)
                and all(checks.pairing_ok(parts, int, f, d)
                        for (f, _), d in zip(pairs, images))
                and payload["full_cover"] == (lhs == frozenset(bases)))


WORKLOADS = {w.name: w for w in (MaskScan, ObjectVerify, GraphMatroid, CliQueries)}
