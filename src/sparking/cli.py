"""Command-line front end.

Subcommands: enumerate, map, verify, matroid, graph, demo.  Exit codes:
0 everything requested passed, 1 a verification failed, 2 malformed
input, 3 a theorem precondition failed, 141 stdout's reader closed the
pipe early.  ``--json`` mirrors every report; randomness is seeded by
``--seed`` (default: the SPARKING_SEED environment variable, then 0).
"""

import argparse
import os
import sys
import warnings
from math import prod

from .enumeration import _box_budget, random_set_system, table_sets, tree_pairs, verify_bijection
from .bijections import rho, sigma
from .formats import (
    FormatError,
    _ints,
    format_function,
    format_set,
    load_set_system,
    parse_faces,
    parse_matroid,
    parse_multigraph,
    render_pairing_table,
)
from .graphs import face_boundary_bijection, graphic_matroid, spanning_tree_bijection
from .matroids import PreconditionError, _checked_side, uniform_matroid
from .systems import SetSystem, VerificationError


def _read(path):
    with open(path) as handle:
        return handle.read()


def _resolve_seed(args):
    if args.seed is not None:
        return args.seed
    seed = os.environ.get("SPARKING_SEED", "0")
    try:
        return _int(seed)
    except argparse.ArgumentTypeError as exc:
        raise FormatError(f"SPARKING_SEED: {exc}") from None


def _int(text):
    """An integer option value, by the readers' one integer rule."""
    try:
        return _ints([text], None)[0]
    except FormatError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _positive_int(text):
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _emit_json(payload):
    import json
    print(json.dumps(payload, sort_keys=True))


def _cmd_enumerate(args):
    system = load_set_system(_read(args.system))
    # the sets come off the subfamily table, which refuses k beyond its
    # cap, so they are taken before the functions walk the sweep tree
    sets = None if args.which == "functions" else sorted(
        sorted(system.universe.elements_of(d)) for d in table_sets(system))
    families = {}
    if args.which != "sets":
        _box_budget(prod(map(len, system.sets)))  # the walk may list the whole box
        families["functions"] = [list(f) for f, _ in tree_pairs(system)]
    if sets is not None:
        families["sets"] = sets
    if args.json:
        _emit_json(families)
        return 0
    render = {"functions": format_function, "sets": format_set}
    for key, members in families.items():
        print(f"{key} ({len(members)}):")
        for member in members:
            print(render[key](member))
    return 0


def _cmd_map(args):
    system = load_set_system(_read(args.system))
    if args.rho is not None:
        result, trace = rho(system, args.rho)
        rendered = format_function(result)
        jsonable = list(result)
    else:
        result, trace = sigma(system, args.sigma)
        rendered = format_set(result)
        jsonable = sorted(result)
    if args.json:
        payload = {"output": jsonable}
        if args.trace:
            payload["trace"] = [
                {"kind": kind, "step": step, "set": index, "element": element}
                for kind, step, index, element in trace.events()]
        _emit_json(payload)
        return 0
    if args.trace:
        for line in trace.lines():
            print(line)
    print(rendered)
    return 0


def _cmd_verify(args):
    if args.random:
        if args.system is not None:
            raise FormatError("verify takes a system file or --random N, not both")
        import random
        rng = random.Random(_resolve_seed(args))
        reports = []
        for i in range(args.random):
            system = random_set_system(rng, max_k=args.max_k)
            reports.append(verify_bijection(system))
        all_ok = all(r.ok for r in reports)
        if args.json:
            _emit_json({"systems": len(reports), "ok": all_ok,
                        "failures": [f for r in reports for f in r.failures]})
        else:
            for i, r in enumerate(reports, start=1):
                print(f"system {i}: {r.summary_line()}")
            print(f"random verification: {len(reports)} systems, "
                  + ("all OK" if all_ok else "FAILURES"))
        return 0 if all_ok else 1
    if args.system is None:
        raise FormatError("verify needs a system file or --random N")
    system = load_set_system(_read(args.system))
    report = verify_bijection(system)
    if args.json:
        _emit_json(report.to_jsonable())
    else:
        print(report.summary_line())
        if report.pairs:
            print(render_pairing_table(report.pairs, system.k), end="")
        for failure in report.failures:
            print(f"failure: {failure}")
    return 0 if report.ok else 1


def _load_matroid(source):
    if source.startswith("uniform:"):
        parts = source.split(":")
        if len(parts) != 3:
            raise FormatError("expected uniform:n:r")
        return uniform_matroid(*_ints(parts[1:], None, "uniform:n:r field"))
    if source.startswith("graphic:"):
        return graphic_matroid(parse_multigraph(_read(source.split(":", 1)[1])))
    return parse_matroid(_read(source))


def _cmd_matroid(args):
    matroid = _load_matroid(args.matroid)
    parts = load_set_system(_read(args.parts))
    weights = {e: parts.weight(e) for e in parts.universe.order}
    side = _checked_side(matroid, parts.sets, args.side,
                         None if all(e == w for e, w in weights.items()) else weights)
    report, pairs, cover = side.identity(), side.theorem(), side.cover()
    if args.json:
        _emit_json({"identity": report.to_jsonable(),
                    "pairs": [[list(f), sorted(b)] for f, b in pairs],
                    "full_cover": cover})
        return 0 if report.equal else 1
    print(f"side: {report.side}")
    print(f"form: {report.form}")
    print(f"surviving bases: {len(report.lhs)}  parking expression: {len(report.rhs)}  "
          + ("identity OK" if report.equal else "identity FAIL"))
    print(f"full cover: {'yes' if cover else 'no'}")
    names = [f"E{i}" for i in range(1, parts.k + 1)]
    if args.side == "circuit":
        print(render_pairing_table(
            [(f, matroid.ground - b) for f, b in pairs], parts.k,
            set_names=names, ground=matroid.ground), end="")
    else:
        print(render_pairing_table(pairs, parts.k, set_names=names), end="")
    return 0 if report.equal else 1


def _cmd_graph(args):
    graph = parse_multigraph(_read(args.graph))
    if args.faces:
        pairs = face_boundary_bijection(graph, parse_faces(_read(args.faces)))
        label = "face boundaries"
    else:
        pairs = spanning_tree_bijection(graph)
        label = "star sets"
    if args.json:
        _emit_json({"side": label, "spanning_trees": len(pairs),
                    "pairs": [[list(f), sorted(t)] for f, t in pairs]})
        return 0
    print(f"spanning trees: {len(pairs)}")  # the pairs hit each tree once
    print(f"parking functions ({label}): {len(pairs)}")
    for f, tree in pairs:
        print(f"{format_function(f)} -> tree {format_set(tree)}")
    print("bijection onto spanning trees: OK")
    return 0


def u42_table():
    """The five-row pairing table of the rank-2 uniform matroid on four
    elements with parts {1,2,3} and {1,2,4}, identity weights."""
    system = SetSystem([{1, 2, 3}, {1, 2, 4}])
    pairs = [(f, system.universe.elements_of(d)) for f, d in tree_pairs(system)]
    return render_pairing_table(pairs, 2, set_names=["E1", "E2"],
                                ground=frozenset({1, 2, 3, 4}))


def _cmd_demo(args):
    if args.name != "u42":
        raise FormatError(f"unknown demo {args.name!r}; available: u42")
    from importlib import resources
    computed = u42_table()
    golden = resources.files("sparking").joinpath("data/u42_table.txt").read_text()
    print(computed, end="")
    if computed != golden:
        print("demo output deviates from the shipped golden table", file=sys.stderr)
        return 1
    return 0


def _enumerate_arguments(p):
    p.add_argument("system")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--functions", dest="which", action="store_const",
                       const="functions", default="both")
    group.add_argument("--sets", dest="which", action="store_const", const="sets")
    group.add_argument("--both", dest="which", action="store_const", const="both")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_enumerate)


def _map_arguments(p):
    p.add_argument("system")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--rho", nargs="*", type=_int, metavar="ELEM",
                       help="parking-set elements; outputs the parking function")
    group.add_argument("--sigma", nargs="*", type=_int, metavar="VALUE",
                       help="parking-function values; outputs the parking set")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_map)


def _verify_arguments(p):
    p.add_argument("system", nargs="?")
    p.add_argument("--random", type=_positive_int, metavar="N",
                   help="verify N seeded random systems instead")
    p.add_argument("--seed", type=_int, default=None)
    p.add_argument("--max-k", type=_positive_int, default=4)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)


def _matroid_arguments(p):
    p.add_argument("matroid", help="matroid file, uniform:n:r, or graphic:<graph-file>")
    p.add_argument("--parts", required=True, help="set-system file with the parts")
    p.add_argument("--side", required=True, choices=["circuit", "cocircuit"])
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_matroid)


def _graph_arguments(p):
    p.add_argument("graph")
    p.add_argument("--faces", help="face-boundary file for the circuit side")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_graph)


def _demo_arguments(p):
    p.add_argument("name")
    p.set_defaults(func=_cmd_demo)


# subcommand -> (help, the function that adds its arguments)
_COMMANDS = {
    "enumerate": ("list parking functions and/or sets", _enumerate_arguments),
    "map": ("apply one mapping to one input", _map_arguments),
    "verify": ("full bijection report for a system", _verify_arguments),
    "matroid": ("basis identity and bijection for a matroid", _matroid_arguments),
    "graph": ("spanning-tree bijection for a multigraph", _graph_arguments),
    "demo": ("reproduce a shipped golden table", _demo_arguments),
}


def build_parser(argv=None):
    """The command-line parser.  Every subcommand is registered with its
    help; with ``argv`` given, only the one it names (its first word not
    starting with ``-``) gets its arguments, which is all that parsing
    ``argv`` reads.  Without ``argv`` all of them do."""
    parser = argparse.ArgumentParser(
        prog="sparking",
        description="Parking functions and parking sets over finite set systems")
    sub = parser.add_subparsers(dest="command", required=True)
    chosen = None if argv is None else next(
        (word for word in argv if not word.startswith("-")), "")
    for name, (text, add_arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        if chosen is None or chosen == name:
            add_arguments(p)
    return parser


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    shown = set()

    def show(message, *_):
        # one ``warning: <message>`` line per distinct message, without the
        # library's file and source line
        if str(message) not in shown:
            shown.add(str(message))
            print(f"warning: {message}", file=sys.stderr)

    with warnings.catch_warnings():
        # whatever the interpreter's filters (``-W error`` too), a warning
        # neither raises nor changes the exit code
        warnings.simplefilter("always")
        warnings.showwarning = show
        try:
            code = args.func(args)
            sys.stdout.flush()  # so a reader that left shows up here, not at shutdown
            return code
        except BrokenPipeError:
            # stdout's reader left early (``| head``): end quietly, as SIGPIPE would
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 141
        except PreconditionError as exc:
            print(f"precondition failed: {exc}", file=sys.stderr)
            return 3
        except VerificationError as exc:
            print(f"verification failed: {exc}", file=sys.stderr)
            return 1
        except (FormatError, OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except MemoryError:
            print("error: out of memory; the input is too large to process", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
