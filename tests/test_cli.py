import contextlib
import fcntl
import io
import json
import os
import resource
import subprocess
import sys
import time
from importlib import resources
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparking
import sparking.bijections
import sparking.enumeration
import sparking.graphs
import sparking.systems
from sparking import (VerificationError, complete_graph, spanning_tree_bijection, star_sets,
                      theorem_bijection, uniform_matroid)
from sparking.cli import build_parser, main

from test_formats import JSON_DOCUMENTS, SET_SYSTEM_TEXTS

U42 = "2 4\n1 2 3\n1 2 4\n"
K3 = "vertices 3\n1 0 1\n2 0 2\n3 1 2\n"
K4 = "vertices 4\n1 0 1\n2 0 2\n3 0 3\n4 1 2\n5 1 3\n6 2 3\n"


def _run_cli(*argv, flags=(), **kwargs):
    """``python -m sparking`` in a child process that imports the same
    source as this one, whatever PYTHONPATH the suite was started with;
    ``flags`` go to the interpreter."""
    env = {**os.environ, "PYTHONPATH": str(Path(sparking.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, *flags, "-m", "sparking", *argv],
                          capture_output=True, text=True, env=env, **kwargs)


@pytest.fixture
def u42_file(tmp_path):
    path = tmp_path / "u42.txt"
    path.write_text(U42)
    return str(path)


@pytest.fixture
def k3_file(tmp_path):
    path = tmp_path / "k3.txt"
    path.write_text(K3)
    return str(path)


def test_demo_matches_shipped_golden(capsys):
    assert main(["demo", "u42"]) == 0
    out = capsys.readouterr().out
    golden = resources.files("sparking").joinpath("data/u42_table.txt").read_text()
    assert out == golden


def test_demo_table_contents(capsys):
    main(["demo", "u42"])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6
    assert lines[3] == "f3  0   2   {3,4}     {1,2}"


def test_map_sigma(u42_file, capsys):
    assert main(["map", u42_file, "--sigma", "0", "0"]) == 0
    assert capsys.readouterr().out == "{1,3}\n"


def test_map_rho(u42_file, capsys):
    assert main(["map", u42_file, "--rho", "2", "3"]) == 0
    assert capsys.readouterr().out == "(0, 1)\n"


def test_map_trace(u42_file, capsys):
    assert main(["map", u42_file, "--sigma", "0", "1", "--trace"]) == 0
    assert capsys.readouterr().out == "FIX 1 1 3\nDEL 2 2 1\nFIX 3 2 2\n{2,3}\n"


def test_map_json(u42_file, capsys):
    assert main(["map", u42_file, "--sigma", "0", "0", "--json", "--trace"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["output"] == [1, 3]
    assert payload["trace"][0] == {"kind": "FIX", "step": 1, "set": 1, "element": 3}


def test_map_rejects_non_member(u42_file, capsys):
    assert main(["map", u42_file, "--sigma", "9", "9"]) == 2
    assert capsys.readouterr().err == "error: input is not a parking function of the system\n"
    assert main(["map", u42_file, "--rho", "1", "2"]) == 2
    assert capsys.readouterr().err == "error: input is not a parking set of the system\n"


@pytest.mark.parametrize("json_flag", [False, True])
def test_map_takes_no_values_on_a_k0_system(tmp_path, capsys, json_flag):
    # the empty function and the empty set pair off, as in verify and enumerate
    path = tmp_path / "zero.txt"
    path.write_text("0 0\n")
    flags = ["--json"] * json_flag
    assert main(["map", str(path), "--sigma", *flags]) == 0
    assert capsys.readouterr().out == ('{"output": []}\n' if json_flag else "{}\n")
    assert main(["map", str(path), "--rho", *flags]) == 0
    assert capsys.readouterr().out == ('{"output": []}\n' if json_flag else "()\n")


@pytest.mark.parametrize("json_flag", [False, True])
def test_map_without_values_on_a_k2_system_names_the_count(u42_file, capsys, json_flag):
    flags = ["--json"] * json_flag
    assert main(["map", u42_file, "--sigma", *flags]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: expected 2 function values, got 0\n")
    assert main(["map", u42_file, "--rho", *flags]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: expected a 2-element set, got 0 elements\n")


def test_map_has_no_trusted_flag(u42_file):
    with pytest.raises(SystemExit) as exit_:
        main(["map", u42_file, "--sigma", "0", "0", "--trusted"])
    assert exit_.value.code == 2


def test_map_runs_past_the_oracle_cap(tmp_path, capsys):
    sets = star_sets(complete_graph(22))          # k = 21
    path = tmp_path / "star22.txt"
    path.write_text("21 231\n" + "".join(" ".join(map(str, sorted(s))) + "\n"
                                         for s in sets))
    assert main(["map", str(path), "--sigma", *["0"] * 21]) == 0
    tree = capsys.readouterr().out.strip("{}\n").split(",")
    assert main(["map", str(path), "--rho", *tree]) == 0
    assert capsys.readouterr().out == "(" + ", ".join(["0"] * 21) + ")\n"


def test_map_on_a_certified_stall_exits_1(u42_file, monkeypatch, capsys):
    # a certificate that accepts the non-member (2, 2) leaves the sweep
    # to stall, which contradicts the theorem
    monkeypatch.setattr(sparking.bijections, "parking_function_permutation",
                        lambda system, values: (1, 2))
    assert main(["map", u42_file, "--sigma", "2", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("verification failed: ")


def test_enumerate(u42_file, capsys):
    assert main(["enumerate", u42_file]) == 0
    out = capsys.readouterr().out
    assert "functions (5):" in out
    assert "sets (5):" in out
    assert "(0, 2)" in out and "{3,4}" in out


def test_enumerate_json(u42_file, capsys):
    assert main(["enumerate", u42_file, "--functions", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"functions": [[0, 0], [0, 1], [0, 2], [1, 0], [2, 0]]}


@pytest.mark.parametrize("command, out", [
    ("verify", "|P|=0 |Q|=0 OK\n"),
    ("enumerate", "functions (0):\nsets (0):\n"),
])
def test_warnings_are_one_line_each_without_a_path(command, out, tmp_path):
    path = tmp_path / "empty-member.json"
    path.write_text('{"sets": [[1, 2, 3], []]}')
    result = _run_cli(command, str(path))
    assert (result.returncode, result.stdout) == (0, out)
    assert result.stderr.splitlines() == [
        "warning: family contains an empty set: no parking function exists",
    ]


@pytest.mark.parametrize("command", ["verify", "enumerate"])
def test_warnings_print_whatever_the_interpreter_filters(command, tmp_path):
    path = tmp_path / "empty-member.json"
    path.write_text('{"sets": [[1, 2, 3], []]}')
    plain = _run_cli(command, str(path))
    strict = _run_cli(command, str(path), flags=["-W", "error"])
    assert (strict.returncode, strict.stdout, strict.stderr) == (
        plain.returncode, plain.stdout, plain.stderr)
    assert strict.stderr.count("warning: ") == 1


def test_verify_singleton(tmp_path, capsys):
    path = tmp_path / "single.txt"
    path.write_text("1 1\n1\n")
    assert main(["verify", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "|P|=1 |Q|=1 OK"


def test_verify_random(capsys):
    assert main(["verify", "--random", "5", "--seed", "3"]) == 0
    assert "all OK" in capsys.readouterr().out


def test_verify_random_env_seed(monkeypatch, capsys):
    monkeypatch.setenv("SPARKING_SEED", "12")
    assert main(["verify", "--random", "3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


@pytest.mark.parametrize("argv, option, token", [
    (["map", "U42", "--sigma", "٠", "1_0"], "--sigma", "٠"),
    (["map", "U42", "--rho", "1", "３"], "--rho", "３"),
    (["verify", "--random", "٢"], "--random", "٢"),
    (["verify", "--random", "2", "--seed", "٤"], "--seed", "٤"),
    (["verify", "--random", "2", "--max-k", "３"], "--max-k", "３"),
], ids=["sigma", "rho", "random", "seed", "max-k"])
def test_integer_options_follow_the_one_integer_rule(argv, option, token, u42_file, capsys):
    # int() takes each of these; the readers take ASCII digits with a sign only
    with pytest.raises(SystemExit) as exit_:
        main([u42_file if arg == "U42" else arg for arg in argv])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.endswith(f"error: argument {option}: invalid int value: {token!r}\n")
    assert captured.out == ""


def test_env_seed_follows_the_one_integer_rule(monkeypatch, capsys):
    monkeypatch.setenv("SPARKING_SEED", "1_2")        # int() reads 12
    assert main(["verify", "--random", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: SPARKING_SEED: invalid int value: '1_2'\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv", [[], ["--random", "2"]], ids=["neither", "both"])
def test_verify_takes_a_file_or_random_but_not_both(argv, u42_file, capsys):
    # a file given next to --random would be ignored, so it is refused
    both = bool(argv)
    assert main(["verify", *([u42_file] if both else []), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: verify takes a system file or --random N, not both\n" if both
                            else "error: verify needs a system file or --random N\n")
    assert captured.out == ""


def test_matroid_circuit_side(u42_file, tmp_path, capsys):
    assert main(["matroid", "uniform:4:2", "--parts", u42_file,
                 "--side", "circuit"]) == 0
    out = capsys.readouterr().out
    assert "side: circuit" in out
    assert "identity OK" in out
    assert "full cover: no" in out
    assert "{2,4}" in out


def test_matroid_graphic_cocircuit_side(tmp_path, k3_file, capsys):
    parts = tmp_path / "stars.txt"
    parts.write_text("2 3\n1 3\n2 3\n")
    assert main(["matroid", f"graphic:{k3_file}", "--parts", str(parts),
                 "--side", "cocircuit"]) == 0
    out = capsys.readouterr().out
    assert "full cover: yes" in out


@pytest.mark.parametrize("side", ["circuit", "cocircuit"])
def test_matroid_pairs_follow_the_weights_of_the_parts_file(side, tmp_path, capsys):
    # the reversed weights pair other functions with other bases than the
    # identity weights; a file without a weights line keeps the identity
    u42 = uniform_matroid(4, 2)
    weights = {1: 4, 2: 3, 3: 2, 4: 1}
    pairs = {}
    for name, text in (("weighted", "2 4\nweights 4 3 2 1\n1 2 3\n1 2 4\n"), ("plain", U42)):
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        assert main(["matroid", "uniform:4:2", "--parts", str(path), "--side", side, "--json"]) == 0
        pairs[name] = json.loads(capsys.readouterr().out)["pairs"]
    for name, expected in (("weighted", weights), ("plain", None)):
        assert pairs[name] == [[list(f), sorted(b)] for f, b in theorem_bijection(
            u42, [{1, 2, 3}, {1, 2, 4}], side, weights=expected)]
    assert pairs["weighted"] != pairs["plain"]


def test_matroid_precondition_exit_code(u42_file, tmp_path, capsys):
    parts = tmp_path / "one.txt"
    parts.write_text("1 4\n1 2 3\n")
    assert main(["matroid", "uniform:4:2", "--parts", str(parts),
                 "--side", "circuit"]) == 3
    assert "precondition failed" in capsys.readouterr().err


def test_graph_star_side(k3_file, capsys):
    assert main(["graph", k3_file]) == 0
    out = capsys.readouterr().out
    assert "spanning trees: 3" in out
    assert "bijection onto spanning trees: OK" in out


def test_graph_on_one_vertex_pairs_the_empty_tree(tmp_path, capsys):
    path = tmp_path / "one.txt"
    path.write_text("vertices 1\n")
    assert main(["graph", str(path)]) == 0
    assert capsys.readouterr().out == (
        "spanning trees: 1\nparking functions (star sets): 1\n() -> tree {}\n"
        "bijection onto spanning trees: OK\n")
    assert main(["graph", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "side": "star sets", "spanning_trees": 1, "pairs": [[[], []]]}


def test_graph_failed_verdict_exits_1(monkeypatch, tmp_path, capsys):
    # graphic_matroid lists the trees off pool_filter; dropping its first
    # candidate, the star at the root, leaves 15 of K4's 16 trees
    listing = sparking.graphs.pool_filter
    monkeypatch.setattr(sparking.graphs, "pool_filter", lambda masks, pools: listing(masks, pools)[1:])
    assert len(sparking.graphs.graphic_matroid(complete_graph(4)).bases) == 15
    with pytest.raises(VerificationError):
        spanning_tree_bijection(complete_graph(4))
    path = tmp_path / "k4.txt"
    path.write_text(K4)
    assert main(["graph", str(path)]) == 1
    captured = capsys.readouterr()
    assert "OK" not in captured.out
    assert captured.err.startswith("verification failed: ")


def test_graph_face_side(k3_file, tmp_path, capsys):
    faces = tmp_path / "faces.txt"
    faces.write_text("1 2 3\n")
    assert main(["graph", k3_file, "--faces", str(faces)]) == 0
    out = capsys.readouterr().out
    assert "(0) -> tree {2,3}" in out


def test_graph_face_precondition(k3_file, tmp_path):
    faces = tmp_path / "faces.txt"
    faces.write_text("1 2\n")
    assert main(["graph", k3_file, "--faces", str(faces)]) == 3


# the triangles through vertex 0 of K5 (edge ids in endpoint order)
K5_CONE_FACES = "1 2 5\n1 3 6\n1 4 7\n2 3 8\n2 4 9\n3 4 10\n"


@pytest.mark.parametrize("faces", [None, K5_CONE_FACES], ids=["stars", "faces"])
def test_graph_enumerates_the_spanning_trees_once(faces, tmp_path, capsys):
    # graphic_matroid lists the trees by one pool_filter pass over the
    # stars; counted by code object, so a call through any name is seen
    code = sparking.enumeration.pool_filter.__code__
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls.append(frame)

    path = tmp_path / "k5.txt"
    path.write_text("vertices 5\n" + "".join(
        f"{e} {u} {v}\n" for e, u, v in complete_graph(5).edges))
    argv = ["graph", str(path)]
    if faces:
        (tmp_path / "faces.txt").write_text(faces)
        argv += ["--faces", str(tmp_path / "faces.txt")]
    sys.setprofile(profile)
    try:
        assert main(argv) == 0
    finally:
        sys.setprofile(None)
    assert len(calls) == 1
    assert capsys.readouterr().out.startswith("spanning trees: 125\nparking functions")


def test_k_beyond_the_cap_is_refused_as_too_large(tmp_path, capsys):
    path = tmp_path / "big.txt"
    path.write_text("21 1\n" + "1\n" * 21)
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: too large")
    assert "line" not in err


def test_enumerate_functions_walk_past_the_cap(tmp_path, capsys):
    # the functions come off the sweep tree; the sets still read the table
    path = tmp_path / "path21.txt"
    path.write_text("21 22\n" + "".join(f"{i} {i + 1}\n" for i in range(1, 22)))
    assert main(["enumerate", str(path), "--functions", "--json"]) == 0
    functions = json.loads(capsys.readouterr().out)["functions"]
    assert len(functions) == 22 and functions[0] == [0] * 21
    for which in ("--sets", "--both"):
        assert main(["enumerate", str(path), which]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: too large") and not captured.out


@pytest.mark.parametrize("faces", [False, True], ids=["stars", "faces"])
def test_graph_beyond_the_cap_is_refused_at_once(faces, tmp_path):
    # K22 has 21 star sets and 210 independent cycles: the face side's table
    # refuses the faces, and the stars' trees refuse C(231, 21) candidates
    k22 = complete_graph(22)
    path = tmp_path / "k22.txt"
    path.write_text("vertices 22\n" + "".join(f"{e} {u} {v}\n" for e, u, v in k22.edges))
    argv = ["graph", str(path)]
    if faces:
        (tmp_path / "faces.txt").write_text("".join(f"{e}\n" for e in range(1, 211)))
        argv += ["--faces", str(tmp_path / "faces.txt")]
    result = _run_cli(*argv, timeout=10)
    assert result.returncode == 2
    assert result.stderr.startswith("error: too large: k=210 sets;" if faces else
                                    "error: too large: C(231, 21) = 331488223958251318888250434410"
                                    " candidate edge sets;")
    assert result.stdout == ""


@pytest.mark.parametrize("command", ["graph", "matroid"])
def test_k12_spanning_trees_are_refused_at_once(command, tmp_path, capsys):
    # 11 star sets pass the table's cap, but listing the trees would try
    # C(66, 11) edge subsets
    k12 = complete_graph(12)
    path = tmp_path / "k12.txt"
    path.write_text("vertices 12\n" + "".join(f"{e} {u} {v}\n" for e, u, v in k12.edges))
    argv = ["graph", str(path)]
    if command == "matroid":
        stars = tmp_path / "stars.txt"
        stars.write_text("11 66\n" + "".join(" ".join(map(str, sorted(s))) + "\n"
                                             for s in star_sets(k12)))
        argv = ["matroid", f"graphic:{path}", "--parts", str(stars), "--side", "cocircuit"]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.err.startswith(
        "error: too large: C(66, 11) = 1074082795968 candidate edge sets;")
    assert captured.out == ""


def test_enumerate_functions_refuses_a_box_beyond_the_cap_before_it_walks(tmp_path, capsys,
                                                                         monkeypatch):
    # the K12 stars: 11^11 value vectors in the box and 12^10 parking
    # functions, which the walk would list for hours; --both keeps the
    # refusal of its sets, which come first
    def walk(masks):
        raise AssertionError("the sweep tree was walked")

    monkeypatch.setattr(sparking.enumeration, "walk", walk)
    path = tmp_path / "stars.txt"
    path.write_text("11 66\n" + "".join(" ".join(map(str, sorted(s))) + "\n"
                                        for s in star_sets(complete_graph(12))))
    for which, refusal in (("--functions", f"{11 ** 11} value vectors in the box; filtering "
                                           "the parking functions is capped at 10000000"),
                           ("--both", "C(66, 11) = 1074082795968 candidate sets; filtering "
                                      "the parking sets is capped at 10000000")):
        for flags in ([], ["--json"]):
            assert main(["enumerate", str(path), which, *flags]) == 2
            captured = capsys.readouterr()
            assert captured.err == f"error: too large: {refusal}\n" and captured.out == ""


def test_k7_circuit_side_with_the_cone_triangles_runs_in_seconds(tmp_path):
    # 16,807 bases against the pools of 32,767 subfamilies: a per-basis
    # scan of every pool took 78 s; the column bracket over the 1,172
    # minimal pools takes seconds
    k7 = complete_graph(7)
    edge = {(u, v): e for e, u, v in k7.edges}
    triangles = [(edge[0, i], edge[0, j], edge[i, j]) for i, j in combinations(range(1, 7), 2)]
    (tmp_path / "k7.txt").write_text("vertices 7\n" + "".join(f"{e} {u} {v}\n"
                                                              for e, u, v in k7.edges))
    (tmp_path / "faces.txt").write_text("15 21\n" + "".join(" ".join(map(str, t)) + "\n"
                                                           for t in triangles))
    start = time.perf_counter()
    result = _run_cli("matroid", f"graphic:{tmp_path / 'k7.txt'}", "--parts",
                      str(tmp_path / "faces.txt"), "--side", "circuit", "--json", timeout=60)
    assert result.returncode == 0 and time.perf_counter() - start < 20
    out = json.loads(result.stdout)
    assert len(out["pairs"]) == 16807 and out["identity"]["equal"] and out["full_cover"]


def test_enumerate_sets_beyond_the_candidate_cap_is_refused_at_once(tmp_path):
    # ten 12-element sets cover 56 of the elements 1..60: the parking sets
    # would be filtered out of C(56, 10) ≈ 3.6·10^10 candidates
    sets = [" ".join(str((5 * j + i) % 56 + 1) for i in range(12)) for j in range(10)]
    path = tmp_path / "wide.txt"
    path.write_text("10 60\n" + "".join(line + "\n" for line in sets))
    start = time.perf_counter()
    result = _run_cli("enumerate", str(path), "--sets", timeout=10)
    assert time.perf_counter() - start < 2
    assert result.returncode == 2
    assert result.stderr.startswith("error: too large: C(56, 10) = 35607051480 candidate sets;")
    assert result.stdout == ""


def _count_table_builds(monkeypatch):
    """Count ``subfamily_table`` calls, through either module that names it."""
    builds = []
    table = sparking.systems.subfamily_table

    def counted(masks):
        builds.append(len(masks))
        return table(masks)
    monkeypatch.setattr(sparking.systems, "subfamily_table", counted)
    monkeypatch.setattr(sparking.enumeration, "subfamily_table", counted)
    return builds


# twenty 9-element sets, shifted by 4 round 1..82: C(82, 20) ≈ 6.2·10^18 candidates
WIDE20 = "20 90\n" + "".join(" ".join(str((4 * j + i) % 82 + 1) for i in range(9)) + "\n"
                             for j in range(20))
# four copies of 1..60: C(60, 4) = 487,635 candidates but 60^4 value vectors
BOX60 = "4 60\n" + (" ".join(map(str, range(1, 61))) + "\n") * 4
# the path {i, i+1}, i = 1..20: within every cap above, but the oracles
# would test 2^20 value vectors against 2^20 subfamilies each
PATH20 = "20 21\n" + "".join(f"{i} {i + 1}\n" for i in range(1, 21))


@pytest.mark.parametrize("text, argv, budget, message", [
    (WIDE20, ["verify"], 1, "error: too large: C(82, 20) = 6208770443303347920 candidate sets;"),
    (WIDE20, ["enumerate", "--sets"], 1,
     "error: too large: C(82, 20) = 6208770443303347920 candidate sets;"),
    (WIDE20, ["enumerate", "--both"], 1,
     "error: too large: C(82, 20) = 6208770443303347920 candidate sets;"),
    (BOX60, ["verify"], 2, "error: too large: 12960000 value vectors in the box;"),
    (PATH20, ["verify"], 1,
     "error: too large: 1048576 value vectors times 2^20 subfamilies;"),
], ids=["wide-verify", "wide-sets", "wide-both", "box-verify", "path-verify"])
def test_large_input_is_refused_before_any_table_or_candidate(text, argv, budget, message,
                                                             tmp_path, monkeypatch, capsys):
    builds = _count_table_builds(monkeypatch)
    path = tmp_path / "system.txt"
    path.write_text(text)
    start = time.perf_counter()
    assert main([argv[0], str(path), *argv[1:]]) == 2
    assert time.perf_counter() - start < budget
    captured = capsys.readouterr()
    assert captured.err.startswith(message) and captured.out == ""
    assert builds == []


def test_verify_boundary_of_the_scope_notes(tmp_path, monkeypatch, capsys):
    # README's scope notes: the path {i, i+1}, i = 1..12, is verified by
    # definition, and i = 1..14 is refused before anything is enumerated
    folds = []
    fold = sparking.systems.exactly_one_sets
    monkeypatch.setattr(sparking.systems, "exactly_one_sets",
                        lambda sets: folds.append(None) or fold(sets))
    path = tmp_path / "path.txt"
    path.write_text("12 13\n" + "".join(f"{i} {i + 1}\n" for i in range(1, 13)))
    assert main(["verify", str(path)]) == 0
    assert capsys.readouterr().out.startswith("|P|=13 |Q|=13 OK\n")
    folds.clear()
    path.write_text("14 15\n" + "".join(f"{i} {i + 1}\n" for i in range(1, 15)))
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        "error: too large: 16384 value vectors times 2^14 subfamilies; "
        "checking them by definition is capped at 100000000 pairs\n")
    assert folds == []


def _parsed(parser, argv):
    """What parsing ``argv`` returns or exits with, and what it prints."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parser.parse_args(argv))
        except SystemExit as exit:
            result = exit.code
    return result, out.getvalue(), err.getvalue()


COMMANDS = ["enumerate", "map", "verify", "matroid", "graph", "demo"]


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["-h"], *([command, "--help"] for command in COMMANDS),
    ["nonsense"], ["nonsense", "--help"], ["--unknown"], ["enumerate"], ["map", "u42.txt"],
    ["matroid", "uniform:4:2"], ["matroid", "uniform:4:2", "--parts", "p.txt"], ["graph"],
    ["demo"], ["verify", "--random"], ["verify", "--max-k", "0"], ["map", "u42.txt", "--rho"],
    ["enumerate", "u42.txt", "--sets", "--json"], ["map", "u42.txt", "--sigma", "0", "1"],
    ["verify", "--random", "3", "--seed", "2"], ["demo", "u42", "extra"],
], ids=" ".join)
def test_parser_builds_only_the_chosen_subcommand(argv):
    # the same help, errors and parsed arguments, byte for byte, as the
    # parser with every subcommand's arguments
    parser = build_parser(argv)
    assert _parsed(parser, argv) == _parsed(build_parser(), argv)
    chosen = next((word for word in argv if not word.startswith("-")), None)
    subparsers = parser._subparsers._group_actions[0].choices
    assert list(subparsers) == COMMANDS
    built = [name for name, sub in subparsers.items()
             if sub.format_usage() != f"usage: sparking {name} [-h]\n"]
    assert built == ([chosen] if chosen in COMMANDS else [])


@pytest.mark.parametrize("text, message", [
    ("2 3\n1 2\n", "error: line 1: expected 2 set lines, found 1\n"),
    ("1 2\nweights 1 1\n1\n", "error: line 2: element weights must be pairwise distinct\n"),
], ids=["set-count", "weights"])
def test_count_and_weight_errors_name_a_line(tmp_path, capsys, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err == message


def test_missing_file_is_input_error(capsys):
    assert main(["enumerate", "/no/such/file"]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("2 4\n1 2 9\n1 2\n")
    assert main(["enumerate", str(path)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_module_entry_point(u42_file):
    result = _run_cli("map", u42_file, "--sigma", "1", "0")
    assert result.returncode == 0
    assert result.stdout == "{1,4}\n"


@pytest.mark.parametrize("text", ['{"sets": [[null]]}', '{"sets": 5}',
                                  '{"sets": [[1,2]], "weights": [1]}', '{"sets": [[true]]}'])
def test_malformed_json_exits_2_without_traceback(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    result = _run_cli("verify", str(path))
    assert result.returncode == 2
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.stderr


def test_huge_universe_header_parses_at_once(tmp_path):
    # the header's m only bounds the ids; under the memory cap a
    # regression that allocates per id fails fast instead of exhausting RAM
    path = tmp_path / "huge.txt"
    path.write_text("1 1000000000000\n1\n")
    cap = 512 * 2 ** 20
    result = _run_cli("verify", str(path), timeout=60,
                      preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.splitlines()[0] == "|P|=1 |Q|=1 OK"


@pytest.mark.parametrize("command, text, message", [
    ("graph", "vertices 100000000000\n", "error: graph is not connected\n"),
    ("matroid", "ground 100000000000 1\n1\n",
     "error: out of memory; the input is too large to process\n"),
])
def test_huge_headers_exit_2_without_traceback(tmp_path, command, text, message):
    # under the memory cap a header that allocates per vertex or per
    # element fails fast instead of exhausting RAM
    path = tmp_path / "huge.txt"
    path.write_text(text)
    parts = tmp_path / "parts.txt"
    parts.write_text("1 1\n1\n")
    extra = {"graph": [], "matroid": ["--parts", str(parts), "--side", "circuit"]}[command]
    cap = 512 * 2 ** 20
    result = _run_cli(command, str(path), *extra, timeout=60,
                      preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert (result.returncode, result.stderr) == (2, message)


@pytest.mark.parametrize("name, text", [
    ("huge.txt", "1 1\nweights 1e100000000\n1\n"),
    ("huge.json", '{"sets": [[1]], "weights": {"1": "1e100000000"}}'),
])
def test_huge_weight_exponent_is_refused_at_once(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    result = _run_cli("verify", str(path), timeout=30)
    assert result.returncode == 2
    assert result.stderr.endswith("bad weight '1e100000000'\n")


@pytest.mark.parametrize("argv", [["--random", "-3"], ["--random", "0"],
                                  ["--random", "2", "--max-k", "0"]])
def test_verify_counts_must_be_positive(argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["verify", *argv])
    assert exit_.value.code == 2
    assert "expected a positive integer" in capsys.readouterr().err


@given(JSON_DOCUMENTS, st.sampled_from(["verify", "enumerate"]))
@settings(max_examples=150, deadline=None)
def test_cli_on_arbitrary_json_exits_with_a_known_code(tmp_path_factory, text, command):
    path = tmp_path_factory.mktemp("fuzz") / "system.json"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(path)])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


@given(SET_SYSTEM_TEXTS, st.sampled_from(["verify", "enumerate", "--sigma", "--rho"]),
       st.lists(st.integers(-1, 8), min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_cli_on_arbitrary_text_exits_with_a_known_code(tmp_path_factory, text, command,
                                                       arguments):
    path = tmp_path_factory.mktemp("fuzz") / "system.txt"
    path.write_text(text)
    argv = ([command, str(path)] if command in ("verify", "enumerate")
            else ["map", str(path), command, *map(str, arguments)])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


def test_matroid_on_the_k6_stars_runs_at_once(tmp_path):
    # the graphic matroid and its dual are matroids by construction: no
    # O(B^2 r^2) exchange check on their 1,296 bases
    k6 = complete_graph(6)
    graph, parts = tmp_path / "k6.txt", tmp_path / "stars.txt"
    graph.write_text("vertices 6\n" + "".join(f"{e} {u} {v}\n" for e, u, v in k6.edges))
    parts.write_text("5 15\n" + "".join(" ".join(map(str, sorted(s))) + "\n"
                                         for s in star_sets(k6)))
    result = _run_cli("matroid", f"graphic:{graph}", "--parts", str(parts),
                      "--side", "cocircuit", timeout=15)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.splitlines()[:4] == [
        "side: cocircuit", "form: parking-sets",
        "surviving bases: 1296  parking expression: 1296  identity OK", "full cover: yes"]
    assert len(result.stdout.splitlines()) == 4 + 1 + 1296


@pytest.mark.skipif(not hasattr(fcntl, "F_SETPIPE_SZ"), reason="needs a resizable pipe")
def test_graph_into_a_pipe_closed_early_exits_141_quietly(tmp_path):
    # like ``sparking graph k6.txt | head -1``: the reader takes one line and
    # leaves; a one-page pipe cannot hold the ~49 kB of pairs, so the child
    # is still writing when it does
    k6 = complete_graph(6)
    graph = tmp_path / "k6.txt"
    graph.write_text("vertices 6\n" + "".join(f"{e} {u} {v}\n" for e, u, v in k6.edges))
    read_end, write_end = os.pipe()
    fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    env = {**os.environ, "PYTHONPATH": str(Path(sparking.__file__).resolve().parents[1])}
    child = subprocess.Popen([sys.executable, "-m", "sparking", "graph", str(graph)],
                             stdout=write_end, stderr=subprocess.PIPE, env=env)
    os.close(write_end)
    with open(read_end, "rb") as reader:
        assert reader.readline() == b"spanning trees: 1296\n"
    _, err = child.communicate(timeout=60)
    assert (child.returncode, err) == (141, b"")
