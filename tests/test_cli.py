import contextlib
import io
import json
import os
import resource
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparking
import sparking.bijections
import sparking.graphs
from sparking import VerificationError, complete_graph, spanning_tree_bijection, star_sets
from sparking.cli import main

from test_formats import JSON_DOCUMENTS, SET_SYSTEM_TEXTS

U42 = "2 4\n1 2 3\n1 2 4\n"
K3 = "vertices 3\n1 0 1\n2 0 2\n3 1 2\n"
K4 = "vertices 4\n1 0 1\n2 0 2\n3 0 3\n4 1 2\n5 1 3\n6 2 3\n"


def _run_cli(*argv, **kwargs):
    """``python -m sparking`` in a child process that imports the same
    source as this one, whatever PYTHONPATH the suite was started with."""
    env = {**os.environ, "PYTHONPATH": str(Path(sparking.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, "-m", "sparking", *argv],
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


def test_graph_failed_verdict_exits_1(monkeypatch, tmp_path, capsys):
    trees = sparking.graphs.spanning_trees
    monkeypatch.setattr(sparking.graphs, "spanning_trees", lambda graph: trees(graph)[1:])
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
    # counted by code object, so a call through any imported name is seen
    code = sparking.graphs.spanning_trees.__code__
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
