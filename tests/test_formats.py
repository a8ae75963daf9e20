import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparking import SetSystem, Universe
from sparking.cli import main
from sparking.formats import (
    FormatError,
    format_function,
    format_set,
    load_set_system,
    parse_faces,
    parse_matroid,
    parse_multigraph,
    parse_set_system,
    parse_set_system_json,
    render_pairing_table,
)

U42_TEXT = """\
# the worked example
2 4
1 2 3
1 2 4
"""


def test_parse_set_system_basic():
    system = parse_set_system(U42_TEXT)
    assert system.k == 2
    assert system.sets == (frozenset({1, 2, 3}), frozenset({1, 2, 4}))
    assert system.weight(3) == 3


def test_parse_set_system_with_weights():
    text = "1 3\nweights 5 1/2 0.25\n1 2 3\n"
    system = parse_set_system(text)
    assert system.weight(2) == Fraction(1, 2)
    assert system.weight(3) == Fraction(1, 4)
    system = parse_set_system("1 3\nweights 1e3 2.5e-1 -3/7\n1 2 3\n")
    assert [system.weight(e) for e in (1, 2, 3)] == [1000, Fraction(1, 4), Fraction(-3, 7)]


def test_parse_set_system_errors_carry_line_numbers():
    with pytest.raises(FormatError) as err:
        parse_set_system("2 4\n1 2 9\n1 2\n")
    assert err.value.line == 2
    with pytest.raises(FormatError):
        parse_set_system("")
    with pytest.raises(FormatError):
        parse_set_system("2 4\n1 2\n")          # missing a set line
    with pytest.raises(FormatError) as err:
        parse_set_system("1 2\nweights 1\n1 2\n")   # wrong weight count
    assert err.value.line == 2
    with pytest.raises(FormatError):
        parse_set_system("1 2\nweights 1 1\n1 2\n")  # duplicate weights


def test_text_universe_holds_only_the_ids_that_appear():
    # without a weights line the header's m only bounds the ids
    assert len(parse_set_system("1 1000\n1\n").universe) == 1
    assert parse_set_system("2 9\n1 2\n5\n").universe.elements == {1, 2, 5}
    assert parse_set_system("1 3\nweights 3 2 1\n1\n").universe.elements == {1, 2, 3}


def test_parse_set_system_json_mirror():
    payload = {"sets": [[1, 2, 3], [1, 2, 4]]}
    system = parse_set_system_json(json.dumps(payload))
    assert system.sets == parse_set_system(U42_TEXT).sets

    weighted = {"sets": [[1, 2]], "weights": {"1": "1/3", "2": 0.5}}
    system = parse_set_system_json(json.dumps(weighted))
    assert system.weight(1) == Fraction(1, 3)
    assert system.weight(2) == Fraction(1, 2)
    weighted = {"sets": [[1, 2, 3]], "weights": {"1": "1e3", "2": "2.5e-1", "3": "-3/7"}}
    system = parse_set_system_json(json.dumps(weighted))
    assert [system.weight(e) for e in (1, 2, 3)] == [1000, Fraction(1, 4), Fraction(-3, 7)]

    with pytest.raises(FormatError):
        parse_set_system_json("[1, 2]")
    with pytest.raises(FormatError):
        parse_set_system_json("{nope")


WEIGHT_TOKENS = ["0", "7", "-3", "+5", "-0", "007", "9" * 60, "0.1", "1/3", "2.5e-1", "-4/6",
                 "6/3", "2.0", "1e3", "1.", ".5", "1_0", "x", "1/0", "+-1", "3/-4", "0x10",
                 "inf", "nan", "\u0663", "\u00b2", "9" * 5000]
OTHER_WEIGHT = 10 ** 70 + 1


def _fraction_or_none(token):
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        return None


@pytest.mark.parametrize("token", WEIGHT_TOKENS,
                         ids=lambda token: token if len(token) < 20 else f"{len(token)} digits")
def test_weight_tokens_parse_like_fraction(token):
    # an integer token becomes an int equal to, and hashed like, the
    # Fraction it replaces; every other token takes Fraction's own verdict
    expected = _fraction_or_none(token)
    text = f"1 2\nweights {token} {OTHER_WEIGHT}\n1 2\n"
    payload = json.dumps({"sets": [[1, 2]], "weights": {"1": token, "2": OTHER_WEIGHT}})
    for parse, source in ((parse_set_system, text), (parse_set_system_json, payload)):
        if expected is None:
            with pytest.raises(FormatError, match=re.escape(f"bad weight {token!r}")):
                parse(source)
            continue
        weight = parse(source).weight(1)
        assert weight == expected and hash(weight) == hash(expected)
        assert type(weight) is (int if expected.denominator == 1 else Fraction)
        assert parse(source).weight(2) == OTHER_WEIGHT


@pytest.mark.parametrize("number", ["7", "-3", "9" * 60, "0.1", "2.5e-1", "2.0", "1e3", "-0.0"],
                         ids=lambda number: number if len(number) < 20 else f"{len(number)} digits")
def test_json_number_weights_parse_like_before(number):
    value = json.loads(number)
    expected = Fraction(str(value)) if isinstance(value, float) else Fraction(value)
    weight = parse_set_system_json(f'{{"sets": [[1]], "weights": {{"1": {number}}}}}').weight(1)
    assert weight == expected and type(weight) is (int if expected.denominator == 1 else Fraction)


@pytest.mark.parametrize("text", [
    '{"sets": [[null]]}',
    '{"sets": 5}',
    '{"sets": [5]}',
    '{"sets": [[1, 2]], "weights": [1]}',
    '{"sets": [[true]]}',
    '{"sets": [[1]], "weights": {"1": true}}',
    '{"sets": [[1]], "weights": {"x": 1}}',
    '{"sets": [[1]], "weights": {"1": null}}',
    '{"sets": [[Infinity]]}',
    '{"sets": [[0]]}',
])
def test_parse_set_system_json_rejects_malformed(text):
    with pytest.raises(FormatError):
        parse_set_system_json(text)


SCALARS = (st.none() | st.booleans() | st.integers(-2, 7) | st.floats()
           | st.text(max_size=3))
JSON_VALUES = st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=3), max_leaves=10)
# near-valid payloads: small families of mostly valid ids, odd weights
PAYLOADS = st.fixed_dictionaries(
    {"sets": st.lists(st.lists(st.integers(1, 6) | SCALARS, max_size=4), max_size=4)
     | JSON_VALUES},
    optional={"weights": st.dictionaries(st.integers(-1, 7).map(str) | st.text(max_size=2),
                                         SCALARS, max_size=5) | JSON_VALUES})
JSON_DOCUMENTS = (PAYLOADS | JSON_VALUES).map(json.dumps) | st.text(max_size=12)


@given(JSON_DOCUMENTS)
@settings(max_examples=300, deadline=None)
def test_parse_set_system_json_raises_only_format_errors(text):
    try:
        parse_set_system_json(text)
    except FormatError:
        pass


TOKENS = st.integers(-2, 9).map(str) | st.sampled_from(["x", "1/2", "1/0", "2.5", "-"])


@st.composite
def set_system_texts(draw):
    """Near-valid text set systems: a header, maybe a weights line, and
    set lines of mostly in-range ids."""
    k, m = draw(st.integers(-1, 4)), draw(st.integers(-1, 7))
    lines = [draw(st.sampled_from([f"{k} {m}", f"{k}", f"{k} {m} 1", "k m"]))]
    if draw(st.booleans()):
        size = max(m, 0)
        lines.append(" ".join(["weights"] + draw(st.lists(TOKENS, min_size=size,
                                                          max_size=size + 1))))
    ids = st.integers(-1, m + 1).map(str) | TOKENS
    lines += draw(st.lists(st.lists(ids, max_size=4).map(" ".join),
                           max_size=max(k, 0) + 1))
    return "\n".join(lines) + "\n"


SET_SYSTEM_TEXTS = set_system_texts() | st.text(max_size=20)


@given(SET_SYSTEM_TEXTS)
@settings(max_examples=300, deadline=None)
def test_parse_set_system_raises_only_format_errors(text):
    try:
        parse_set_system(text)
    except FormatError:
        pass


@st.composite
def weighted_systems(draw):
    """A system over ids 1..m with identity, shuffled, or distinct
    (possibly negative) Fraction weights; identity systems weigh only the
    ids that appear, as a file without weights gives them.  Members are
    non-empty: a text set line cannot be empty."""
    m = draw(st.integers(1, 6))
    sets = draw(st.lists(st.frozensets(st.integers(1, m), min_size=1), max_size=4))
    kind = draw(st.sampled_from(["identity", "shuffled", "fraction"]))
    if kind == "identity":
        return SetSystem(sets), m
    if kind == "shuffled":
        weights = draw(st.permutations(range(1, m + 1)))
    else:
        weights = draw(st.lists(st.fractions(-50, 50, max_denominator=12),
                                min_size=m, max_size=m, unique=True))
    return SetSystem(sets, Universe(dict(zip(range(1, m + 1), weights)))), m


def _as_text(system, m):
    lines = [f"{system.k} {m}"]
    if system.universe != Universe.identity(system.covered):
        lines.append(" ".join(["weights"] + [str(system.weight(e)) for e in range(1, m + 1)]))
    return "\n".join(lines + [" ".join(map(str, sorted(s))) for s in system.sets]) + "\n"


def _as_json(system, m):
    payload = {"sets": [sorted(s) for s in system.sets]}
    if system.universe != Universe.identity(system.covered):
        weights = (system.weight(e) for e in range(1, m + 1))
        payload["weights"] = {str(e): w.numerator if w.denominator == 1 else str(w)
                              for e, w in enumerate(weights, start=1)}
    return json.dumps(payload)


@given(weighted_systems())
@settings(max_examples=200, deadline=None)
def test_text_and_json_forms_round_trip(drawn):
    system, m = drawn
    for text in (_as_text(system, m), _as_json(system, m)):
        loaded = load_set_system(text)
        assert loaded == system
        assert loaded.universe == system.universe


def test_load_set_system_dispatches():
    assert load_set_system(U42_TEXT).k == 2
    assert load_set_system('{"sets": [[1]]}').k == 1


@pytest.mark.parametrize("token", ["\u0664", "0_4", "\uff13"],
                         ids=["arabic-indic-4", "underscore", "fullwidth-3"])
def test_text_ids_follow_the_one_integer_rule(token, tmp_path, capsys):
    # int() takes all three; the readers take ASCII digits with a sign only
    for reader, text in [(parse_set_system, f"1 {token}\n1\n"),
                         (parse_set_system, f"1 4\n1 {token}\n"),
                         (parse_matroid, f"ground 4 1\n{token}\n"),
                         (parse_multigraph, f"vertices 5\n1 0 {token}\n"),
                         (parse_faces, f"{token}\n")]:
        with pytest.raises(FormatError, match="expected integer"):
            reader(text)
    (tmp_path / "s.txt").write_text(f"1 4\n1 {token}\n")
    assert main(["verify", str(tmp_path / "s.txt")]) == 2
    assert capsys.readouterr().err.startswith("error: line 2: expected integer element ids")
    assert parse_set_system("1 4\n+1 4\n").sets == (frozenset({1, 4}),)


@pytest.mark.parametrize("value", ["1.9", '"1_0"', '"\\u0663"'],
                         ids=["float", "underscore", "arabic-indic-3"])
def test_json_ids_follow_the_one_integer_rule(value):
    with pytest.raises(FormatError, match="expected an integer element id"):
        parse_set_system_json(f'{{"sets": [[{value}]]}}')
    if value.startswith('"'):
        with pytest.raises(FormatError, match="expected an integer element id"):
            parse_set_system_json(f'{{"sets": [[1]], "weights": {{{value}: 1}}}}')
    system = parse_set_system_json('{"sets": [[1, "2", "+3"]], "weights": {"3": 5}}')
    assert system.sets == (frozenset({1, 2, 3}),) and system.weight(3) == 5


@pytest.mark.parametrize("reader, text, message", [
    (parse_set_system, "# only a comment\n\n", "empty input"),
    (parse_set_system, "2 4 1\n", "line 1: expected 'k m' header"),
    (parse_set_system, "# c\nk m\n", "line 2: expected integer headers, got ['k', 'm']"),
    (parse_matroid, "", "empty input"),
    (parse_matroid, "grund 4 2\n1 2\n", "line 1: expected 'ground n r' header"),
    (parse_matroid, "ground 4\n", "line 1: expected 'ground n r' header"),
    (parse_matroid, "ground 4 x\n", "line 1: expected integer headers, got ['4', 'x']"),
    (parse_multigraph, "\n", "empty input"),
    (parse_multigraph, "vertex 3\n1 0 1\n", "line 1: expected 'vertices N' header"),
    (parse_multigraph, "vertices 3 4\n", "line 1: expected 'vertices N' header"),
    (parse_multigraph, "vertices three\n", "line 1: expected integer headers, got ['three']"),
])
def test_each_reader_names_its_header_form(reader, text, message):
    with pytest.raises(FormatError) as caught:
        reader(text)
    assert str(caught.value) == message


def test_parse_matroid():
    text = "ground 4 2\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n"
    matroid = parse_matroid(text)
    assert len(matroid.bases) == 6
    assert matroid.rank_value == 2
    with pytest.raises(FormatError):
        parse_matroid("ground 4 2\n1 9\n")
    with pytest.raises(FormatError):
        parse_matroid("ground 4 2\n1 2 3\n")
    with pytest.raises(FormatError):
        parse_matroid("ground 4 2\n")
    with pytest.raises(ValueError):
        parse_matroid("ground 4 2\n1 2\n3 4\n")   # exchange fails


def test_parse_multigraph():
    graph = parse_multigraph("vertices 3\n1 0 1\n2 0 2\n3 1 2\n")
    assert graph.n_vertices == 3
    assert len(graph.edges) == 3
    with pytest.raises(FormatError):
        parse_multigraph("vertices 3\n1 0\n")
    with pytest.raises(FormatError):
        parse_multigraph("nope\n")


def test_parse_faces():
    assert parse_faces("1 2 3\n3 4 5\n") == [frozenset({1, 2, 3}),
                                             frozenset({3, 4, 5})]


def test_formatting_helpers():
    assert format_set({3, 1}) == "{1,3}"
    assert format_set(set()) == "{}"
    assert format_function((0, 1)) == "(0, 1)"
    assert format_function((2,)) == "(2)"


def test_render_pairing_table_columns():
    pairs = [((0, 0), frozenset({1, 3}))]
    text = render_pairing_table(pairs, 2, set_names=["E1", "E2"],
                                ground=frozenset({1, 2, 3, 4}))
    lines = text.splitlines()
    assert "E1" in lines[0] and "sigma(f)" in lines[0] and "E-sigma(f)" in lines[0]
    assert lines[1].startswith("f1")
    assert "{1,3}" in lines[1] and "{2,4}" in lines[1]
