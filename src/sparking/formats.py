"""Text and JSON formats for set systems, matroids, graphs and tables.

Set-system text: first line ``k m`` (family size, ids 1..m), an optional
line ``weights w_1 .. w_m`` (else the ids that appear weigh themselves),
then k lines of ids.  JSON: ``{"sets": [[...], ...], "weights": {"id": w}}``.
Matroid text: ``ground n r`` then one basis per line.  Graph text:
``vertices N`` then ``id u v`` per line.  Faces: one edge-id line per
face.  Blank lines and ``#`` comments are skipped everywhere.
"""

import json
import sys
from fractions import Fraction

from .graphs import Multigraph
from .matroids import Matroid
from .systems import SetSystem, Universe


class FormatError(ValueError):
    """Malformed input file; carries the offending 1-based line number."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


def _content_lines(text):
    out = []
    for number, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            out.append((number, stripped))
    return out


def _ints(tokens, line, what="value"):
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise FormatError(f"expected integer {what}s, got {tokens!r}", line) from None


def _exact(token):
    """``Fraction(token)``, refusing an exponent beyond the int digit limit."""
    _, e, exponent = token.lower().partition("e")
    limit = sys.get_int_max_str_digits()
    if e and limit and abs(int(exponent)) > limit:
        raise ValueError(f"exponent beyond {limit} digits")
    return Fraction(token)


def _fraction(token, line):
    try:
        return _exact(token)
    except (ValueError, ZeroDivisionError):
        raise FormatError(f"bad weight {token!r}", line) from None


def parse_set_system(text):
    lines = _content_lines(text)
    if not lines:
        raise FormatError("empty input")
    line, head = lines[0]
    tokens = head.split()
    if len(tokens) != 2:
        raise FormatError("expected 'k m' header", line)
    k, m = _ints(tokens, line, "header")
    if k < 0 or m < 0:
        raise FormatError("k and m must be non-negative", line)
    body = lines[1:]
    universe = None
    if body and body[0][1].split()[0] == "weights":
        wline, wtext = body[0]
        wtokens = wtext.split()[1:]
        if len(wtokens) != m:
            raise FormatError(f"expected {m} weights, got {len(wtokens)}", wline)
        weights = {e: _fraction(t, wline) for e, t in enumerate(wtokens, start=1)}
        try:
            universe = Universe(weights)
        except ValueError as exc:
            raise FormatError(str(exc), wline) from exc
        body = body[1:]
    if len(body) != k:
        raise FormatError(f"expected {k} set lines, found {len(body)}",
                          body[k][0] if len(body) > k else line)
    sets = []
    for line, content in body:
        ids = _ints(content.split(), line, "element id")
        bad = [e for e in ids if not 1 <= e <= m]
        if bad:
            raise FormatError(f"element ids {bad} outside 1..{m}", line)
        sets.append(frozenset(ids))
    return SetSystem(sets, universe)


def _json_int(value, what):
    """An integer field of the JSON format; bools are not integers."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise FormatError(f"expected an integer {what}, got {value!r}") from None


def _json_weight(value):
    try:
        if isinstance(value, bool):
            raise TypeError
        return _exact(str(value)) if isinstance(value, (float, str)) else Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError):
        raise FormatError(f"bad weight {value!r}") from None


def parse_set_system_json(text):
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"bad JSON: {exc}") from exc
    if not isinstance(obj, dict) or "sets" not in obj:
        raise FormatError("expected an object with a 'sets' key")
    if not (isinstance(obj["sets"], list) and all(isinstance(s, list) for s in obj["sets"])):
        raise FormatError("'sets' must be a list of element-id lists")
    sets = [frozenset(_json_int(e, "element id") for e in s) for s in obj["sets"]]
    covered = {e for s in sets for e in s}
    raw = obj.get("weights")
    if raw is not None and not isinstance(raw, dict):
        raise FormatError("'weights' must be an object from element ids to weights")
    weights = {e: Fraction(e) for e in covered}
    if raw is not None:
        weights.update((_json_int(key, "element id"), _json_weight(value))
                       for key, value in raw.items())
    try:
        return SetSystem(sets, Universe(weights))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def load_set_system(text):
    """Dispatch on the payload: JSON object or the plain text format."""
    if text.lstrip().startswith("{"):
        return parse_set_system_json(text)
    return parse_set_system(text)


def parse_matroid(text):
    lines = _content_lines(text)
    if not lines:
        raise FormatError("empty input")
    line, head = lines[0]
    tokens = head.split()
    if len(tokens) != 3 or tokens[0] != "ground":
        raise FormatError("expected 'ground n r' header", line)
    n, r = _ints(tokens[1:], line, "header")
    bases = []
    for line, content in lines[1:]:
        ids = _ints(content.split(), line, "element id")
        bad = [e for e in ids if not 1 <= e <= n]
        if bad:
            raise FormatError(f"element ids {bad} outside 1..{n}", line)
        if len(set(ids)) != r:
            raise FormatError(f"basis must have {r} distinct elements", line)
        bases.append(frozenset(ids))
    if not bases:
        raise FormatError("matroid needs at least one basis line")
    return Matroid(range(1, n + 1), bases)


def parse_multigraph(text):
    lines = _content_lines(text)
    if not lines:
        raise FormatError("empty input")
    line, head = lines[0]
    tokens = head.split()
    if len(tokens) != 2 or tokens[0] != "vertices":
        raise FormatError("expected 'vertices N' header", line)
    (n_vertices,) = _ints(tokens[1:], line, "header")
    edges = []
    for line, content in lines[1:]:
        parts = _ints(content.split(), line, "edge field")
        if len(parts) != 3:
            raise FormatError("expected 'id u v'", line)
        edges.append(tuple(parts))
    try:
        return Multigraph(n_vertices, edges)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def parse_faces(text):
    return [frozenset(_ints(content.split(), line, "edge id"))
            for line, content in _content_lines(text)]


def format_set(elements):
    return "{" + ",".join(str(e) for e in sorted(elements)) + "}"


def format_function(values):
    return "(" + ", ".join(str(v) for v in values) + ")"


def render_pairing_table(pairs, k, set_names=None, ground=None):
    """Aligned table: one row per function with its per-set values, the
    mapped set, and optionally its complement inside ``ground``."""
    names = list(set_names) if set_names else [f"A{i}" for i in range(1, k + 1)]
    header = [""] + names + ["sigma(f)"] + (["E-sigma(f)"] if ground is not None else [])
    rows = [header]
    for row_number, (values, image) in enumerate(pairs, start=1):
        row = [f"f{row_number}"] + [str(v) for v in values] + [format_set(image)]
        if ground is not None:
            row.append(format_set(ground - image))
        rows.append(row)
    widths = [max(len(row[c]) for row in rows) for c in range(len(header))]
    lines = ["  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip()
             for row in rows]
    return "\n".join(lines) + "\n"
