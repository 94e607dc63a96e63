"""Text and JSON (de)serialization for the graph types.

Text formats are line oriented: a header `<kind> <n>` followed by one item
per line, `#` starting a comment anywhere.  Kinds: `digraph` with `<u> <v>`
arcs, `cdigraph` with `<u> <v> <b|r>` colored arcs, `graph` with unordered
`<u> <v>` edges, and `orientation` with `<u> <v> <fwd|bwd|both>` rows where
u < v and the base graph is implied by the listed edges.

JSON mirrors use the same field names under a `kind` discriminator, and
each row holds exactly the fields of its text line.  Parsing and
serialization round-trip exactly.  The text reader checks only syntax;
the values of a row, text or JSON, are checked by the graph type's own
constructor, and a refused text row is reported at its line.
"""

from __future__ import annotations

import json
from itertools import chain

from .digraph import (
    ArcColor,
    ColoredDigraph,
    Digraph,
    EdgeDirection,
    Orientation,
    UndirectedGraph,
)
from .errors import BoundsError, GraphParseError

__all__ = [
    "parse",
    "parse_json",
    "serialize",
    "serialize_json",
    "indented_json",
    "to_json_obj",
    "from_json_obj",
    "to_dot",
]


def _orientation(n: int, rows) -> Orientation:
    # one pass: each row is checked for u < v before the base graph checks
    # it; a non-integer vertex is left to the base graph to refuse
    assignment = {}

    def edges():
        for u, v, d in rows:
            if type(u) is int and type(v) is int and u >= v:
                raise ValueError(f"edge endpoints must satisfy u < v, got ({u}, {v})")
            assignment[(u, v)] = d
            yield u, v

    return Orientation(UndirectedGraph(n, edges()), assignment)


# kind -> (row field, name and token-to-member table of the optional
# third column, builder taking the vertex count and the rows).  The
# builder's constructor is the one check of a row's values, for text and
# JSON alike; text rows reach it one line at a time, so that a refused row
# is reported at its line.  A table lookup costs a fraction of the enum
# call `ArcColor(token)`.
_KINDS = {
    "digraph": ("arcs", None, None, Digraph),
    "cdigraph": (
        "arcs", "color", {c.value: c for c in ArcColor}, ColoredDigraph.from_colored_arcs
    ),
    "graph": ("edges", None, None, UndirectedGraph),
    "orientation": ("edges", "direction", {d.value: d for d in EdgeDirection}, _orientation),
}


def _content_lines(text: str):
    """Yield (line_number, tokens) for non-blank, non-comment lines."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        body = raw.split("#", 1)[0].strip()
        if body:
            yield lineno, body.split()


def _parse_header(lines):
    try:
        lineno, tokens = next(lines)
    except StopIteration:
        raise GraphParseError("empty input, expected a header line") from None
    if len(tokens) != 2:
        raise GraphParseError(f"malformed header {' '.join(tokens)!r}", lineno)
    kind, count = tokens
    if kind not in _KINDS:
        raise GraphParseError(f"unknown kind {kind!r}", lineno)
    try:
        n = int(count)
    except ValueError:
        raise GraphParseError(f"vertex count {count!r} is not an integer", lineno) from None
    if n < 0:
        raise GraphParseError(f"vertex count {n} is negative", lineno)
    return kind, n


def _parse_vertex(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise GraphParseError(f"vertex {token!r} is not an integer", lineno) from None


def parse(text: str):
    """Parse any of the four text formats, dispatching on the header kind.
    Only the syntax is checked here; the kind's builder checks each row's
    values as it arrives, and a row it refuses is reported at its line."""
    lines = _content_lines(text)
    kind, n = _parse_header(lines)
    field, column, decoder, build = _KINDS[kind]
    noun = field[:-1]
    width = 2 if decoder is None else 3
    syntax = "<u> <v>"
    if decoder is not None:
        syntax += f" <{'|'.join(decoder)}>"
    lineno = None

    def rows():
        nonlocal lineno
        for lineno, tokens in lines:
            if len(tokens) != width:
                if len(tokens) == 2:
                    raise GraphParseError(f"missing {column} on {noun} {' '.join(tokens)!r}", lineno)
                raise GraphParseError(f"expected {syntax!r}, got {' '.join(tokens)!r}", lineno)
            u = _parse_vertex(tokens[0], lineno)
            v = _parse_vertex(tokens[1], lineno)
            if decoder is None:
                yield u, v
                continue
            third = decoder.get(tokens[2])
            if third is None:
                raise GraphParseError(f"unknown {column} {tokens[2]!r}", lineno)
            yield u, v, third

    try:
        return build(n, rows())
    except GraphParseError:
        raise
    except (ValueError, BoundsError) as exc:
        raise GraphParseError(str(exc), lineno) from None


def from_json_obj(data: dict):
    if not isinstance(data, dict) or "kind" not in data:
        raise GraphParseError("JSON object must carry a 'kind' field")
    kind = data["kind"]
    if not isinstance(kind, str) or kind not in _KINDS:
        raise GraphParseError(f"unknown kind {kind!r}")
    field, _, _, build = _KINDS[kind]
    try:
        n = data["vertex_count"]
        if type(n) is not int:
            raise TypeError(f"vertex_count {json.dumps(n)} is not an integer")
        # the builder refuses rows of the wrong width or with non-integer vertices
        return build(n, data.get(field, []))
    except (KeyError, IndexError, TypeError, ValueError, BoundsError) as exc:
        raise GraphParseError(f"bad {kind!r} JSON object: {exc}") from None


def parse_json(text: str):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphParseError(f"invalid JSON: {exc}") from None
    return from_json_obj(data)


def load_auto(text: str):
    """Parse either format, sniffing JSON by its leading brace."""
    if text.lstrip().startswith("{"):
        return parse_json(text)
    return parse(text)


# -- serialization -------------------------------------------------------


def _rows(obj):
    """(kind, vertex count, rows in file order) of a graph object; a row
    is a tuple (u, v) or (u, v, third-column value).  Tuples of ints are
    untracked by the cyclic collector after one pass, where lists stay
    tracked."""
    if isinstance(obj, ColoredDigraph):
        blue, b, r = obj._blue_out, ArcColor.BLUE.value, ArcColor.RED.value
        rows = []
        append = rows.append
        for u, m in enumerate(obj.digraph._out):
            blue_u = blue[u]
            while m:
                low = m & -m
                append((u, low.bit_length() - 1, b if blue_u & low else r))
                m ^= low
        return "cdigraph", obj.vertex_count, rows
    if isinstance(obj, Digraph):
        rows = []
        append = rows.append
        for u, m in enumerate(obj._out):
            while m:
                low = m & -m
                append((u, low.bit_length() - 1))
                m ^= low
        return "digraph", obj.vertex_count, rows
    if isinstance(obj, Orientation):
        rows = [(u, v, obj.assignment[(u, v)].value) for u, v in obj.base.sorted_edges()]
        return "orientation", obj.base.vertex_count, rows
    if isinstance(obj, UndirectedGraph):
        return "graph", obj.vertex_count, obj.sorted_edges()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def serialize(obj) -> str:
    kind, n, rows = _rows(obj)
    return "\n".join([f"{kind} {n}"] + [" ".join(map(str, row)) for row in rows]) + "\n"


def to_json_obj(obj) -> dict:
    """`{"kind", "vertex_count", "arcs" or "edges"}` of a graph object; each
    row is a tuple, which `json` writes as an array."""
    kind, n, rows = _rows(obj)
    return {"kind": kind, "vertex_count": n, _KINDS[kind][0]: rows}


def serialize_json(obj) -> str:
    return json.dumps(to_json_obj(obj)) + "\n"


# one row as `json.dumps(..., indent=2)` lays it out, by row width
_INDENTED_ROWS = {
    2: "    [\n      %d,\n      %d\n    ]",
    3: '    [\n      %d,\n      %d,\n      "%s"\n    ]',
}


def indented_json(payload: dict) -> str:
    """`json.dumps(payload, indent=2) + "\n"` for a `to_json_obj` payload,
    which may carry extra scalar fields.  `indent` turns off json's C
    encoder, so the rows go through one %-template instead."""
    field = _KINDS[payload["kind"]][0]
    rows = payload[field]
    if not rows:
        return json.dumps(payload, indent=2) + "\n"
    marker = f'"{field}": []'
    head, _, tail = json.dumps({**payload, field: []}, indent=2).partition(marker)
    template = ",\n".join([_INDENTED_ROWS[len(rows[0])]] * len(rows))
    body = template % tuple(chain.from_iterable(rows))
    return f'{head}"{field}": [\n{body}\n  ]{tail}\n'


# DOT line of a row, keyed by its third column or, for two-column rows,
# by the kind
_DOT_ARCS = {
    "digraph": "{u} -> {v};",
    "graph": "{u} -- {v};",
    "b": "{u} -> {v} [color=blue];",
    "r": "{u} -> {v} [color=red];",
    "fwd": "{u} -> {v};",
    "bwd": "{v} -> {u};",
    "both": "{u} -> {v} [dir=both];",
}


def to_dot(obj) -> str:
    """DOT text for external rendering; colors and reversibility shown."""
    kind, n, rows = _rows(obj)
    lines = ["graph G {" if kind == "graph" else "digraph G {"]
    lines += [f"  {v};" for v in range(n)]
    for row in rows:
        template = _DOT_ARCS[row[2] if len(row) == 3 else kind]
        lines.append("  " + template.format(u=row[0], v=row[1]))
    lines.append("}")
    return "\n".join(lines) + "\n"
