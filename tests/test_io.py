import hashlib
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelkit import (
    c7_counterexample,
    generate_comparability_instance,
    generate_path_instance,
    generate_ssw_instance,
)
from kernelkit.digraph import (
    ArcColor,
    ColoredDigraph,
    Digraph,
    EdgeDirection,
    Orientation,
    UndirectedGraph,
)
from kernelkit.errors import GraphParseError
from kernelkit import io
from strategies import colored_digraphs, digraphs, orientations, undirected_graphs


class TestParseExamples:
    def test_three_cycle(self):
        d = io.parse("digraph 3\n0 1\n1 2\n2 0\n")
        assert d.arcs == frozenset({(0, 1), (1, 2), (2, 0)})

    def test_colored_opposite_arcs(self):
        cd = io.parse("cdigraph 2\n0 1 b\n1 0 r\n")
        assert cd.color[(0, 1)].value == "b"
        assert cd.color[(1, 0)].value == "r"

    def test_comments_and_blank_lines(self):
        d = io.parse("# a remark\ndigraph 2\n\n0 1  # trailing\n")
        assert d.arcs == frozenset({(0, 1)})

    def test_orientation(self):
        o = io.parse("orientation 3\n0 1 fwd\n1 2 both\n")
        assert o.assignment[(1, 2)] is EdgeDirection.BOTH
        assert not o.is_simple


class TestParseErrors:
    @pytest.mark.parametrize(
        "text,line,fragment",
        [
            ("digraph x\n", 1, "not an integer"),
            ("digraph -1\n", 1, "negative"),
            ("digraph 2 1\n", 1, "malformed header"),
            ("wat 3\n", 1, "unknown kind"),
            ("digraph 2\n0\n", 2, "expected"),
            ("digraph 2\n0 1 b\n", 2, "expected"),
            ("digraph 2\n0 x\n", 2, "not an integer"),
            ("digraph 2\n0 2\n", 2, "outside"),
            ("digraph 2\n1 1\n", 2, "loop"),
            ("digraph 2\n0 1\n0 1\n", 3, "duplicate"),
            ("cdigraph 2\n0 1\n", 2, "missing color"),
            ("cdigraph 2\n0 1 b r\n", 2, "expected"),
            ("cdigraph 2\nx 1 b\n", 2, "not an integer"),
            ("cdigraph 2\n0 1 b\n-1 0 r\n", 3, "outside"),
            ("cdigraph 2\n0 0 b\n", 2, "loop"),
            ("cdigraph 2\n0 1 b\n1 0 b\n0 1 r\n", 4, "duplicate arc (0, 1)"),
            ("cdigraph 2\n0 1 g\n", 2, "unknown color"),
            ("graph 3\n0\n", 2, "expected"),
            ("graph 3\n0 1 2\n", 2, "expected"),
            ("graph 3\n0 y\n", 2, "not an integer"),
            ("graph 3\n0 3\n", 2, "outside"),
            ("graph 3\n2 2\n", 2, "self-edge"),
            ("graph 3\n# fine\n0 1\n1 0\n", 4, "duplicate"),
            ("graph 3\n0 2\n1 2\n2 0\n", 4, "duplicate edge (0, 2)"),
            ("orientation 3\n0 1\n", 2, "'0 1'"),
            ("orientation 3\n0 1 fwd bwd\n", 2, "expected"),
            ("orientation 3\n0 z fwd\n", 2, "not an integer"),
            ("orientation 3\n0 3 fwd\n", 2, "outside"),
            ("orientation 3\n1 0 fwd\n", 2, "u < v"),
            ("orientation 3\n1 1 fwd\n", 2, "u < v"),
            ("orientation 3\n0 1 fwd\n0 1 bwd\n", 3, "duplicate edge (0, 1)"),
            ("orientation 3\n0 1 sideways\n", 2, "unknown direction"),
        ],
    )
    def test_error_names_line(self, text, line, fragment):
        with pytest.raises(GraphParseError) as err:
            io.parse(text)
        assert err.value.line == line
        assert fragment in str(err.value)

    def test_empty_input(self):
        with pytest.raises(GraphParseError, match="empty"):
            io.parse("")

    def test_json_needs_kind(self):
        with pytest.raises(GraphParseError, match="kind"):
            io.parse_json("{}")


class TestJsonParseErrors:
    """The JSON twin of the text errors for `cdigraph` rows: every one is
    refused by the colored digraph's single construction pass."""

    @pytest.mark.parametrize(
        "rows",
        [
            [[0, 2, "b"]],
            [[-1, 0, "b"]],
            [[1, 1, "r"]],
            [[0, 1, "b"], [1, 0, "r"], [0, 1, "r"]],
            [[0, 1, "g"]],
            [[0, 1, ["b"]]],
            [[True, 0, "b"]],
            [[0, 1.0, "r"]],
            [[0, 1]],
            [[0, 1, "b", 7]],
            [5],
            [None],
            None,
        ],
        ids=[
            "out-of-range", "negative", "loop", "duplicate", "unknown-color",
            "unhashable-color", "true-vertex", "float-vertex", "two-wide",
            "four-wide", "non-list-row", "null-row", "null-rows",
        ],
    )
    def test_bad_row_is_a_parse_error(self, rows):
        document = json.dumps({"kind": "cdigraph", "vertex_count": 2, "arcs": rows})
        with pytest.raises(GraphParseError, match="bad 'cdigraph' JSON object"):
            io.parse_json(document)


# (kind, vertex count, rows of which the last is bad, whether both
# formats hand it to the builder, so that they report the same message)
BAD_ROWS = [
    ("digraph", 2, [[0, 2]], True),
    ("digraph", 2, [[-1, 0]], True),
    ("digraph", 2, [[1, 1]], True),
    ("digraph", 2, [[0, 1], [1, 0], [0, 1]], True),
    ("digraph", 2, [[0]], False),
    ("digraph", 2, [[0, 1, "b"]], False),
    ("cdigraph", 2, [[0, 2, "b"]], True),
    ("cdigraph", 2, [[0, 0, "r"]], True),
    ("cdigraph", 2, [[0, 1, "b"], [0, 1, "r"]], True),
    ("cdigraph", 2, [[0, 1, "g"]], False),
    ("cdigraph", 2, [[0, 1]], False),
    ("graph", 3, [[0, 3]], True),
    ("graph", 3, [[2, 2]], True),
    ("graph", 3, [[0, 2], [1, 2], [2, 0]], True),
    ("graph", 3, [[0, 1, 2]], False),
    ("orientation", 3, [[0, 3, "fwd"]], True),
    ("orientation", 3, [[1, 0, "fwd"]], True),
    ("orientation", 3, [[1, 1, "both"]], True),
    ("orientation", 3, [[0, 1, "fwd"], [0, 1, "bwd"]], True),
    ("orientation", 3, [[0, 1, "sideways"]], False),
    ("orientation", 3, [[0, 1]], False),
]


class TestBadRowsInBothFormats:
    """A bad row is refused in text and in JSON; the text error names the
    row's line, and where both formats reach the builder, the message is
    the builder's own in both."""

    @pytest.mark.parametrize(
        "kind, n, rows, same_message", BAD_ROWS, ids=[f"{k}-{r}" for k, _, r, _ in BAD_ROWS]
    )
    def test_refused_in_both(self, kind, n, rows, same_message):
        field = "arcs" if "digraph" in kind else "edges"
        text = "\n".join([f"# bad {kind}", f"{kind} {n}"] + [" ".join(map(str, r)) for r in rows])
        with pytest.raises(GraphParseError) as text_err:
            io.parse(text + "\n")
        with pytest.raises(GraphParseError, match=f"bad '{kind}' JSON object") as json_err:
            io.parse_json(json.dumps({"kind": kind, "vertex_count": n, field: rows}))
        assert text_err.value.line == len(rows) + 2
        if same_message:
            message = str(text_err.value).removeprefix(f"line {len(rows) + 2}: ")
            assert str(json_err.value).endswith(f": {message}")

    @pytest.mark.parametrize("row", [["a", 1, "fwd"], [0, True, "fwd"], [0, 1.0, "bwd"]])
    def test_orientation_vertex_must_be_an_integer(self, row):
        # JSON only: the u < v test leaves a non-integer to the base graph
        document = json.dumps({"kind": "orientation", "vertex_count": 3, "edges": [row]})
        with pytest.raises(GraphParseError, match="not an integer"):
            io.parse_json(document)


def _masks(n, arcs):
    d = Digraph(n, arcs)
    return d._out, d._in


class TestColoredLoader:
    @settings(max_examples=80, deadline=None)
    @given(colored_digraphs())
    def test_json_round_trip_fills_every_mask(self, cd):
        back = io.from_json_obj(io.to_json_obj(cd))
        assert back == cd
        n = cd.vertex_count
        assert (back.digraph._out, back.digraph._in) == _masks(n, cd.digraph.arcs)
        blue = [a for a, c in cd.color.items() if c is ArcColor.BLUE]
        red = [a for a, c in cd.color.items() if c is ArcColor.RED]
        assert (back._blue_out, back._blue_in) == _masks(n, blue)
        assert (back._red_out, back._red_in) == _masks(n, red)

    @settings(max_examples=80, deadline=None)
    @given(colored_digraphs(), st.sampled_from(list(ArcColor)))
    def test_restriction_matches_a_validated_digraph(self, cd, color):
        reference = Digraph(cd.vertex_count, [a for a, c in cd.color.items() if c is color])
        kept = cd.restriction(color)
        assert kept == reference
        assert (kept._out, kept._in) == (reference._out, reference._in)


class TestIndentedJson:
    """`indented_json` writes the bytes of `json.dumps(payload, indent=2)`."""

    @settings(max_examples=120, deadline=None)
    @given(
        st.one_of(digraphs(), colored_digraphs(), undirected_graphs(), orientations()),
        st.one_of(st.none(), st.integers(-5, 10**6)),
    )
    def test_same_text_as_the_pure_python_encoder(self, obj, seed):
        payload = io.to_json_obj(obj)
        if seed is not None:
            payload["seed"] = seed
        assert io.indented_json(payload) == json.dumps(payload, indent=2) + "\n"

    @pytest.mark.parametrize("obj", [Digraph(0), ColoredDigraph.from_colored_arcs(3, [])])
    def test_zero_rows(self, obj):
        payload = io.to_json_obj(obj)
        assert io.indented_json(payload) == json.dumps(payload, indent=2) + "\n"


def _golden_digraph():
    return Digraph(4, [(0, 1), (1, 2), (2, 0), (1, 0)])


def _golden_cdigraph():
    return ColoredDigraph.from_colored_arcs(4, [(0, 1, "b"), (1, 0, "r"), (2, 1, "r")])


def _golden_graph():
    return UndirectedGraph(4, [(0, 1), (1, 2), (2, 0)])


def _golden_orientation():
    base = UndirectedGraph(4, [(0, 1), (0, 2), (1, 2)])
    return Orientation(
        base,
        {
            (0, 1): EdgeDirection.FORWARD,
            (0, 2): EdgeDirection.BACKWARD,
            (1, 2): EdgeDirection.BOTH,
        },
    )


# One small object per kind, vertex 3 isolated in each: the exact text,
# JSON and DOT renderings.
GOLDEN = [
    (
        _golden_digraph,
        "digraph 4\n0 1\n1 0\n1 2\n2 0\n",
        '{"kind": "digraph", "vertex_count": 4, "arcs": [[0, 1], [1, 0], [1, 2], [2, 0]]}\n',
        "digraph G {\n  0;\n  1;\n  2;\n  3;\n"
        "  0 -> 1;\n  1 -> 0;\n  1 -> 2;\n  2 -> 0;\n}\n",
    ),
    (
        _golden_cdigraph,
        "cdigraph 4\n0 1 b\n1 0 r\n2 1 r\n",
        '{"kind": "cdigraph", "vertex_count": 4, '
        '"arcs": [[0, 1, "b"], [1, 0, "r"], [2, 1, "r"]]}\n',
        "digraph G {\n  0;\n  1;\n  2;\n  3;\n"
        "  0 -> 1 [color=blue];\n  1 -> 0 [color=red];\n  2 -> 1 [color=red];\n}\n",
    ),
    (
        _golden_graph,
        "graph 4\n0 1\n0 2\n1 2\n",
        '{"kind": "graph", "vertex_count": 4, "edges": [[0, 1], [0, 2], [1, 2]]}\n',
        "graph G {\n  0;\n  1;\n  2;\n  3;\n  0 -- 1;\n  0 -- 2;\n  1 -- 2;\n}\n",
    ),
    (
        _golden_orientation,
        "orientation 4\n0 1 fwd\n0 2 bwd\n1 2 both\n",
        '{"kind": "orientation", "vertex_count": 4, '
        '"edges": [[0, 1, "fwd"], [0, 2, "bwd"], [1, 2, "both"]]}\n',
        "digraph G {\n  0;\n  1;\n  2;\n  3;\n"
        "  0 -> 1;\n  2 -> 0;\n  1 -> 2 [dir=both];\n}\n",
    ),
]


class TestGoldenFormats:
    @pytest.mark.parametrize("build,text,json_text,dot", GOLDEN)
    def test_exact_renderings(self, build, text, json_text, dot):
        obj = build()
        assert io.serialize(obj) == text
        assert io.serialize_json(obj) == json_text
        assert io.to_dot(obj) == dot

    @pytest.mark.parametrize("build,text,json_text,dot", GOLDEN)
    def test_both_formats_parse_back(self, build, text, json_text, dot):
        assert io.parse(text) == build()
        assert io.parse_json(json_text) == build()


# the golden objects, then one arc-free object per kind
ROW_OBJECTS = [build for build, *_ in GOLDEN] + [
    lambda: Digraph(3),
    lambda: ColoredDigraph.from_colored_arcs(3, []),
    lambda: UndirectedGraph(3),
    lambda: Orientation(UndirectedGraph(3), {}),
]


class TestTupleRows:
    """`to_json_obj` rows are tuples; json writes them as arrays, so the
    bytes are those of list rows."""

    @pytest.mark.parametrize("seed", [None, 7])
    @pytest.mark.parametrize("build", ROW_OBJECTS)
    def test_rows_are_tuples_and_write_the_same_json(self, build, seed):
        obj = build()
        payload = io.to_json_obj(obj)
        rows = payload[io._KINDS[payload["kind"]][0]]
        assert all(type(row) is tuple for row in rows)
        assert io.from_json_obj(payload) == obj
        if seed is not None:
            payload["seed"] = seed
        text = io.indented_json(payload)
        assert text == json.dumps(payload, indent=2) + "\n"
        assert io.from_json_obj(json.loads(text)) == obj

    @pytest.mark.parametrize("build", ROW_OBJECTS[len(GOLDEN):])
    def test_arc_free_text_and_dot(self, build):
        obj = build()
        kind = io.to_json_obj(obj)["kind"]
        assert io.serialize(obj) == f"{kind} 3\n"
        header = "graph G {" if kind == "graph" else "digraph G {"
        assert io.to_dot(obj) == header + "\n  0;\n  1;\n  2;\n}\n"


def _seeded_rows(seed, n, columns=()):
    """Shuffled rows over n vertices, each unordered pair at most once in
    each direction; `columns` seeds a random third column."""
    rng = random.Random(seed)
    rows = [
        (u, v, rng.choice(columns)) if columns else (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < 0.4
    ]
    rng.shuffle(rows)
    return rows


def _seeded_instances():
    """name -> builder of the objects whose renderings are pinned in
    golden/io_digests.json."""
    out = {
        "ssw-200": lambda: generate_ssw_instance(0, 200),
        "comparability-60": lambda: generate_comparability_instance(0, 60),
        "path-80": lambda: generate_path_instance(0, 80),
        "ssw-200-blue": lambda: generate_ssw_instance(0, 200).restriction(ArcColor.BLUE),
        "path-80-red": lambda: generate_path_instance(0, 80).restriction(ArcColor.RED),
        "directed-path-400": lambda: Digraph(400, [(i, i + 1) for i in range(399)]),
        "empty-digraph": lambda: Digraph(0),
        "empty-cdigraph": lambda: ColoredDigraph.from_colored_arcs(3, []),
    }
    for seed in range(3):
        n = 6 + 2 * seed
        out[f"digraph-{seed}"] = lambda s=seed, n=n: Digraph(n, _seeded_rows(s, n))
        out[f"induced-{seed}"] = lambda s=seed, n=n: Digraph(n, _seeded_rows(s, n)).induced(
            range(1, n, 2)
        )[0]
        out[f"cdigraph-{seed}"] = lambda s=seed, n=n: ColoredDigraph.from_colored_arcs(
            n, _seeded_rows(s, n, ("b", "r", ArcColor.BLUE, ArcColor.RED))
        )
        out[f"cdigraph-dict-{seed}"] = lambda s=seed, n=n: ColoredDigraph(
            Digraph(n, [(u, v) for u, v, _ in _seeded_rows(s, n, "br")]),
            {(u, v): c for u, v, c in _seeded_rows(s, n, "br")},
        )
        out[f"graph-{seed}"] = lambda s=seed, n=n: UndirectedGraph(
            n, [(u, v) for u, v in _seeded_rows(s, n) if u < v]
        )
        out[f"orientation-{seed}"] = lambda s=seed, n=n: io.parse(
            f"orientation {n}\n"
            + "".join(f"{u} {v} {d}\n" for u, v, d in _seeded_rows(s, n, ("fwd", "bwd", "both")) if u < v)
        )
    return out


def _rendering_digests(obj):
    return {
        "text": hashlib.sha256(io.serialize(obj).encode()).hexdigest(),
        "json": hashlib.sha256(io.indented_json(io.to_json_obj(obj)).encode()).hexdigest(),
        "dot": hashlib.sha256(io.to_dot(obj).encode()).hexdigest(),
    }


IO_DIGESTS = json.loads(
    (Path(__file__).resolve().parent / "golden" / "io_digests.json").read_text()
)


class TestRenderingGolden:
    """Text, indented JSON and DOT bytes of the benchmark's large
    instances and of seeded small objects of every kind, pinned as
    SHA-256 digests taken before the graph types dropped their stored
    arc set and colour dict."""

    @pytest.mark.parametrize("name", sorted(_seeded_instances()))
    def test_rendering_bytes(self, name):
        assert _rendering_digests(_seeded_instances()[name]()) == IO_DIGESTS[name]


class TestRoundTrips:
    @settings(max_examples=80, deadline=None)
    @given(digraphs())
    def test_digraph_text(self, d):
        assert io.parse(io.serialize(d)) == d

    @settings(max_examples=80, deadline=None)
    @given(colored_digraphs())
    def test_colored_text(self, cd):
        assert io.parse(io.serialize(cd)) == cd

    @settings(max_examples=80, deadline=None)
    @given(undirected_graphs())
    def test_graph_text(self, g):
        assert io.parse(io.serialize(g)) == g

    @settings(max_examples=60, deadline=None)
    @given(undirected_graphs(), st.randoms(use_true_random=False))
    def test_orientation_text(self, g, rng):
        assignment = {
            e: rng.choice(list(EdgeDirection)) for e in g.sorted_edges()
        }
        o = Orientation(g, assignment)
        assert io.parse(io.serialize(o)) == o

    @settings(max_examples=60, deadline=None)
    @given(colored_digraphs())
    def test_json_mirror(self, cd):
        assert io.parse_json(io.serialize_json(cd)) == cd

    def test_counterexample_roundtrip_arcset(self):
        d = c7_counterexample()
        assert io.parse(io.serialize(d)).arcs == d.arcs
        assert io.parse_json(io.serialize_json(d)).arcs == d.arcs

    def test_load_auto_sniffs(self):
        d = c7_counterexample()
        assert io.load_auto(io.serialize(d)) == d
        assert io.load_auto(io.serialize_json(d)) == d


class TestDot:
    def test_digraph_dot_mentions_arcs(self):
        text = io.to_dot(io.parse("digraph 2\n0 1\n"))
        assert "0 -> 1;" in text

    def test_orientation_dot_marks_reversible(self):
        text = io.to_dot(io.parse("orientation 2\n0 1 both\n"))
        assert "dir=both" in text
