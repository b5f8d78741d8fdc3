"""Poset file parsing, serialization, and round trips."""

from __future__ import annotations

import json
import random

import pytest

from closurecount import Poset, fileio
from closurecount.errors import ParseError
from closurecount.fileio import build_poset, parse_poset_text, read_poset_file
from closurecount.generators import chain, diamond
from closurecount.poset import MAX_EDGES, MAX_ELEMENTS
from conftest import random_posets, to_edge_text, to_structured

EDGE_TEXT = """\
# a diamond, bottom first
4
0 1
0 2

1 3
2 3
"""

JSON_TEXT = json.dumps({
    "n": 4,
    "edges": [[0, 1], [0, 2], [1, 3], [2, 3]],
    "labels": ["bot", "left", "right", "top"],
})


class TestEdgeText:
    def test_basic(self):
        data = parse_poset_text(EDGE_TEXT)
        assert (data.n, data.fmt, data.labels) == (4, "edges", None)
        assert data.edges == [(0, 1), (0, 2), (1, 3), (2, 3)]
        assert build_poset(data) == diamond(2)

    def test_comments_and_blanks_do_not_shift_line_numbers(self):
        bad = "# c\n\n3\n0 1\n1 zz\n"
        with pytest.raises(ParseError) as exc:
            parse_poset_text(bad)
        assert exc.value.line == 5
        assert "line 5" in str(exc.value)

    def test_comments_start_anywhere_on_a_line(self):
        assert build_poset(parse_poset_text("3 # three\n0 1 # first\n1 2\n")) == chain(3)
        with pytest.raises(ParseError) as exc:
            parse_poset_text("3 # three\n0 1 # first\n1 zz # bad\n")
        assert exc.value.line == 3

    @pytest.mark.parametrize("text,line,needle", [
        ("", None, "no element count"),
        ("#only comments\n", None, "no element count"),
        ("3 4\n", 1, "element count alone"),
        ("x\n", 1, "not an integer"),
        ("-2\n", 1, "nonnegative"),
        ("3\n0 1 2\n", 2, "expected 'u v'"),
        ("3\n0\n", 2, "expected 'u v'"),
        ("3\n0 9\n", 2, "out of range"),
        ("3\n-1 0\n", 2, "out of range"),
    ])
    def test_diagnostics(self, text, line, needle):
        with pytest.raises(ParseError) as exc:
            parse_poset_text(text)
        assert exc.value.line == line
        assert needle in str(exc.value)

    def test_relation_edges_are_reduced(self):
        # 0<2 is implied and must vanish from the cover set
        data = parse_poset_text("3\n0 1\n1 2\n0 2\n")
        assert build_poset(data).covers == frozenset({(0, 1), (1, 2)})

    def test_empty_poset_is_representable(self):
        assert build_poset(parse_poset_text("0\n")).n == 0


class TestStructured:
    def test_basic(self):
        data = parse_poset_text(JSON_TEXT)
        assert (data.n, data.fmt) == (4, "json")
        assert data.labels == ["bot", "left", "right", "top"]
        assert build_poset(data) == diamond(2)

    # labels are checked and kept in the file data; the poset carries none
    def test_labels_length_checked(self):
        with pytest.raises(ParseError, match="array of 2 strings"):
            parse_poset_text('{"n": 2, "edges": [[0, 1]], "labels": ["a", "b", "c"]}')

    def test_labels_roundtrip(self):
        data = parse_poset_text('{"n": 2, "edges": [[0, 1]], "labels": ["lo", "hi"]}')
        assert data.labels == ["lo", "hi"]
        assert build_poset(data) == chain(2)

    def test_equality_ignores_labels(self):
        text = '{"n": 2, "edges": [[0, 1]]%s}'
        labelled = build_poset(parse_poset_text(text % ', "labels": ["x", "y"]'))
        assert labelled == build_poset(parse_poset_text(text % ""))
        assert labelled != Poset(2, [])

    def test_edges_key_is_optional(self):
        p = build_poset(parse_poset_text('{"n": 3}'))
        assert p.covers == frozenset()

    def test_non_object_top_level(self):
        # a top-level array does not sniff as JSON, so hit the parser directly
        from closurecount.fileio import _parse_json
        with pytest.raises(ParseError, match="must be an object"):
            _parse_json("[1, 2]")

    @pytest.mark.parametrize("text,needle", [
        ('{"n": 2, "edges": [[0, 1]',            "invalid JSON"),
        ('{"edges": []}',                         '"n" must be an integer'),
        ('{"n": true}',                           '"n" must be an integer'),
        ('{"n": -1}',                             "nonnegative"),
        ('{"n": 2, "edges": 5}',                  '"edges" must be an array'),
        ('{"n": 2, "edges": [[0]]}',              "edge #0"),
        ('{"n": 2, "edges": [[0, true]]}',        "edge #0"),
        ('{"n": 2, "edges": [[0, 5]]}',           "out of range"),
        ('{"n": 2, "labels": ["a"]}',             "array of 2 strings"),
        ('{"n": 2, "labels": ["a", 3]}',          "array of 2 strings"),
    ])
    def test_diagnostics(self, text, needle):
        with pytest.raises(ParseError) as exc:
            parse_poset_text(text)
        assert needle in str(exc.value)

    def test_nesting_past_the_recursion_limit_is_a_parse_error(self):
        with pytest.raises(ParseError, match="invalid JSON"):
            parse_poset_text('{"n": 2, "edges": ' + "[" * 100_000)

    def test_sniffing_tolerates_leading_whitespace(self):
        assert parse_poset_text('  \n {"n": 1}').fmt == "json"
        assert parse_poset_text("  \n 1\n").fmt == "edges"


class TestSizeLimit:
    # an element count above the limit is refused as soon as it is read,
    # before anything per element is allocated

    def test_edge_text(self):
        with pytest.raises(ParseError) as exc:
            parse_poset_text("1000000000\n0 1\n")
        assert exc.value.line == 1 and "limit" in str(exc.value)

    def test_json(self):
        with pytest.raises(ParseError, match="limit"):
            parse_poset_text('{"n": 1000000000, "edges": [[0, 1]]}')

    @pytest.mark.parametrize("text", ['{"n": ' + "9" * 5000 + "}", "9" * 5000 + "\n"],
                             ids=["json", "edge text"])
    def test_integer_past_the_int_to_str_digit_limit(self, text):
        # int() refuses it under CPython's default digit limit, and without
        # that limit it is above MAX_ELEMENTS: a ParseError either way
        with pytest.raises(ParseError):
            parse_poset_text(text)

    def test_a_long_element_count_is_refused_in_one_short_line(self):
        with pytest.raises(ParseError) as exc:
            parse_poset_text("9" * 5000 + "\n0 1\n")
        assert exc.value.line == 1 and "5000 digits" in str(exc.value)
        assert len(str(exc.value)) < 100
        # leading zeros are not digits of the count
        assert parse_poset_text("0" * 5000 + "3\n0 1\n").n == 3

    def test_the_limit_itself_parses(self):
        assert parse_poset_text(f"{MAX_ELEMENTS}\n").n == MAX_ELEMENTS
        with pytest.raises(ParseError, match="limit"):
            parse_poset_text(f"{MAX_ELEMENTS + 1}\n")

    def test_constructor(self):
        with pytest.raises(ValueError, match="limit"):
            Poset(MAX_ELEMENTS + 1, [])


class TestEdgeLimit:
    # relation pairs past poset.MAX_EDGES are refused while reading, the
    # readers with a lowered limit so the inputs stay small

    def test_edge_text(self, monkeypatch):
        monkeypatch.setattr(fileio, "MAX_EDGES", 3)
        assert len(parse_poset_text("3\n0 1\n1 2\n0 2\n").edges) == 3
        with pytest.raises(ParseError) as exc:
            parse_poset_text("3\n0 1\n1 2\n0 2\n0 1\n")
        assert exc.value.line == 5 and "edges" in str(exc.value)

    def test_json(self, monkeypatch):
        monkeypatch.setattr(fileio, "MAX_EDGES", 3)
        with pytest.raises(ParseError, match="limit"):
            parse_poset_text('{"n": 2, "edges": [[0, 1], [0, 1], [0, 1], [0, 1]]}')

    def test_constructor(self):
        Poset(2, ((0, 1) for _ in range(MAX_EDGES)))
        with pytest.raises(ValueError, match="relation pairs"):
            Poset(2, ((0, 1) for _ in range(MAX_EDGES + 1)))


class TestRoundTrips:
    def test_edge_text_round_trip(self):
        for _, p in random_posets(seed=211, count=40, max_n=9):
            assert build_poset(parse_poset_text(to_edge_text(p))) == p

    def test_structured_round_trip_keeps_labels(self):
        p = Poset(3, [(0, 1), (1, 2)])
        data = parse_poset_text(json.dumps(to_structured(p, ("a", "b", "c"))))
        assert build_poset(data) == p and data.labels == ["a", "b", "c"]

    def test_structured_omits_absent_labels(self):
        assert "labels" not in to_structured(chain(3))

    def test_edge_text_is_sorted_and_newline_terminated(self):
        rng = random.Random(223)
        edges = [(0, 2), (0, 1), (1, 3), (2, 3)]
        rng.shuffle(edges)
        text = to_edge_text(Poset(4, edges))
        assert text == "4\n0 1\n0 2\n1 3\n2 3\n"


class TestFiles:
    def test_load_poset(self, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text(EDGE_TEXT)
        assert build_poset(read_poset_file(str(f))) == diamond(2)

    def test_load_json_file(self, tmp_path):
        f = tmp_path / "p.json"
        f.write_text(JSON_TEXT)
        data = read_poset_file(str(f))
        assert data.labels == ["bot", "left", "right", "top"]
        assert build_poset(data) == diamond(2)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_poset_file(str(tmp_path / "absent.txt"))
