"""Format parsing, diagnostics, and round trips."""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twopack import (
    ParseError,
    StaticGraph,
    parse_edgelist,
    parse_metis,
    write_metis,
    write_solution,
)

from conftest import cycle_graph, gnp_graph, path_graph


class TestParseMetis:
    def test_p3(self):
        assert parse_metis("3 2\n2\n1 3\n2\n") == path_graph(3)

    def test_p2(self):
        assert parse_metis("2 1\n2\n1\n") == path_graph(2)

    def test_comments_and_format_code(self):
        text = "% a comment\n3 2 0\n2\n% another\n1 3\n2\n"
        assert parse_metis(text) == path_graph(3)

    def test_empty_graph(self):
        g = parse_metis("0 0\n")
        assert g.n == 0

    def test_isolated_vertex_blank_line(self):
        g = parse_metis("3 1\n2\n1\n\n")
        assert g.n == 3 and g.m == 1
        assert g.degree(2) == 0

    def test_asymmetry_reports_line(self):
        with pytest.raises(ParseError) as info:
            parse_metis("3 2\n2\n1\n2\n")
        assert info.value.line == 4
        assert "asymmetric" in str(info.value)

    def test_malformed_header(self):
        with pytest.raises(ParseError) as info:
            parse_metis("banana\n")
        assert info.value.line == 1

    def test_weighted_format_code_rejected(self):
        with pytest.raises(ParseError, match="format code"):
            parse_metis("2 1 011\n2\n1\n")

    def test_out_of_range_neighbor(self):
        with pytest.raises(ParseError) as info:
            parse_metis("2 1\n5\n1\n")
        assert info.value.line == 2

    def test_self_loop(self):
        with pytest.raises(ParseError, match="self-loop"):
            parse_metis("2 1\n1\n1\n")

    def test_duplicate_neighbor(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_metis("2 2\n2 2\n1 1\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(ParseError) as info:
            parse_metis("3 5\n2\n1 3\n2\n")
        assert info.value.line == 1
        assert "declares" in str(info.value)

    def test_missing_vertex_lines(self):
        with pytest.raises(ParseError, match="expected 3 vertex lines"):
            parse_metis("3 2\n2\n1 3\n")

    def test_extra_data_line(self):
        with pytest.raises(ParseError, match="unexpected"):
            parse_metis("2 1\n2\n1\n2\n")

    @pytest.mark.parametrize(
        "text, line, fault",
        [
            ("3 2\n2\n1\n2\n", 4, "asymmetric: neighbor 2 of vertex 3"),
            ("% c\n3 1\n% c\n\n3\n1\n", 5, "asymmetric: neighbor 3 of vertex 2"),
            ("2 1\n0\n1\n", 2, "out of range: neighbor 0 of vertex 1"),
            ("2 1\n2\n1 3\n", 3, "out of range: neighbor 3 of vertex 2"),
            ("2 1\n2\n2\n", 3, "self-loop: neighbor 2 of vertex 2"),
            ("3 2\n2 3\n1 3 1\n1 2\n", 3, "duplicate: neighbor 1 of vertex 2"),
            ("3 2\n2\n1 3.0\n2\n", 3, "invalid neighbor token '3.0'"),
        ],
    )
    def test_faults_name_the_file_ids(self, text, line, fault):
        with pytest.raises(ParseError) as info:
            parse_metis(text)
        assert info.value.line == line
        assert str(info.value) == f"line {line}: {fault}"


# corruption of one vertex line -> the keyword its ParseError must carry
CORRUPTIONS = {
    "drop": "asymmetric",
    "one-sided": "asymmetric",
    "duplicate": "duplicate",
    "self-loop": "self-loop",
    "zero": "out of range",
    "past-n": "out of range",
}


def _faulty_vertices(rows: list[list[int]]) -> set[int]:
    """1-based vertices whose list holds an entry out of range, equal to the
    vertex, repeated, or missing from the other endpoint's list."""
    n = len(rows)
    return {
        v
        for v, row in enumerate(rows, start=1)
        for w in row
        if not 1 <= w <= n or w == v or row.count(w) > 1 or v not in rows[w - 1]
    }


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 30),
    st.floats(0.0, 0.5),
    st.integers(0, 10**6),
    st.sampled_from(sorted(CORRUPTIONS)),
    st.data(),
)
def test_corrupted_metis_fails_at_a_faulty_line(n, p, seed, corruption, data):
    g = gnp_graph(n, p, seed)
    header, *body = write_metis(g).splitlines()
    rows = [[int(t) for t in line.split()] for line in body]
    comments = data.draw(st.lists(st.booleans(), min_size=n + 1, max_size=n + 1))

    def render() -> tuple[str, dict[int, int]]:
        lines, vertex_line = [header], {}
        for v, row in enumerate(rows, start=1):
            if comments[v - 1]:
                lines.append("% note")
            lines.append(" ".join(map(str, row)))
            vertex_line[v] = len(lines)
        if comments[n]:
            lines.append("% trailing note")
        return "\n".join(lines) + "\n", vertex_line

    assert parse_metis(render()[0]) == g

    if corruption in ("drop", "duplicate"):
        candidates = [v for v in range(1, n + 1) if rows[v - 1]]
    elif corruption == "one-sided":
        candidates = [v for v in range(1, n + 1) if len(rows[v - 1]) < n - 1]
    else:
        candidates = list(range(1, n + 1))
    assume(candidates)
    v = data.draw(st.sampled_from(candidates))
    row = rows[v - 1]
    if corruption == "drop":
        del row[data.draw(st.integers(0, len(row) - 1))]
    else:
        if corruption == "duplicate":
            entry = data.draw(st.sampled_from(row))
        elif corruption == "one-sided":
            others = [w for w in range(1, n + 1) if w != v and w not in row]
            entry = data.draw(st.sampled_from(others))
        else:
            entry = {"self-loop": v, "zero": 0, "past-n": n + 1}[corruption]
        row.insert(data.draw(st.integers(0, len(row))), entry)

    text, vertex_line = render()
    with pytest.raises(ParseError) as info:
        parse_metis(text)
    assert info.value.line in {vertex_line[u] for u in _faulty_vertices(rows)}
    assert CORRUPTIONS[corruption] in str(info.value)


class TestParseEdgelist:
    def test_p3(self):
        assert parse_edgelist("0 1\n1 2\n") == path_graph(3)

    def test_one_based(self):
        assert parse_edgelist("1 2\n2 3\n", one_based=True) == path_graph(3)

    def test_self_loop(self):
        with pytest.raises(ParseError, match="self-loop"):
            parse_edgelist("0 0\n")

    def test_duplicates_merged(self):
        assert parse_edgelist("0 1\n0 1\n1 0\n") == path_graph(2)

    def test_comments_and_blanks(self):
        assert parse_edgelist("# header\n\n0 1\n% note\n1 2\n") == path_graph(3)

    def test_non_numeric(self):
        with pytest.raises(ParseError) as info:
            parse_edgelist("0 x\n")
        assert info.value.line == 1

    def test_wrong_token_count(self):
        with pytest.raises(ParseError, match="two vertex IDs"):
            parse_edgelist("0 1 2\n")

    def test_below_base(self):
        with pytest.raises(ParseError, match="below base"):
            parse_edgelist("0 1\n", one_based=True)


def write_edgelist(g: StaticGraph, *, one_based: bool = False) -> str:
    base = 1 if one_based else 0
    return "".join(f"{u + base} {v + base}\n" for u, v in g.edges())


class TestRoundTrips:
    def test_metis_round_trip(self):
        for g in (path_graph(5), cycle_graph(7), gnp_graph(12, 0.3, 4)):
            assert parse_metis(write_metis(g)) == g

    def test_edgelist_round_trip(self):
        for g in (path_graph(5), cycle_graph(7), gnp_graph(12, 0.3, 4)):
            # an edge list cannot carry trailing isolated vertices, so the
            # stable form is parse-of-write of an already parsed graph
            h = parse_edgelist(write_edgelist(g))
            assert parse_edgelist(write_edgelist(h)) == h
            assert h.edges() is not None and list(h.edges()) == list(g.edges())
            k = parse_edgelist(write_edgelist(g, one_based=True), one_based=True)
            assert list(k.edges()) == list(g.edges())

    def test_cross_format(self):
        g = gnp_graph(9, 0.4, 8)
        assert parse_edgelist(write_edgelist(g)) == parse_metis(write_metis(g))


class TestWriteSolution:
    def test_one_based(self):
        assert write_solution({0, 3}) == "1\n4\n"

    def test_zero_based(self):
        assert write_solution({0, 3}, one_based=False) == "0\n3\n"
