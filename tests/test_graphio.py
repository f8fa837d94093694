"""Format parsing, diagnostics, and round trips."""

from __future__ import annotations

import pytest

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
