"""Graph file parsing and writing.

Two formats: METIS adjacency files (1-based, header ``n m``, ``%`` comments)
and plain edge lists (one ``u v`` pair per line, 0- or 1-based).  Parse
errors carry the offending line number.
"""

from __future__ import annotations

from typing import Iterable

from .graph import StaticGraph


class ParseError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _is_comment(line: str) -> bool:
    stripped = line.lstrip()
    return stripped.startswith("%")


def parse_metis(text: str) -> StaticGraph:
    """Parse a METIS adjacency file into a 0-based StaticGraph.

    The header declares ``n m`` (an optional all-zero format code is
    tolerated); every undirected edge must appear in both endpoint lines.
    """
    lines = text.splitlines()
    header_idx = None
    for idx, line in enumerate(lines):
        if not _is_comment(line):
            header_idx = idx
            break
    if header_idx is None:
        raise ParseError(len(lines) + 1, "missing header line")

    tokens = lines[header_idx].split()
    if len(tokens) not in (2, 3):
        raise ParseError(header_idx + 1, f"malformed header: expected 'n m', got {tokens!r}")
    try:
        n, m = int(tokens[0]), int(tokens[1])
    except ValueError:
        raise ParseError(header_idx + 1, f"malformed header: non-numeric {tokens!r}") from None
    if n < 0 or m < 0:
        raise ParseError(header_idx + 1, "header counts must be non-negative")
    if len(tokens) == 3 and set(tokens[2]) != {"0"}:
        raise ParseError(header_idx + 1, f"unsupported format code {tokens[2]!r} (weights)")

    adjacency: list[list[int]] = []
    neighbor_sets: list[set[int]] = []
    vertex_line: list[int] = []
    for idx in range(header_idx + 1, len(lines)):
        line = lines[idx]
        if _is_comment(line):
            continue
        lineno = idx + 1
        if len(adjacency) == n:
            raise ParseError(lineno, f"unexpected data line after {n} vertex lines")
        v = len(adjacency) + 1
        nbrs: list[int] = []
        seen: set[int] = set()
        for token in line.split():
            try:
                w = int(token)
            except ValueError:
                raise ParseError(lineno, f"invalid neighbor token {token!r}") from None
            if not 1 <= w <= n:
                raise ParseError(lineno, f"neighbor {w} out of range 1..{n}")
            if w == v:
                raise ParseError(lineno, f"self-loop at vertex {v}")
            if w in seen:
                raise ParseError(lineno, f"duplicate neighbor {w} at vertex {v}")
            seen.add(w)
            nbrs.append(w)
        adjacency.append(nbrs)
        neighbor_sets.append(seen)
        vertex_line.append(lineno)
    if len(adjacency) != n:
        raise ParseError(len(lines) + 1, f"expected {n} vertex lines, found {len(adjacency)}")

    entries = 0
    for v0, nbrs in enumerate(adjacency):
        for w in nbrs:
            if (v0 + 1) not in neighbor_sets[w - 1]:
                raise ParseError(
                    vertex_line[v0],
                    f"asymmetric adjacency: edge {v0 + 1}->{w} has no reverse entry",
                )
        entries += len(nbrs)
    if entries // 2 != m:
        raise ParseError(
            header_idx + 1, f"header declares {m} edges but lists contain {entries // 2}"
        )

    return StaticGraph([[w - 1 for w in nbrs] for nbrs in adjacency])


def parse_edgelist(text: str, *, one_based: bool = False) -> StaticGraph:
    """Parse an edge list; blank lines and ``#``/``%`` comment lines are skipped.

    Duplicate edges are merged, self-loops rejected.  The vertex count is one
    past the largest ID seen (after base conversion).
    """
    base = 1 if one_based else 0
    edges: set[tuple[int, int]] = set()
    max_id = -1
    for idx, line in enumerate(text.splitlines()):
        lineno = idx + 1
        stripped = line.strip()
        if not stripped or stripped.startswith(("#", "%")):
            continue
        tokens = stripped.split()
        if len(tokens) != 2:
            raise ParseError(lineno, f"expected two vertex IDs, got {len(tokens)} tokens")
        try:
            u, v = int(tokens[0]) - base, int(tokens[1]) - base
        except ValueError:
            raise ParseError(lineno, f"non-numeric vertex ID in {stripped!r}") from None
        if u < 0 or v < 0:
            raise ParseError(lineno, f"vertex ID below base {base}")
        if u == v:
            raise ParseError(lineno, f"self-loop at vertex {tokens[0]}")
        edges.add((min(u, v), max(u, v)))
        max_id = max(max_id, u, v)
    return StaticGraph.from_edges(max_id + 1, edges)


def write_metis(g: StaticGraph) -> str:
    lines = [f"{g.n} {g.m}"]
    for v in range(g.n):
        lines.append(" ".join(str(w + 1) for w in g.neighbors(v)))
    return "\n".join(lines) + "\n"


def write_solution(vertices: Iterable[int], *, one_based: bool = True) -> str:
    base = 1 if one_based else 0
    return "".join(f"{v + base}\n" for v in sorted(vertices))
