"""Simple undirected graphs with an ordered edge list.

Vertices are integers 0..n-1.  Edges are unordered pairs, stored normalized
as (min, max); an edge's identity for process orderings is its index in the
edge tuple, so edge list order is preserved exactly as given at construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidGraph, SizeCapExceeded

CHEEGER_VERTEX_CAP = 20


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph: vertex count plus normalized edge tuple."""

    n: int
    edges: tuple[tuple[int, int], ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        degs = [0] * self.n
        for u, v in self.edges:
            degs[u] += 1
            degs[v] += 1
        return degs

    def adjacency_masks(self) -> list[int]:
        """Neighbor bitmask per vertex (bit v of masks[u] set iff uv is an edge)."""
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return masks

    def delete_edge(self, edge_id: int) -> "Graph":
        """Same vertex set, edge `edge_id` removed; later edges shift down."""
        if not 0 <= edge_id < self.m:
            raise IndexError(f"edge id {edge_id} out of range")
        return Graph(self.n, self.edges[:edge_id] + self.edges[edge_id + 1 :])


def from_edge_list(n: int, pairs: list[tuple[int, int]]) -> Graph:
    """Validated constructor; raises on bad endpoints, loops, duplicates."""
    if n < 0:
        raise InvalidGraph("vertex count must be nonnegative")
    seen: set[tuple[int, int]] = set()
    edges = []
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidGraph(f"edge ({u},{v}) outside 0..{n - 1}")
        if u == v:
            raise InvalidGraph(f"self-loop at vertex {u}")
        if u > v:
            u, v = v, u
        if (u, v) in seen:
            raise InvalidGraph(f"edge ({u},{v}) repeated")
        seen.add((u, v))
        edges.append((u, v))
    return Graph(n, tuple(edges))


def parse_edge_list(text: str) -> Graph:
    """Parse the plain-text edge list format.

    First non-comment line is "n m"; then m lines "u v".  Blank lines and
    lines starting with '#' are ignored.
    """
    header: tuple[int, int] | None = None
    pairs: list[tuple[int, int]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if header is None:
            if len(fields) != 2:
                raise InvalidGraph('first line must be "n m"')
            header = _int_pair(fields, line)
            continue
        if len(fields) != 2:
            raise InvalidGraph(f"bad edge line: {line!r}")
        pairs.append(_int_pair(fields, line))
    if header is None:
        raise InvalidGraph("empty edge list input")
    n, m = header
    if len(pairs) != m:
        raise InvalidGraph(f"header says {m} edges, found {len(pairs)}")
    return from_edge_list(n, pairs)


def _int_pair(fields: list[str], line: str) -> tuple[int, int]:
    try:
        return int(fields[0]), int(fields[1])
    except ValueError:
        raise InvalidGraph(f"non-integer field in line {line!r}") from None


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def _least(g: Graph) -> dict[int, int]:
    """Each vertex that has an edge, mapped to its least component-mate.

    Isolated vertices are never visited: the walk starts from each vertex of
    sorted(adj), so its time is linear in m plus the sort of those vertices.
    """
    adj: dict[int, list[int]] = {}
    for u, v in g.edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    least: dict[int, int] = {}
    for start in sorted(adj):
        if start not in least:
            least[start] = start
            stack = [start]
            while stack:
                for w in adj[stack.pop()]:
                    if w not in least:
                        least[w] = start
                        stack.append(w)
    return least


def _compact(g: Graph) -> tuple[tuple[tuple[int, int], ...], int]:
    """The edges, same ids, with endpoints renamed 0..n'-1 in first-seen order; and n' <= 2m."""
    index: dict[int, int] = {}
    edges = tuple((index.setdefault(u, len(index)), index.setdefault(v, len(index)))
                  for u, v in g.edges)
    return edges, len(index)


def is_connected(g: Graph) -> bool:
    # a connected graph on n vertices has at least n - 1 edges
    return g.n <= 1 or (g.m >= g.n - 1 and list(_least(g).values()).count(0) == g.n)


def components(g: Graph) -> list[Graph]:
    """The connected components that have edges, in order of least vertex.

    Each is relabelled 0..k-1 in vertex order and keeps its edges in the
    original relative order; isolated vertices give no component.
    """
    least = _least(g)
    index: dict[int, int] = {}  # vertex -> its label within its component
    sizes: dict[int, int] = {}
    for v, root in sorted(least.items()):
        index[v] = sizes.get(root, 0)
        sizes[root] = index[v] + 1
    edges: dict[int, list[tuple[int, int]]] = {}
    for u, v in g.edges:
        edges.setdefault(least[u], []).append((index[u], index[v]))
    return [Graph(sizes[s], tuple(e)) for s, e in sorted(edges.items())]


def edge_codegree(g: Graph, edge_id: int) -> int:
    """d(u) + d(v) - 2 for the edge's endpoints: neighbors besides the edge."""
    if not 0 <= edge_id < g.m:
        raise IndexError(f"edge id {edge_id} out of range")
    u, v = g.edges[edge_id]
    return sum(1 for a, b in g.edges if a in (u, v) or b in (u, v)) - 1


def cheeger_constant(g: Graph) -> Fraction:
    """Edge-expansion constant min |E(X, V-X)| / vol(X) over vol(X) <= vol(V)/2.

    Exhaustive over vertex subsets, so capped at CHEEGER_VERTEX_CAP vertices.  Volume is
    the degree sum of X.  Disconnected graphs have constant 0.
    """
    if g.m == 0:
        raise InvalidGraph("cheeger constant needs at least one edge")
    if g.n > CHEEGER_VERTEX_CAP:
        raise SizeCapExceeded(f"cheeger cap is {CHEEGER_VERTEX_CAP} vertices, got {g.n}")
    if not is_connected(g):
        return Fraction(0)
    masks = g.adjacency_masks()
    degs = g.degrees()
    total_vol = 2 * g.m
    best_num, best_den = 1, 0  # represents +infinity
    for subset in range(1, 1 << g.n):
        vol = cut = 0
        rest = subset
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            vol += degs[v]
            cut += (masks[v] & ~subset).bit_count()
        if 2 * vol > total_vol:
            continue
        # compare cut/vol < best_num/best_den without Fraction overhead
        if best_den == 0 or cut * best_den < best_num * vol:
            best_num, best_den = cut, vol
    return Fraction(best_num, best_den)
