"""Short-form graph6 encoding (vertex counts 0..62).

Layout: one header byte (n + 63), then the upper triangle of the adjacency
matrix in column-major order (pairs (0,1), (0,2), (1,2), (0,3), ...) packed
into 6-bit groups, each group offset by 63.  The final group is zero-padded.

`_bits` reads the identity ordering's bits and `_pack` writes a bit string
as text: `serialize_graph6` packs the identity ordering's string, and
`canon.canonical_key` the lexmax one's.
"""

from __future__ import annotations

from .errors import InvalidGraph, SizeCapExceeded
from .graphs import Graph

_MAX_N = 62


def _bits(g: Graph) -> int:
    """The C(n, 2) pair bits of g in graph6 order, pair (u, v) at v(v-1)/2 + u from the top."""
    top = g.n * (g.n - 1) // 2 - 1
    bits = 0
    for u, v in g.edges:
        bits |= 1 << (top - v * (v - 1) // 2 - u)
    return bits


def _pack(n: int, bits: int) -> str:
    """The graph6 text of n vertices whose C(n, 2) pair bits are `bits`."""
    nbits = n * (n - 1) // 2
    width = -(-nbits // 6) * 6
    bits <<= width - nbits
    groups = [chr((bits >> shift & 63) + 63) for shift in range(width - 6, -1, -6)]
    return chr(n + 63) + "".join(groups)


def serialize_graph6(g: Graph) -> str:
    if g.n > _MAX_N:
        raise SizeCapExceeded(f"graph6 short form caps at {_MAX_N} vertices")
    return _pack(g.n, _bits(g))


def parse_graph6(text: str) -> Graph:
    s = text.strip()
    if not s:
        raise InvalidGraph("empty graph6 string")
    codes = [ord(c) for c in s]
    if codes[0] == 126:
        raise SizeCapExceeded("long-form graph6 (>= 63 vertices) not supported")
    if not 63 <= codes[0] <= 63 + _MAX_N:
        raise InvalidGraph(f"bad header byte {codes[0]}")
    n = codes[0] - 63
    body = codes[1:]
    nbits = n * (n - 1) // 2
    expected = (nbits + 5) // 6
    if len(body) != expected:
        raise InvalidGraph(
            f"{n}-vertex graph6 needs {expected} body bytes, got {len(body)}"
        )
    bits = 0
    for c in body:
        if not 63 <= c <= 126:
            raise InvalidGraph(f"body byte {c} outside graph6 range")
        bits = bits << 6 | c - 63
    pad = 6 * expected - nbits
    if bits & ((1 << pad) - 1):
        raise InvalidGraph("nonzero padding bits")
    bits >>= pad
    top = nbits - 1  # pair (u, v) at v(v-1)/2 + u from the top, as `_bits` writes it
    pairs = ((u, v) for v in range(1, n) for u in range(v))
    return Graph(n, tuple((u, v) for u, v in pairs if bits >> (top - v * (v - 1) // 2 - u) & 1))
