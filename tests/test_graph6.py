"""graph6 short-form serialization."""

from math import comb

import pytest

from forestbuilder.errors import InvalidGraph, SizeCapExceeded
from forestbuilder.families import complete_graph, gnm_random_graph
from forestbuilder.graph6 import parse_graph6, serialize_graph6
from forestbuilder.graphs import Graph


def test_parse_known_strings():
    k4 = parse_graph6("C~")
    assert k4.n == 4 and k4.m == 6
    assert parse_graph6("A_").edges == ((0, 1),)
    assert parse_graph6("A?").edges == ()
    assert parse_graph6("?") == Graph(0, ())


def test_serialize_known_graphs():
    assert serialize_graph6(complete_graph(3)) == "Bw"
    assert serialize_graph6(complete_graph(4)) == "C~"
    assert serialize_graph6(Graph(2, ((0, 1),))) == "A_"
    assert serialize_graph6(Graph(0, ())) == "?"


def _packed_bit_by_bit(g: Graph) -> str:
    """Oracle: walk the column-major pairs, emitting each full 6-bit group."""
    adjacency = g.adjacency_masks()
    out = [chr(g.n + 63)]
    group = filled = 0
    for j in range(1, g.n):
        for i in range(j):
            group = (group << 1) | ((adjacency[j] >> i) & 1)
            filled += 1
            if filled == 6:
                out.append(chr(group + 63))
                group = filled = 0
    if filled:
        out.append(chr((group << (6 - filled)) + 63))
    return "".join(out)


def test_round_trip_random_graphs():
    # every size the short form takes, each padding width among them
    for i in range(189):
        n = i % 63
        g = gnm_random_graph(n, (i * 7) % (comb(n, 2) + 1), seed=i) if n else Graph(0, ())
        text = serialize_graph6(g)
        assert text == _packed_bit_by_bit(g)
        back = parse_graph6(text)
        assert back.n == g.n
        assert set(back.edges) == set(g.edges)


def test_serialize_after_parse_is_identity():
    for i in range(500):
        n = 2 + i % 7
        g = gnm_random_graph(n, (i * 5) % (comb(n, 2) + 1), seed=1000 + i)
        s = serialize_graph6(g)
        assert serialize_graph6(parse_graph6(s)) == s


def test_rejects_malformed_strings():
    bad_inputs = {
        "": "empty graph6 string",
        chr(62): "bad header byte 62",
        "A": "2-vertex graph6 needs 1 body bytes, got 0",
        "Bww": "3-vertex graph6 needs 1 body bytes, got 2",
        "B" + chr(62): "body byte 62 outside graph6 range",
        "A" + chr(127): "body byte 127 outside graph6 range",
        "A`": "nonzero padding bits",
    }
    for bad, message in bad_inputs.items():
        with pytest.raises(InvalidGraph, match=message):
            parse_graph6(bad)


def test_size_limits():
    with pytest.raises(SizeCapExceeded, match="graph6 short form caps at 62 vertices"):
        serialize_graph6(Graph(63, ()))
    message = r"long-form graph6 \(>= 63 vertices\) not supported"
    with pytest.raises(SizeCapExceeded, match=message):
        parse_graph6(chr(126) + "??")
