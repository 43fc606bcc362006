"""Span tracing of forestbuilder's layers, installed from outside the package.

The tracer rebinds module and class attributes (the names each caller looks
up at call time) to thin wrappers that record one span per call: boundary
name, start, end and the span that was open when the call began.  Nothing
in the package is edited, and nothing is wrapped unless `installed()` is
active, so untraced runs execute the package exactly as users do.

A boundary whose attribute no longer exists is reported as "not seen" and
its metrics read zero, so a change that removes or renames a function
degrades the trace instead of crashing the benchmark.
"""

from __future__ import annotations

import importlib
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Boundary:
    """One traced entry point: `owner` is "module" or "module:Class"."""

    layer: str
    name: str
    owner: str
    attr: str
    weigh: Callable | None = None  # per-call number kept with the span


def _inverse_edges(args, kwargs) -> float:
    # Graph.delete_edge(self, edge_id): 1/m of the graph being expanded
    return 1.0 / args[0].m


# The same function can be bound under several names; each binding a
# caller uses is wrapped, under one span name, so calls are counted once.
BOUNDARIES = (
    Boundary("engine", "engine.distribution", "forestbuilder.engine:PolynomialEngine", "distribution"),
    Boundary("engine", "engine.one_component", "forestbuilder.engine:PolynomialEngine", "one_component"),
    Boundary("canon", "canon.canonical_data", "forestbuilder.engine", "canonical_data"),
    Boundary("canon", "canon.canonical_data", "forestbuilder.canon", "canonical_data"),
    Boundary("canon", "canon.canonical_key", "forestbuilder.search", "canonical_key"),
    Boundary("canon", "canon.is_edge_transitive", "forestbuilder.search", "is_edge_transitive"),
    Boundary("graph6", "graph6.serialize", "forestbuilder.canon", "serialize_graph6"),
    Boundary("graph6", "graph6.parse", "forestbuilder.search", "parse_graph6"),
    Boundary("graphs", "graphs.components", "forestbuilder.engine", "components"),
    Boundary("graphs", "graphs.large_bridges", "forestbuilder.engine", "large_bridges"),
    Boundary("graphs", "graphs.delete_edge", "forestbuilder.graphs:Graph", "delete_edge", _inverse_edges),
    Boundary("distribution", "distribution.convolve", "forestbuilder.engine", "convolve"),
    Boundary("search", "search.enumerate_connected_graphs", "forestbuilder.search", "enumerate_connected_graphs"),
    Boundary("search", "search.check_log_concavity", "forestbuilder.search", "check_log_concavity"),
    Boundary("search", "search.find_equal_polynomial_pairs", "forestbuilder.search", "find_equal_polynomial_pairs"),
    Boundary("montecarlo", "montecarlo.estimate_distribution", "forestbuilder.montecarlo", "estimate_distribution"),
    Boundary("rng", "rng.shuffle", "forestbuilder.rng:SplitMix64", "shuffle"),
    Boundary("rng", "rng.derive_seed", "forestbuilder.montecarlo", "derive_seed"),
    Boundary("families", "families.complete_multipartite", "forestbuilder.families", "complete_multipartite"),
    Boundary("families", "families.random_regular_graph", "forestbuilder.families", "random_regular_graph"),
)

BENCH_LAYER = "bench"  # root spans opened by the benchmark around each job


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    try:
        target = importlib.import_module(module_name)
    except ImportError:
        return None
    if class_name:
        target = getattr(target, class_name, None)
    return target


class Tracer:
    """Span recorder; spans live in flat arrays until `summary` reads them."""

    def __init__(self, boundaries=BOUNDARIES):
        self.boundaries = boundaries
        self.names: list[str] = []
        self.layer_of: dict[str, str] = {}
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.weights: dict[int, float] = {}
        self._stack = [-1]
        self.not_seen: list[str] = []

    def _id(self, layer: str, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of[name] = layer
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self._stack.append(idx)
        self.end.append(0.0)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, layer: str, name: str):
        idx = self._open(self._id(layer, name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, nid: int, weigh):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                if weigh is not None:
                    tracer.weights[idx] = weigh(args, kwargs)
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Rebind every boundary that exists; restore the originals on exit."""
        saved = []
        self.not_seen = []
        try:
            for b in self.boundaries:
                owner = _resolve(b.owner)
                original = None if owner is None else vars(owner).get(b.attr)
                if original is None:
                    self.not_seen.append(f"{b.owner}.{b.attr}")
                    continue
                saved.append((owner, b.attr, original))
                nid = self._id(b.layer, b.name)
                setattr(owner, b.attr, self._wrap(original, nid, b.weigh))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def summary(self) -> dict[str, dict[str, Counter]]:
        """Totals of every span tree, keyed by the name of its root span.

        Each value holds Counters: "calls" and "inclusive" seconds per span
        name, "layer_self" seconds per layer, and "calls_under" and
        "weight_under" per (caller's layer, span name).  Self time is a
        span's duration minus the durations of its direct children, so the
        self times of a tree add up to its root's duration.
        """
        n = len(self.start)
        names, layer_of = self.names, self.layer_of
        child_time = [0.0] * n
        root_of = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p < 0:
                root_of[i] = i
            else:
                root_of[i] = root_of[p]
                child_time[p] += self.end[i] - self.start[i]
        trees: dict[str, dict[str, Counter]] = {}
        for i in range(n):
            root = names[self.name_id[root_of[i]]]
            t = trees.get(root)
            if t is None:
                t = trees[root] = {k: Counter() for k in SUMMARY_KEYS}
            name = names[self.name_id[i]]
            dur = self.end[i] - self.start[i]
            t["calls"][name] += 1
            t["inclusive"][name] += dur
            t["layer_self"][layer_of[name]] += dur - child_time[i]
            p = self.parent[i]
            if p >= 0:
                key = (layer_of[names[self.name_id[p]]], name)
                t["calls_under"][key] += 1
                if i in self.weights:
                    t["weight_under"][key] += self.weights[i]
        return trees


SUMMARY_KEYS = ("calls", "inclusive", "layer_self", "calls_under", "weight_under")


def combine(trees: dict[str, dict[str, Counter]], roots) -> dict[str, Counter]:
    """Sum the totals of the named roots; a root with no spans adds nothing."""
    out = {k: Counter() for k in SUMMARY_KEYS}
    for root in roots:
        for k, counter in trees.get(root, {}).items():
            out[k].update(counter)
    return out
