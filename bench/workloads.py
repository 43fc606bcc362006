"""Inputs, timed jobs and result checks of the three benchmark workloads.

exact       cold exact solves, one fresh PolynomialEngine per solve, as one
            `forestbuilder poly` or `one-comp` call pays them
sweep       the n=7 search: enumeration, p_G plus log-concavity for every
            class, and the equal-polynomial pair census, with one engine
            shared by the three phases of a round
montecarlo  seeded estimate_distribution batches; never touches canon or
            the engine, so it is the control for exact-path changes

Every package call goes through a module or class attribute looked up at
call time, so the tracer's rebinding sees it.  Inputs come only from the
workload seed.  A round repeats the same work as the last, except that
exact rounds cycle through seed-drawn labelings and Monte Carlo rounds
through seed-derived streams.
"""

from __future__ import annotations

import json
import math
import random
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Callable

import forestbuilder.engine as engine_mod
import forestbuilder.families as families
import forestbuilder.montecarlo as montecarlo
import forestbuilder.search as search
from forestbuilder.distribution import parse_fraction
from forestbuilder.graphs import Graph

from spans import BENCH_LAYER

EXPECTED = json.loads((Path(__file__).with_name("expected.json")).read_text())

# "full" is what the benchmark measures; "smoke" runs every code path in
# seconds, for the benchmark's own tests.
SIZES = {
    "full": {
        "parts": (1, 3, 4),  # K_{1,3,4}: 8 vertices, 19 edges
        "cubic_n": 10,
        # Generator seeds of the three cubic classes (automorphism groups of
        # order 2, 8 and 6; no cubic graph on 10 vertices is asymmetric).
        # The class decides the cost of an exact solve (0.4 s to 3.4 s on
        # 10 vertices), so the classes stay fixed and the workload seed
        # draws their labeling and edge order; a seed-drawn class mix would
        # vary the work 2x.
        "cubic_draws": (0, 1, 2),
        "labelings": 8,  # distinct labelings the exact rounds cycle through
        "sweep_n": 7,
        "mc_parts": (3, 3, 3),
        "mc_cubic_n": 200,
        "mc_trials": {"tripartite": 10_000, "cubic": 1_000},
    },
    "smoke": {
        "parts": (1, 2, 2),
        "cubic_n": 6,
        "cubic_draws": (0, 1, 2),
        "labelings": 2,
        "sweep_n": 5,
        "mc_parts": (3, 3, 3),
        "mc_cubic_n": 20,
        "mc_trials": {"tripartite": 300, "cubic": 100},
    },
}


class Clock:
    """Times each job; with a tracer, each job is also a root span."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.jobs: dict[str, list[float]] = {}

    @contextmanager
    def job(self, name: str):
        span = self.tracer.span(BENCH_LAYER, name) if self.tracer else nullcontext()
        with span:
            t0 = perf_counter()
            yield
            self.jobs.setdefault(name, []).append(perf_counter() - t0)

    def total(self) -> float:
        return sum(sum(times) for times in self.jobs.values())


class Checks:
    """Counts result checks; every failure keeps a one-line description."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def relabel(g: Graph, rng: random.Random) -> Graph:
    """The same graph under a random vertex labeling and edge order."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) if perm[u] < perm[v] else (perm[v], perm[u]) for u, v in g.edges]
    rng.shuffle(edges)
    return Graph(g.n, tuple(edges))


def _pinned(table: str, key) -> dict[int, Fraction]:
    raw = EXPECTED[table][",".join(map(str, key))]
    return {int(k): parse_fraction(v) for k, v in raw.items()}


def _memo_classes(engine) -> int:
    return sum(engine.memo_sizes())


def _stored(out: dict, job: str, classes: int) -> None:
    """Credit memo classes stored during a job (one expansion each)."""
    out["memo"][job] = out["memo"].get(job, 0) + classes


# --- exact ---------------------------------------------------------------

def exact_inputs(seed: int, size: dict) -> list[dict]:
    # The labeling alone moves the cost of a solve by up to a third (the
    # canonical search and the automorphisms it finds depend on it), so each
    # round gets its own seed-drawn labeling and a run's median spans several.
    rng = random.Random(seed)
    tripartite = families.complete_multipartite(size["parts"])
    cubic = [families.random_regular_graph(size["cubic_n"], 3, draw) for draw in size["cubic_draws"]]
    return [
        {"tripartite": relabel(tripartite, rng), "cubic": [relabel(g, rng) for g in cubic]}
        for _ in range(size["labelings"])
    ]


def exact_round(labelings: list[dict], index: int, clock: Clock) -> dict:
    inputs = labelings[index % len(labelings)]
    out = {"labeling": index % len(labelings), "cubic": [], "cubic_one": [], "memo": {}}
    engine = engine_mod.PolynomialEngine()
    with clock.job("tripartite"):
        out["tripartite"] = engine.distribution(inputs["tripartite"])
    _stored(out, "tripartite", _memo_classes(engine))
    for g in inputs["cubic"]:
        engine = engine_mod.PolynomialEngine()
        with clock.job("cubic"):
            out["cubic"].append(engine.distribution(g))
        _stored(out, "cubic", _memo_classes(engine))
    for g in inputs["cubic"]:
        engine = engine_mod.PolynomialEngine()
        with clock.job("cubic_one"):
            out["cubic_one"].append(engine.one_component(g))
        _stored(out, "cubic_one", _memo_classes(engine))
    return out


def exact_check(labelings: list[dict], r: dict, size: dict, checks: Checks) -> None:
    inputs = labelings[r["labeling"]]
    pinned = _pinned("tripartite", size["parts"])
    checks.expect(r["tripartite"].probs == pinned, "tripartite p_G differs from the pinned rationals")
    solved = [(inputs["tripartite"], r["tripartite"])] + list(zip(inputs["cubic"], r["cubic"]))
    for g, dist in solved:
        checks.expect(dist.total() == 1, f"p_G of {g.edges} does not sum to 1")
        checks.expect(
            dist.expected_components() == engine_mod.expected_components(g),
            f"E[kappa] of {g.edges} differs from the per-edge formula",
        )
    for dist, one in zip(r["cubic"], r["cubic_one"]):
        checks.expect(one == dist.coefficient(1), "one_component differs from coefficient 1 of p_G")


def seconds_per_job(clock: Clock, size: dict) -> dict:
    return {f"{job}_s": (median(times), "s", len(times)) for job, times in clock.jobs.items()}


# --- sweep ---------------------------------------------------------------

def sweep_inputs(seed: int, size: dict) -> dict:
    # the classes come from the enumeration phase itself; the seed fixes
    # the labeling and order in which the evaluation phase receives them
    return {"n": size["sweep_n"], "seed": seed}


def sweep_round(inputs: dict, index: int, clock: Clock) -> dict:
    n = inputs["n"]
    engine = engine_mod.PolynomialEngine()
    with clock.job("enumerate"):
        classes = search.enumerate_connected_graphs(n)
    rng = random.Random(inputs["seed"])
    graphs = [relabel(g, rng) for g in classes]
    rng.shuffle(graphs)
    dists = []
    violations = 0
    with clock.job("evaluate"):
        for g in graphs:
            dists.append(engine.distribution(g))
            if not search.check_log_concavity(g, engine):
                violations += 1
    evaluated = _memo_classes(engine)
    with clock.job("census"):
        pairs = search.find_equal_polynomial_pairs(n, engine)
    return {
        "classes": len(classes),
        "dists": dists,
        "violations": violations,
        "pairs": [[p.graph6_a, p.graph6_b, p.explained_by_corollary4] for p in pairs],
        "memo": {"evaluate": evaluated, "census": _memo_classes(engine) - evaluated},
    }


def sweep_check(inputs: dict, r: dict, size: dict, checks: Checks) -> None:
    n = str(inputs["n"])
    checks.expect(r["classes"] == EXPECTED["connected_classes"][n], f"{r['classes']} classes, not A001349")
    checks.expect(r["violations"] == 0, f"{r['violations']} log-concavity violations")
    checks.expect(r["pairs"] == EXPECTED["census"][n], "census pairs differ from the pinned replay")
    for dist in r["dists"]:
        checks.expect(dist.total() == 1, "a class's p_G does not sum to 1")


# --- montecarlo ----------------------------------------------------------

def montecarlo_inputs(seed: int, size: dict) -> dict:
    return {
        "tripartite": families.complete_multipartite(size["mc_parts"]),
        "cubic": families.random_regular_graph(size["mc_cubic_n"], 3, seed),
        "seed": random.Random(seed).getrandbits(48),
        "trials": size["mc_trials"],
    }


def montecarlo_round(inputs: dict, index: int, clock: Clock) -> dict:
    out = {"index": index}
    for job in ("tripartite", "cubic"):
        with clock.job(job):
            out[job] = montecarlo.estimate_distribution(
                inputs[job], inputs["trials"][job], inputs["seed"] + index
            )
    return out


def montecarlo_check(inputs: dict, r: dict, size: dict, checks: Checks) -> None:
    pinned = _pinned("tripartite", size["mc_parts"])
    for job in ("tripartite", "cubic"):
        est = r[job]
        checks.expect(sum(est.counts.values()) == est.trials, f"{job} counts do not sum to the trials")
    est = r["tripartite"]
    for k in sorted(set(pinned) | set(est.counts)):
        p = float(pinned.get(k, 0))
        sigma = math.sqrt(p * (1 - p) / est.trials)
        phat = est.counts.get(k, 0) / est.trials
        checks.expect(abs(phat - p) <= 5 * sigma, f"K_(3,3,3) P(kappa={k}) = {phat}, exact {p}")
    est = r["cubic"]
    mean = float(engine_mod.expected_components(inputs["cubic"]))
    checks.expect(
        abs(est.mean_kappa - mean) <= 5 * est.stderr_kappa,
        f"cubic mean {est.mean_kappa} +- {est.stderr_kappa}, exact {mean}",
    )
    if r["index"] == 0:
        # determinism, not stream digests: a documented stream change still passes
        rerun = montecarlo_round(inputs, 0, Clock())
        for job in ("tripartite", "cubic"):
            checks.expect(rerun[job].counts == r[job].counts, f"{job} same-seed rerun differs")


def montecarlo_jobs(clock: Clock, size: dict) -> dict:
    return {
        f"{job}_trials_per_s": (median(size["mc_trials"][job] / t for t in times), "1/s", len(times))
        for job, times in clock.jobs.items()
    }


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable[[int, dict], dict]
    run_round: Callable[[dict, int, Clock], dict]
    check: Callable[[dict, dict, dict, Checks], None]  # one round's result
    job_metrics: Callable[[Clock, dict], dict]


WORKLOADS = {
    "exact": Workload(exact_inputs, exact_round, exact_check, seconds_per_job),
    "sweep": Workload(sweep_inputs, sweep_round, sweep_check, seconds_per_job),
    "montecarlo": Workload(montecarlo_inputs, montecarlo_round, montecarlo_check, montecarlo_jobs),
}

# every job name of every workload, for the per-job metrics of the traced run
JOBS = ("tripartite", "cubic", "cubic_one", "enumerate", "evaluate", "census")
