"""Batch command line front end.

Every subcommand writes machine-readable output to stdout (JSON by default,
exact rationals as "num/den" strings) and is deterministic given its flags:
identical invocations produce byte-identical output.  Exit codes: 0 success,
1 computation error (caps, infeasible parameters, out of memory), 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from . import closedforms, families, montecarlo, search
from .distribution import ForestDistribution, format_fraction
from .engine import brute_force_distribution, forest_polynomial, single_component_probability, expected_components
from .errors import ForestBuilderError
from .graph6 import parse_graph6, serialize_graph6
from .graphs import Graph, cheeger_constant, parse_edge_list


class _UsageError(Exception):
    pass


class _Once(argparse.Action):
    """Store action that rejects repeated occurrences of the same flag."""

    def __call__(self, parser, namespace, values, option_string=None):
        seen = getattr(namespace, "_seen_flags", None)
        if seen is None:
            seen = set()
            setattr(namespace, "_seen_flags", seen)
        if self.dest in seen:
            parser.error(f"duplicate flag {option_string}")
        seen.add(self.dest)
        setattr(namespace, self.dest, values)


def _seed(text: str) -> int:
    """argparse type for seeds: an integer in 0..2^64-1, so none alias modulo 2^64."""
    value = int(text)
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError(f"seed must be in 0..2^64-1, got {value}")
    return value


# --family name -> (families constructor, required flags in argument order)
_FAMILY_SPECS = {
    "kn": (families.complete_graph, ("n",)),
    "kst": (families.complete_bipartite, ("s", "t")),
    "multipartite": (families.complete_multipartite, ("parts",)),
    "path": (families.path_graph, ("n",)),
    "cycle": (families.cycle_graph, ("n",)),
    "star": (families.star_graph, ("n",)),
    "plus-edge": (families.balanced_bipartite_plus_edge, ("k",)),
    "gnm": (families.gnm_random_graph, ("n", "m", "graph-seed")),
    "regular": (families.random_regular_graph, ("n", "d", "graph-seed")),
}
_FAMILIES = list(_FAMILY_SPECS)


def _add_source_flags(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--g6", action=_Once, help="graph6 string")
    group.add_argument("--edges", action=_Once, metavar="FILE",
                       help="edge list file: first line 'n m', then m lines 'u v'")
    group.add_argument("--family", action=_Once, choices=_FAMILIES)
    sub.add_argument("--n", type=int, action=_Once,
                     help="kn/path/cycle: vertices; star: leaves; gnm/regular: vertices")
    sub.add_argument("--s", type=int, action=_Once, help="kst: first part size")
    sub.add_argument("--t", type=int, action=_Once, help="kst: second part size")
    sub.add_argument("--k", type=int, action=_Once, help="plus-edge: part parameter k")
    sub.add_argument("--m", type=int, action=_Once, help="gnm: edge count")
    sub.add_argument("--d", type=int, action=_Once, help="regular: degree")
    sub.add_argument("--parts", action=_Once, help="multipartite: sizes, e.g. 3,3,3")
    sub.add_argument("--graph-seed", type=_seed, action=_Once,
                     help="seed for gnm/regular families")


def _required(ns: argparse.Namespace, context: str, *flags: str) -> list:
    """The values of `flags` in order; a missing one is "<context> requires --<flag>"."""
    values = []
    for flag in flags:
        value = getattr(ns, flag.replace("-", "_"))
        if value is None:
            raise _UsageError(f"{context} requires --{flag}")
        values.append(value)
    return values


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise _UsageError(f"{flag} expects comma-separated integers, got {text!r}")


def _family_graph(ns: argparse.Namespace) -> Graph:
    build, flags = _FAMILY_SPECS[ns.family]
    params = _required(ns, f"--family {ns.family}", *flags)
    if ns.family == "multipartite":
        params = [tuple(_parse_int_list(params[0], "--parts"))]
    return build(*params)


def _graph_from_args(ns: argparse.Namespace) -> Graph:
    if ns.g6 is not None:
        return parse_graph6(ns.g6)
    if ns.edges is not None:
        try:
            text = Path(ns.edges).read_text()
        except OSError as exc:
            raise _UsageError(f"cannot read --edges file {ns.edges!r}: {exc.strerror}")
        return parse_edge_list(text)
    return _family_graph(ns)


def _json(value) -> str:
    """One JSON line; every JSON output goes through here.

    Rationals become "num/den", a dict is written with its keys sorted and
    made strings (so probs and counts run in numeric order), a dataclass
    becomes its fields in declaration order, and any other value is
    written as json writes it.
    """

    def plain(v):
        if isinstance(v, Fraction):
            return format_fraction(v)
        if isinstance(v, float) and math.isinf(v):
            return None  # JSON has no infinity: a decay row with p1_hat 0 writes null
        if isinstance(v, dict):
            return {str(k): plain(v[k]) for k in sorted(v)}
        if dataclasses.is_dataclass(v):
            return {f.name: plain(getattr(v, f.name)) for f in dataclasses.fields(v)}
        return v

    return json.dumps(plain(value))


def _distribution_output(dist: ForestDistribution, fmt: str) -> str:
    if fmt == "text":
        return "\n".join(
            f"{k} {format_fraction(dist.probs[k])}" for k in sorted(dist.probs)
        )
    return _json(dist)


def _value_output(value: Fraction, fmt: str) -> str:
    if fmt == "text":
        return format_fraction(value)
    return _json({"value": value})


# --- subcommand handlers ---


def _cmd_poly(ns: argparse.Namespace) -> str:
    if ns.method == "closed":
        if ns.family not in ("kn", "kst", "path"):
            raise _UsageError("--method closed supports --family kn, kst, or path")
        formula, flags, output = _CLOSED_FORMULAS[ns.family]
        params = _required(ns, f"--family {ns.family}", *flags)
        if ns.family == "path":
            # --n counts vertices here, the formula counts edges
            if params[0] < 2:
                raise _UsageError("closed path polynomial needs --n >= 2 vertices")
            params[0] -= 1
        return output(formula(*params), ns.format)
    g = _graph_from_args(ns)
    dist = brute_force_distribution(g) if ns.method == "brute" else forest_polynomial(g)
    return _distribution_output(dist, ns.format)


# scalar graph command -> (help text, value function)
_GRAPH_VALUES = {
    "expect": ("exact expected component count", expected_components),
    "one-comp": ("exact single-component probability", single_component_probability),
    "cheeger": ("exact Cheeger constant", cheeger_constant),
}


def _cmd_value(ns: argparse.Namespace) -> str:
    _help, value = _GRAPH_VALUES[ns.command]
    return _value_output(value(_graph_from_args(ns)), ns.format)


# closed formula -> (closedforms function, required flags in argument order, output)
_CLOSED_FORMULAS = {
    "kn": (closedforms.complete_distribution, ("n",), _distribution_output),
    "kst": (closedforms.bipartite_distribution, ("s", "t"), _distribution_output),
    "path": (closedforms.path_distribution, ("n",), _distribution_output),
    "cycle1": (closedforms.cycle_single_component, ("n",), _value_output),
    "gnm-expect": (closedforms.gnm_expected_components, ("n", "m"), _value_output),
    "gnm-bound": (closedforms.gnm_expectation_lower_bound, ("n", "m"), _value_output),
    "q": (closedforms.bipartite_q, ("s", "t", "a", "b", "l"), _value_output),
}


def _cmd_closed(ns: argparse.Namespace) -> str:
    formula, flags, output = _CLOSED_FORMULAS[ns.formula]
    return output(formula(*_required(ns, f"closed {ns.formula}", *flags)), ns.format)


def _cmd_simulate(ns: argparse.Namespace) -> str:
    est = montecarlo.estimate_distribution(_graph_from_args(ns), ns.trials, ns.seed)
    if ns.format == "text":
        lines = [f"{k} {est.counts[k]}" for k in sorted(est.counts)]
        lines.append(f"mean {est.mean_kappa!r}")
        lines.append(f"stderr {est.stderr_kappa!r}")
        return "\n".join(lines)
    return _json(est)


def _cmd_gnm_sim(ns: argparse.Namespace) -> str:
    mean, stderr = montecarlo.estimate_gnm_expectation(
        ns.n, ns.m, ns.graph_samples, ns.orderings, ns.seed
    )
    if ns.format == "text":
        return f"mean {mean!r}\nstderr {stderr!r}"
    return _json({"mean": mean, "stderr": stderr})


def _decay_csv(rows: list[montecarlo.DecayRow]) -> str:
    """Header plus one line per row; an unknown Cheeger value is left blank."""
    lines = ["n,p1_hat,neg_log_p1_over_n,cheeger"]
    for row in rows:
        cheeger = "" if row.cheeger is None else format_fraction(row.cheeger)
        lines.append(f"{row.n},{row.p1_hat!r},{row.neg_log_p1_over_n!r},{cheeger}")
    return "\n".join(lines)


def _cmd_decay(ns: argparse.Namespace) -> str:
    n_values = _parse_int_list(ns.n_values, "--n-values")
    rows = montecarlo.single_component_decay(ns.d, n_values, ns.trials, ns.seed)
    if ns.format == "csv":
        return _decay_csv(rows)
    return "\n".join(_json(row) for row in rows)


# search -> report finder taking --n
_PAIR_SEARCHES = {
    "pairs": search.find_equal_polynomial_pairs,
    "twins": search.find_edge_degree_twins,
    "trees": search.find_tree_pairs,
}


def _cmd_search(ns: argparse.Namespace) -> str:
    context = f"search {ns.what}"
    unused = "n" if ns.what == "logconcave" else "max-n"
    if getattr(ns, unused.replace("-", "_")) is not None:
        raise _UsageError(f"{context} does not take --{unused}")
    if ns.what == "logconcave":
        violations = search.sweep_log_concavity(*_required(ns, context, "max-n"))
        return "\n".join(_json({"graph6": serialize_graph6(g)}) for g in violations)
    reports = _PAIR_SEARCHES[ns.what](*_required(ns, context, "n"))
    return "\n".join(_json(r) for r in reports)


def _cmd_conjecture(ns: argparse.Namespace) -> str:
    report = search.check_conjecture(ns.k)
    if ns.format == "text":
        return "holds" if report.holds else "differs"
    return _json(report)


def _cmd_table(ns: argparse.Namespace) -> str:
    small = ns.which == "small-graphs"
    kind, label = ("connected", "connected classes") if small else ("tree", "trees")
    lines = []
    for n, classes in search._classes(kind, 2, ns.max_n):
        if ns.verbose:
            print(f"n={n}: {len(classes)} {label}", file=sys.stderr)
        for key, g in classes:
            lines.append(_json({"graph6": key, "polynomial": forest_polynomial(g)}))
    return "\n".join(lines)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forestbuilder",
        description="Exact and Monte Carlo analysis of the forest-building process",
    )
    parser.add_argument("--verbose", action="store_true",
                        help="progress notes on standard error")
    subs = parser.add_subparsers(dest="command", required=True)

    def fmt(sub, choices=("json", "text"), default="json"):
        sub.add_argument("--format", action=_Once, choices=list(choices), default=default)

    sub = subs.add_parser("poly", help="exact component-count distribution")
    _add_source_flags(sub)
    sub.add_argument("--method", action=_Once, choices=["exact", "brute", "closed"],
                     default="exact")
    fmt(sub)
    sub.set_defaults(handler=_cmd_poly)

    for command, (text, _value) in _GRAPH_VALUES.items():
        sub = subs.add_parser(command, help=text)
        _add_source_flags(sub)
        fmt(sub)
        sub.set_defaults(handler=_cmd_value)

    sub = subs.add_parser("closed", help="closed-form values")
    sub.add_argument("formula", choices=list(_CLOSED_FORMULAS))
    for flag in ("n", "s", "t", "a", "b", "m"):
        sub.add_argument(f"--{flag}", type=int, action=_Once)
    sub.add_argument("--l", type=int, action=_Once, help="q: tree count argument")
    fmt(sub)
    sub.set_defaults(handler=_cmd_closed)

    sub = subs.add_parser("simulate", help="seeded Monte Carlo distribution estimate")
    _add_source_flags(sub)
    sub.add_argument("--trials", type=int, action=_Once, required=True)
    sub.add_argument("--seed", type=_seed, action=_Once, required=True)
    fmt(sub)
    sub.set_defaults(handler=_cmd_simulate)

    sub = subs.add_parser("gnm-sim", help="estimate E(kappa) over G(n,m)")
    sub.add_argument("--n", type=int, action=_Once, required=True)
    sub.add_argument("--m", type=int, action=_Once, required=True)
    sub.add_argument("--graph-samples", type=int, action=_Once, required=True)
    sub.add_argument("--orderings", type=int, action=_Once, required=True)
    sub.add_argument("--seed", type=_seed, action=_Once, required=True)
    fmt(sub)
    sub.set_defaults(handler=_cmd_gnm_sim)

    sub = subs.add_parser("decay", help="one-component decay on random regular graphs")
    sub.add_argument("--d", type=int, action=_Once, required=True)
    sub.add_argument("--n-values", action=_Once, required=True, metavar="N1,N2,...")
    sub.add_argument("--trials", type=int, action=_Once, required=True)
    sub.add_argument("--seed", type=_seed, action=_Once, required=True)
    fmt(sub, choices=("json", "csv"))
    sub.set_defaults(handler=_cmd_decay)

    sub = subs.add_parser("search", help="exhaustive small-graph searches")
    sub.add_argument("what", choices=[*_PAIR_SEARCHES, "logconcave"])
    sub.add_argument("--n", type=int, action=_Once)
    sub.add_argument("--max-n", type=int, action=_Once)
    fmt(sub, choices=("json",))
    sub.set_defaults(handler=_cmd_search)

    sub = subs.add_parser("conjecture", help="compare G_{2k+1} with K_{k,k+1}")
    sub.add_argument("--k", type=int, action=_Once, required=True)
    fmt(sub)
    sub.set_defaults(handler=_cmd_conjecture)

    sub = subs.add_parser("table", help="regenerate polynomial tables")
    sub.add_argument("which", choices=["small-graphs", "trees"])
    sub.add_argument("--max-n", type=int, action=_Once, required=True)
    sub.set_defaults(handler=_cmd_table)

    return parser


@contextmanager
def _unlimited_int_digits():
    """Lift CPython's int-to-str digit limit, then restore it.

    Exact rationals can run past the default 4,300 digits.  The limit came
    with 3.11 and the 3.10.7 security release; older builds have none.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)  # under the digit limit: no 4,300-digit flags
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        with _unlimited_int_digits():
            output = ns.handler(ns)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ForestBuilderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:  # e.g. the vertex list of --family multipartite --parts 10^15
        print("error: out of memory for this input", file=sys.stderr)
        return 1
    if output:
        print(output)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
