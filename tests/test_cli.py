"""Command line behavior: output shapes, determinism, exit codes."""

import json
import sys
from fractions import Fraction
from math import factorial

from forestbuilder import families
from forestbuilder.cli import _FAMILIES, _unlimited_int_digits, run
from forestbuilder.distribution import format_fraction
from forestbuilder.engine import forest_polynomial
from forestbuilder.graph6 import parse_graph6
from forestbuilder.montecarlo import single_component_decay


def _ok(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


def test_poly_exact_json(capsys):
    out = _ok(capsys, ["poly", "--family", "kn", "--n", "4"])
    assert json.loads(out) == {"n": 4, "m": 6, "probs": {"1": "4/5", "2": "1/5"}}


def test_poly_text_format(capsys):
    out = _ok(capsys, ["poly", "--family", "kn", "--n", "4", "--format", "text"])
    assert out == "1 4/5\n2 1/5\n"


def test_poly_brute_graph6_agrees(capsys):
    brute = _ok(capsys, ["poly", "--g6", "C~", "--method", "brute"])
    exact = _ok(capsys, ["poly", "--family", "kn", "--n", "4"])
    assert json.loads(brute)["probs"] == json.loads(exact)["probs"]


def test_poly_closed_method_counts_vertices(capsys):
    out = _ok(capsys, ["poly", "--family", "kst", "--s", "2", "--t", "3",
                       "--method", "closed"])
    assert json.loads(out)["probs"] == {"1": "1/2", "2": "1/2"}
    # --n is the vertex count here: a 6-vertex path has 5 edges
    out = _ok(capsys, ["poly", "--family", "path", "--n", "6", "--method", "closed"])
    assert json.loads(out)["probs"] == {"1": "2/15", "2": "11/15", "3": "2/15"}
    out = _ok(capsys, ["poly", "--method", "closed", "--family", "kn", "--n", "5"])
    assert out == _ok(capsys, ["closed", "kn", "--n", "5"])


def test_poly_closed_method_rejects_other_families(capsys):
    assert run(["poly", "--family", "cycle", "--n", "5", "--method", "closed"]) == 2
    assert "usage error" in capsys.readouterr().err
    assert run(["poly", "--family", "path", "--n", "1", "--method", "closed"]) == 2
    assert capsys.readouterr().err == (
        "usage error: closed path polynomial needs --n >= 2 vertices\n"
    )


def test_poly_from_edge_list_file(capsys, tmp_path):
    source = tmp_path / "path.txt"
    source.write_text("4 3\n0 1\n1 2\n2 3\n")
    out = _ok(capsys, ["poly", "--edges", str(source)])
    assert json.loads(out)["probs"] == {"1": "2/3", "2": "1/3"}


def test_expect_and_one_comp_and_cheeger(capsys):
    assert _ok(capsys, ["expect", "--family", "kn", "--n", "4"]) == '{"value": "6/5"}\n'
    out = _ok(capsys, ["expect", "--family", "kn", "--n", "4", "--format", "text"])
    assert out == "6/5\n"
    out = _ok(capsys, ["one-comp", "--g6", "C~", "--format", "text"])
    assert out == "4/5\n"
    out = _ok(capsys, ["cheeger", "--family", "cycle", "--n", "4", "--format", "text"])
    assert out == "1/2\n"


def test_closed_formula_values(capsys):
    out = _ok(capsys, ["closed", "kn", "--n", "5"])
    assert json.loads(out)["probs"] == {"1": "4/7", "2": "3/7"}
    out = _ok(capsys, ["closed", "q", "--s", "2", "--t", "2", "--a", "2",
                       "--b", "2", "--l", "1", "--format", "text"])
    assert out == "2/3\n"
    out = _ok(capsys, ["closed", "cycle1", "--n", "4", "--format", "text"])
    assert out == "2/3\n"
    out = _ok(capsys, ["closed", "gnm-expect", "--n", "4", "--m", "6",
                       "--format", "text"])
    assert out == "6/5\n"
    out = _ok(capsys, ["closed", "gnm-bound", "--n", "5", "--m", "3",
                       "--format", "text"])
    assert out == "9/7\n"
    # unlike poly --method closed, the path formula takes the edge count
    out = _ok(capsys, ["closed", "path", "--n", "5"])
    assert json.loads(out)["probs"] == {"1": "2/15", "2": "11/15", "3": "2/15"}


def test_closed_value_past_the_int_digit_limit(capsys):
    # P(C_n has one component) = n 2^(n-2) / n!: past 4,300 digits at n = 2000
    n = 2000
    # 0 where the interpreter has no limit, or where it is switched off
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    out = _ok(capsys, ["closed", "cycle1", "--n", str(n), "--format", "text"])
    assert len(out) > 4300
    with _unlimited_int_digits():
        assert Fraction(out) == Fraction(n * 2 ** (n - 2), factorial(n))
    if limit:
        # the limit is back, and flags are still parsed under it
        assert sys.get_int_max_str_digits() == limit
        assert run(["closed", "cycle1", "--n", "1" * (limit + 1)]) == 2
        assert "invalid int value" in capsys.readouterr().err


def test_closed_missing_argument(capsys):
    assert run(["closed", "kst", "--s", "2"]) == 2
    assert "requires --t" in capsys.readouterr().err


def test_simulate_deterministic(capsys):
    argv = ["simulate", "--family", "kn", "--n", "4", "--trials", "200", "--seed", "7"]
    first = _ok(capsys, argv)
    payload = json.loads(first)
    assert payload["trials"] == 200 and payload["seed"] == 7
    assert sum(payload["counts"].values()) == 200
    assert _ok(capsys, argv) == first
    text = _ok(capsys, argv + ["--format", "text"])
    assert text.splitlines()[-2].startswith("mean ")


def test_seeded_outputs_are_pinned(capsys):
    # the exact streams, not only their determinism: a change to the
    # process scan, the shuffle or the seed derivation shows up here
    out = _ok(capsys, ["simulate", "--family", "kn", "--n", "4", "--trials", "200",
                       "--seed", "7", "--format", "text"])
    assert out == "1 166\n2 34\nmean 1.17\nstderr 0.026561249970586873\n"
    # exact JSON bytes, not json.loads: fields in declaration order, counts in key order
    out = _ok(capsys, ["simulate", "--family", "kn", "--n", "4", "--trials", "200",
                       "--seed", "7"])
    assert out == (
        '{"trials": 200, "seed": 7, "counts": {"1": 166, "2": 34}, '
        '"mean_kappa": 1.17, "stderr_kappa": 0.026561249970586873}\n'
    )
    out = _ok(capsys, ["gnm-sim", "--n", "6", "--m", "7", "--graph-samples", "5",
                       "--orderings", "10", "--seed", "1"])
    assert out == '{"mean": 1.72, "stderr": 0.07504665215717495}\n'
    out = _ok(capsys, ["gnm-sim", "--n", "6", "--m", "7", "--graph-samples", "5",
                       "--orderings", "10", "--seed", "1", "--format", "text"])
    assert out == "mean 1.72\nstderr 0.07504665215717495\n"
    out = _ok(capsys, ["decay", "--d", "3", "--n-values", "6,8", "--trials", "200",
                       "--seed", "3", "--format", "csv"])
    assert out == (
        "n,p1_hat,neg_log_p1_over_n,cheeger\n"
        "6,0.295,0.2034633204403862,1/3\n"
        "8,0.055,0.36255276171870826,1/3\n"
    )


def test_a_long_seeded_stream_is_pinned(capsys):
    # a 600-stub and 300 300-edge shuffles, each crossing draw-block edges
    out = _ok(capsys, ["simulate", "--family", "regular", "--n", "200", "--d", "3",
                       "--graph-seed", "1", "--trials", "300", "--seed", "5"])
    assert out == (
        '{"trials": 300, "seed": 5, "counts": {"50": 1, "52": 1, "54": 8, "55": 9, '
        '"56": 17, "57": 30, "58": 30, "59": 31, "60": 31, "61": 32, "62": 35, '
        '"63": 22, "64": 21, "65": 14, "66": 7, "67": 4, "68": 6, "70": 1}, '
        '"mean_kappa": 60.3, "stderr_kappa": 0.1923827204067755}\n'
    )


def test_simulate_regular_of_degree_n_minus_one_is_k_n(capsys):
    regular = _ok(capsys, ["simulate", "--family", "regular", "--n", "8", "--d", "7",
                           "--graph-seed", "1", "--trials", "200", "--seed", "3"])
    assert regular == _ok(capsys, ["simulate", "--family", "kn", "--n", "8",
                                   "--trials", "200", "--seed", "3"])


def test_poly_json_keys_run_in_numeric_order(capsys):
    # eleven terms: string order would put "10" and "11" before "2"
    out = _ok(capsys, ["poly", "--family", "path", "--n", "22", "--method", "closed"])
    assert out == (
        '{"n": 22, "m": 21, "probs": {"1": "4/194896477400625", '
        '"2": "419422/38979295480125", "3": "633484/47593767375", '
        '"4": "16675245148/12993098493375", "5": "6913638092/265165275375", '
        '"6": "72400911257/441942125625", "7": "694829440808/1856156927625", '
        '"8": "4220088438688/12993098493375", "9": "436158357364/4331032831125", '
        '"10": "49399835278/5568470782875", "11": "18888466084/194896477400625"}}\n'
    )


def test_gnm_sim_deterministic(capsys):
    argv = ["gnm-sim", "--n", "4", "--m", "3", "--graph-samples", "5",
            "--orderings", "10", "--seed", "1"]
    first = _ok(capsys, argv)
    payload = json.loads(first)
    assert set(payload) == {"mean", "stderr"}
    assert _ok(capsys, argv) == first


def test_decay_json_and_csv(capsys):
    # n = 22 has no one-component hit and is past the Cheeger cap: null in
    # JSON, "inf" and a blank in CSV
    argv = ["decay", "--d", "2", "--n-values", "5,22", "--trials", "50", "--seed", "3"]
    assert _ok(capsys, argv) == (
        '{"n": 5, "p1_hat": 0.28, "neg_log_p1_over_n": 0.2545931351625775, "cheeger": "1/2"}\n'
        '{"n": 22, "p1_hat": 0.0, "neg_log_p1_over_n": null, "cheeger": null}\n'
    )
    csv_out = _ok(capsys, argv + ["--format", "csv"])
    assert csv_out == (
        "n,p1_hat,neg_log_p1_over_n,cheeger\n"
        "5,0.28,0.2545931351625775,1/2\n"
        "22,0.0,inf,\n"
    )
    # the CSV floats read back as the rows' own values
    rows = single_component_decay(2, [5, 22], 50, seed=3)
    for row, line in zip(rows, csv_out.splitlines()[1:]):
        n, p1_hat, rate, _ = line.split(",")
        assert (int(n), float(p1_hat), float(rate)) == (row.n, row.p1_hat, row.neg_log_p1_over_n)
    # p1_hat = 1 gives the rate 0.0, not -0.0
    argv = ["decay", "--d", "2", "--n-values", "3", "--trials", "20", "--seed", "1"]
    assert _ok(capsys, argv) == (
        '{"n": 3, "p1_hat": 1.0, "neg_log_p1_over_n": 0.0, "cheeger": "1/1"}\n'
    )
    assert _ok(capsys, argv + ["--format", "csv"]) == (
        "n,p1_hat,neg_log_p1_over_n,cheeger\n3,1.0,0.0,1/1\n"
    )


def test_search_pairs_and_empty_outputs(capsys):
    out = _ok(capsys, ["search", "pairs", "--n", "4"])
    lines = [json.loads(line) for line in out.splitlines()]
    assert [(r["graph6_a"], r["graph6_b"]) for r in lines] == [
        ("Cq", "Cr"), ("C}", "C~")
    ]
    assert _ok(capsys, ["search", "pairs", "--n", "3"]) == (
        '{"graph6_a": "Bo", "graph6_b": "Bw", '
        '"shared_polynomial": {"n": 3, "m": 2, "probs": {"1": "1/1"}}, '
        '"explained_by_corollary4": true}\n'
    )
    assert _ok(capsys, ["search", "twins", "--n", "4"]) == ""
    assert _ok(capsys, ["search", "trees", "--n", "7"]) == ""
    assert _ok(capsys, ["search", "logconcave", "--max-n", "4"]) == ""


def test_search_twins_prints_the_pinned_twins(capsys, edge_degree_twins_6):
    out = _ok(capsys, ["search", "twins", "--n", "6"])
    rows = [json.loads(line) for line in out.splitlines()]
    assert [(r["graph6_a"], r["graph6_b"], r["expected_components"]) for r in rows] == [
        (a, b, format_fraction(e)) for a, b, e in edge_degree_twins_6
    ]


def test_search_requires_size_flags(capsys):
    assert run(["search", "pairs"]) == 2
    assert "requires --n" in capsys.readouterr().err
    assert run(["search", "logconcave"]) == 2
    assert "requires --max-n" in capsys.readouterr().err


def test_search_prints_json_only(capsys):
    # --format json is the default; no other format is accepted
    out = _ok(capsys, ["search", "pairs", "--n", "4"])
    assert _ok(capsys, ["search", "pairs", "--n", "4", "--format", "json"]) == out
    for argv in (["pairs", "--n", "4"], ["logconcave", "--max-n", "4"]):
        assert run(["search", *argv, "--format", "text"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--format: invalid choice" in captured.err


def test_conjecture_output(capsys):
    assert _ok(capsys, ["conjecture", "--k", "2"]) == (
        '{"k": 2, "holds": true, '
        '"plus_edge_polynomial": {"n": 5, "m": 7, "probs": {"1": "1/2", "2": "1/2"}}, '
        '"bipartite_polynomial": {"n": 5, "m": 6, "probs": {"1": "1/2", "2": "1/2"}}}\n'
    )
    assert _ok(capsys, ["conjecture", "--k", "2", "--format", "text"]) == "holds\n"


def test_table_outputs(capsys):
    assert _ok(capsys, ["table", "trees", "--max-n", "3"]) == (
        '{"graph6": "A_", "polynomial": {"n": 2, "m": 1, "probs": {"1": "1/1"}}}\n'
        '{"graph6": "Bo", "polynomial": {"n": 3, "m": 2, "probs": {"1": "1/1"}}}\n'
    )
    out = _ok(capsys, ["table", "trees", "--max-n", "4"])
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 4
    assert all(set(row) == {"graph6", "polynomial"} for row in rows)
    out = _ok(capsys, ["table", "small-graphs", "--max-n", "3"])
    assert len(out.splitlines()) == 3


def test_table_small_graphs_parses_back_to_exact_polynomials(capsys):
    out = _ok(capsys, ["table", "small-graphs", "--max-n", "5"])
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 1 + 2 + 6 + 21
    for row in rows:
        dist = forest_polynomial(parse_graph6(row["graph6"]))
        assert row["polynomial"]["probs"] == {
            str(k): format_fraction(p) for k, p in sorted(dist.probs.items())
        }


def test_poly_nine_vertex_tripartite_flagship(capsys):
    out = _ok(capsys, ["poly", "--family", "multipartite", "--parts", "3,3,3"])
    assert json.loads(out)["probs"] == {
        "1": "1992/26125",
        "2": "11724/26125",
        "3": "10951/26125",
        "4": "1458/26125",
    }


def test_verbose_notes_go_to_stderr(capsys):
    code = run(["--verbose", "table", "small-graphs", "--max-n", "3"])
    captured = capsys.readouterr()
    assert code == 0
    assert "connected classes" in captured.err
    assert "connected classes" not in captured.out


def test_every_family_builds_its_constructor_graph(capsys):
    cases = {
        "kn": (["--n", "5"], families.complete_graph(5)),
        "kst": (["--s", "2", "--t", "3"], families.complete_bipartite(2, 3)),
        "multipartite": (["--parts", "2,2,3"], families.complete_multipartite((2, 2, 3))),
        "path": (["--n", "6"], families.path_graph(6)),
        "cycle": (["--n", "7"], families.cycle_graph(7)),
        "star": (["--n", "4"], families.star_graph(4)),
        "plus-edge": (["--k", "3"], families.balanced_bipartite_plus_edge(3)),
        "gnm": (["--n", "7", "--m", "10", "--graph-seed", "5"], families.gnm_random_graph(7, 10, 5)),
        "regular": (["--n", "8", "--d", "3", "--graph-seed", "2"],
                    families.random_regular_graph(8, 3, 2)),
    }
    assert sorted(cases) == sorted(_FAMILIES)
    for family, (flags, graph) in cases.items():
        out = _ok(capsys, ["poly", "--family", family, *flags, "--format", "text"])
        dist = forest_polynomial(graph)
        assert out == "".join(f"{k} {format_fraction(p)}\n" for k, p in sorted(dist.probs.items()))


def test_random_families_require_a_graph_seed(capsys):
    assert run(["poly", "--family", "gnm", "--n", "5", "--m", "4"]) == 2
    assert "usage error: --family gnm requires --graph-seed" in capsys.readouterr().err
    assert run(["poly", "--family", "regular", "--n", "6", "--d", "3"]) == 2
    assert "usage error: --family regular requires --graph-seed" in capsys.readouterr().err


def test_usage_errors_exit_two(capsys):
    assert run(["poly"]) == 2
    capsys.readouterr()
    assert run(["poly", "--family", "kn", "--n", "4", "--n", "5"]) == 2
    assert "duplicate flag" in capsys.readouterr().err
    assert run(["poly", "--g6", "C~", "--family", "kn"]) == 2
    capsys.readouterr()
    assert run(["poly", "--family", "kn"]) == 2
    assert "requires --n" in capsys.readouterr().err


def test_edge_list_with_non_integer_token_exits_one(capsys, tmp_path):
    source = tmp_path / "bad.txt"
    source.write_text("3 2\n0 1\n1 two\n")
    assert run(["poly", "--edges", str(source)]) == 1
    assert "non-integer" in capsys.readouterr().err


def test_edge_list_with_a_huge_vertex_count_is_solved(capsys, tmp_path):
    # only the vertices that have edges are visited, so 10^15 isolated ones cost nothing
    source = tmp_path / "huge.txt"
    source.write_text("1000000000000000 1\n0 1\n")
    assert run(["poly", "--edges", str(source)]) == 0
    out = '{"n": 1000000000000000, "m": 1, "probs": {"1": "1/1"}}\n'
    assert capsys.readouterr() == (out, "")
    # brute force keys by used edges, so the largest label sizes no table either
    far = tmp_path / "far.txt"
    far.write_text("1000000000000000 1\n0 999999999999999\n")
    for method in ("exact", "brute"):
        for path in (source, far):
            assert run(["poly", "--method", method, "--edges", str(path)]) == 0
            assert capsys.readouterr() == (out, "")
    assert run(["expect", "--edges", str(source)]) == 0
    assert capsys.readouterr() == ('{"value": "1/1"}\n', "")


def test_unreadable_edge_list_file_is_a_usage_error(capsys, tmp_path):
    missing = tmp_path / "missing.txt"
    assert run(["poly", "--edges", str(missing)]) == 2
    assert str(missing) in capsys.readouterr().err
    assert run(["poly", "--edges", str(tmp_path)]) == 2
    assert str(tmp_path) in capsys.readouterr().err


def test_empty_list_items_are_usage_errors(capsys):
    assert run(["poly", "--family", "multipartite", "--parts", "3,,3"]) == 2
    assert "--parts" in capsys.readouterr().err
    assert run(["decay", "--d", "2", "--n-values", "5,", "--trials", "5", "--seed", "3"]) == 2
    assert "--n-values" in capsys.readouterr().err


def test_seeds_outside_sixty_four_bits_are_usage_errors(capsys):
    simulate = ["simulate", "--family", "kn", "--n", "4", "--trials", "20"]
    for seed in ("-1", str(1 << 64)):
        assert run(simulate + ["--seed", seed]) == 2
        assert "0..2^64-1" in capsys.readouterr().err
        gnm = ["poly", "--family", "gnm", "--n", "5", "--m", "4", "--graph-seed", seed]
        assert run(gnm) == 2
        assert "0..2^64-1" in capsys.readouterr().err
    assert run(simulate + ["--seed", str((1 << 64) - 1)]) == 0
    capsys.readouterr()


def test_poly_past_the_matching_budget_exits_one(capsys):
    # K_60 has C(60, 6) = 50,063,860 covered sets of six vertices, past the
    # default 2^20 budget; the closed-form lower bound on the level sizes
    # stops it before any level is built
    assert run(["poly", "--family", "kn", "--n", "60"]) == 1
    assert "matching budget of 1048576 entries exhausted" in capsys.readouterr().err


def test_computation_errors_exit_one(capsys, tmp_path):
    # one invocation per error kind but the memory budget (see above); the CLI prints
    # only the message, so each line is the library's message unchanged
    loop = tmp_path / "loop.txt"
    loop.write_text("2 1\n0 0\n")
    cases = [
        (["poly", "--edges", str(loop)], "self-loop at vertex 0"),
        (["one-comp", "--g6", "C?"], "one-component probability needs at least one edge"),
        (["closed", "kn", "--n", "1"], "complete distribution needs n >= 2"),
        (["poly", "--g6", "~??"], "long-form graph6 (>= 63 vertices) not supported"),
        (["poly", "--method", "brute", "--family", "kn", "--n", "6"],
         "brute force cap is 10 edges, got 15"),
        (["simulate", "--family", "regular", "--n", "24", "--d", "11", "--graph-seed", "1",
          "--trials", "1", "--seed", "1"],
         "no simple pairing found for n=24, d=11 in 10000 tries"),
        # a MemoryError, not a library error: complete_multipartite lists 10^15 vertices
        (["poly", "--family", "multipartite", "--parts", "1000000000000000"],
         "out of memory for this input"),
    ]
    for argv, message in cases:
        assert run(argv) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
    assert run(["poly", "--g6", "A`"]) == 1
    capsys.readouterr()
    assert run(["cheeger", "--family", "kn", "--n", "25"]) == 1
    capsys.readouterr()
    # C(8e9, 2) pairs is more than one 64-bit draw covers
    assert run(["gnm-sim", "--n", "8000000000", "--m", "1", "--graph-samples", "1",
                "--orderings", "1", "--seed", "1"]) == 1
    assert capsys.readouterr().err == (
        "error: gnm draws one of at most 2**64 vertex pairs, got C(8000000000, 2)\n"
    )


def test_decay_json_writes_null_for_an_infinite_rate(capsys):
    argv = ["decay", "--d", "3", "--n-values", "30", "--trials", "20", "--seed", "1"]

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    row = json.loads(_ok(capsys, argv), parse_constant=reject)
    assert row["p1_hat"] == 0 and row["neg_log_p1_over_n"] is None
    csv_row = _ok(capsys, argv + ["--format", "csv"]).splitlines()[1]
    assert csv_row.split(",")[2] == "inf"


def test_table_past_its_cap_fails_before_enumerating(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr("forestbuilder.search._grow", lambda *args: calls.append(args))
    assert run(["table", "small-graphs", "--max-n", "9"]) == 1
    assert capsys.readouterr().err == "error: connected enumeration cap is 2..8\n"
    assert run(["table", "trees", "--max-n", "11"]) == 1
    assert capsys.readouterr().err == "error: tree enumeration cap is 1..10\n"
    assert calls == []


def test_table_below_its_range_fails_before_enumerating(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr("forestbuilder.search._grow", lambda *args: calls.append(args))
    for max_n in ("1", "-3"):
        assert run(["table", "small-graphs", "--max-n", max_n]) == 1
        assert capsys.readouterr().err == "error: connected enumeration cap is 2..8\n"
    assert run(["table", "trees", "--max-n", "0"]) == 1
    assert capsys.readouterr().err == "error: tree enumeration cap is 1..10\n"
    assert calls == []
    # one vertex is a valid tree size; its table is empty
    assert _ok(capsys, ["table", "trees", "--max-n", "1"]) == ""


def test_search_out_of_range_fails_before_enumerating(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr("forestbuilder.search._grow", lambda *args: calls.append(args))
    connected = "error: connected enumeration cap is 2..8\n"
    for argv, err in (
        (["pairs", "--n", "9"], connected),
        (["twins", "--n", "1"], connected),
        (["logconcave", "--max-n", "9"], connected),
        (["logconcave", "--max-n", "1"], connected),
        (["trees", "--n", "11"], "error: tree enumeration cap is 1..10\n"),
    ):
        assert run(["search", *argv]) == 1
        assert capsys.readouterr() == ("", err)
    assert calls == []


def test_decay_rejects_degree_below_one_before_building_a_graph(capsys, monkeypatch):
    built = []
    monkeypatch.setattr("forestbuilder.montecarlo.random_regular_graph",
                        lambda *args: built.append(args))
    for d in ("0", "-2"):
        argv = ["decay", "--d", d, "--n-values", "4", "--trials", "5", "--seed", "1"]
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: needs degree d >= 1, got d = {d}\n"
    assert built == []


def test_search_rejects_the_size_flag_it_does_not_read(capsys):
    for what in ("pairs", "twins", "trees"):
        assert run(["search", what, "--n", "5", "--max-n", "99"]) == 2
        assert capsys.readouterr().err == (
            f"usage error: search {what} does not take --max-n\n"
        )
    assert run(["search", "logconcave", "--max-n", "5", "--n", "3"]) == 2
    assert capsys.readouterr().err == "usage error: search logconcave does not take --n\n"
