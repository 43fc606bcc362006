"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import forestbuilder.engine  # noqa: E402
import run  # noqa: E402
from spans import BENCH_LAYER, Boundary, Tracer, combine  # noqa: E402
from workloads import JOBS, SIZES, WORKLOADS, Checks, Clock  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# self-time shares that partition a traced round: one per layer, with the
# leaf boundaries standing for their layers, and the benchmark's own time
LAYER_SHARES = (
    "canon.share", "graph6.serialize_share", "graph6.parse_share", "engine.share",
    "graphs.share", "distribution.convolve_share", "search.share", "rng.share",
    "montecarlo.share", "trace.unattributed_share",
)


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
           "--seed", "5", "--seconds", "0.2", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_listed_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], (int, float))
        if not trace:
            assert emitted["value"] > 0
        elif m["unit"] == "count":
            assert isinstance(emitted["value"], int)


def _corrupt_exact(result):
    result["cubic_one"][0] += 1


def _corrupt_sweep(result):
    result["pairs"].pop()


def _corrupt_montecarlo(result):
    counts = result["tripartite"].counts
    counts[1] = counts.get(1, 0) + 1


@pytest.mark.parametrize("workload, corrupt", [
    ("exact", _corrupt_exact),
    ("sweep", _corrupt_sweep),
    ("montecarlo", _corrupt_montecarlo),
])
def test_corrupted_result_raises_error_rate(workload, corrupt):
    size = SIZES["smoke"]
    w = WORKLOADS[workload]
    inputs = w.make_inputs(5, size)
    result = w.run_round(inputs, 0, Clock())
    clean = Checks()
    w.check(inputs, result, size, clean)
    assert clean.attempted > 0 and not clean.failures
    corrupt(result)
    checks = Checks()
    w.check(inputs, result, size, checks)
    assert len(checks.failures) / checks.attempted > 0


def test_second_seed_passes_every_check():
    size = SIZES["smoke"]
    for w in WORKLOADS.values():
        for seed in (5, 6):
            inputs = w.make_inputs(seed, size)
            checks = Checks()
            w.check(inputs, w.run_round(inputs, 0, Clock()), size, checks)
            assert not checks.failures


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_layer_self_times_add_up_to_the_traced_round(workload):
    w = WORKLOADS[workload]
    size = SIZES["smoke"]
    checks = Checks()
    untraced, traced, tracer, result = run.round_pair(w, w.make_inputs(5, size), size, 0, checks)
    assert checks.attempted > 0 and not checks.failures
    metrics = run.layer_metrics(tracer.summary(), traced, untraced, result)
    assert sum(metrics[name][0] for name in LAYER_SHARES) == pytest.approx(1.0, rel=1e-9)
    jobs = sum(metrics[f"job.{job}.share"][0] for job in JOBS)
    assert jobs == pytest.approx(1.0, rel=1e-9)


def test_tracer_restores_originals_and_reports_missing_boundaries():
    original = forestbuilder.engine.canonical_data
    boundaries = (
        Boundary("canon", "canon.canonical_data", "forestbuilder.engine", "canonical_data"),
        Boundary("canon", "canon.gone", "forestbuilder.canon", "no_such_function"),
        Boundary("canon", "canon.gone", "forestbuilder.no_such_module", "f"),
    )
    tracer = Tracer(boundaries)
    with tracer.installed():
        assert forestbuilder.engine.canonical_data is not original
        with tracer.span(BENCH_LAYER, "job"):
            forestbuilder.engine.PolynomialEngine().distribution(
                WORKLOADS["exact"].make_inputs(1, SIZES["smoke"])[0]["tripartite"])
    assert forestbuilder.engine.canonical_data is original
    assert tracer.not_seen == [
        "forestbuilder.canon.no_such_function", "forestbuilder.no_such_module.f"]
    s = combine(tracer.summary(), ["job"])
    assert s["calls"]["canon.canonical_data"] > 0
    root = s["inclusive"]["job"]
    assert sum(s["layer_self"].values()) == pytest.approx(root, rel=1e-9)


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("exact", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
