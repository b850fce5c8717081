"""The benchmark's own tests: quick runs of every workload, repeatable
trace counts, and every correctness check failing on corrupted output."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import qgx.circular  # noqa: E402
from qgx.ga import GenerationStats, config_from_dict, run_ga  # noqa: E402
from qgxbench import checks, layers, runner, workloads  # noqa: E402
from qgxbench.workloads import QUICK, build_inputs, check_pair  # noqa: E402

WORKLOADS = tuple(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_is_correct(workload, tmp_path):
    out = runner.run(workload, 3, 0, False, QUICK, tmp_path)
    report = out["report"]
    assert report["correct"] and report["failed"] == 0, out["failures"]
    assert report["attempted"] > 0
    assert set(report["metrics"]) == set(runner.END_TO_END)
    assert all(m["value"] > 0 for m in report["metrics"].values())


@pytest.mark.parametrize("workload", ["ga-sequence", "verify"])
def test_traced_counts_repeat(workload, tmp_path):
    first, again = (runner.run(workload, 5, 0, True, QUICK, tmp_path) for _ in range(2))
    counts = [name for name, _, _, deterministic, _ in layers.LAYER_METRICS if deterministic]
    counts.append("trace.spans")
    assert {n: first["report"]["metrics"][n]["value"] for n in counts} == {
        n: again["report"]["metrics"][n]["value"] for n in counts
    }
    metrics = first["report"]["metrics"]
    assert [name for name, _, _ in layers.per_layer_spec()] == list(metrics)
    assert metrics["trace.missing"]["value"] == 0
    assert first["report"]["correct"] and first["report"]["failed"] == 0, first["failures"]


def test_missing_wrapper_is_reported_not_fatal():
    tracer = layers.Tracer(
        targets=layers.TARGETS + (
            ("qgx.circular", "no_such_function", "circular.gone", None),
            ("qgx.no_such_module", "f", "nowhere.f", None),
        )
    )
    original = qgx.grouping.hungarian
    with tracer.installed():
        assert qgx.grouping.hungarian is not original
        assert qgx.symmetric.hungarian is qgx.grouping.hungarian
        qgx.grouping.li_distance((1, 2, 1), (2, 1, 2), 2)
    assert qgx.grouping.hungarian is original
    assert tracer.missing == {"circular.gone", "nowhere.f"}
    stats = layers.summarize(tracer.take_spans())
    assert stats["grouping.li_distance"].calls == 1
    assert stats["assignment.hungarian"].calls == 1


def test_times_are_scaled_to_the_reference_speed():
    ref = runner.REFERENCE_S
    assert runner.at_reference_speed(0.5, ref, ref) == pytest.approx(0.5)
    # a machine running at half speed doubles both the call and the reference
    assert runner.at_reference_speed(1.0, 2 * ref, 2 * ref) == pytest.approx(0.5)
    assert runner.reference_s() > 0


def test_self_time_excludes_children():
    spans = [("outer", -1, 0, 100, None), ("inner", 0, 10, 40, None), ("inner", 0, 50, 60, None)]
    stats = layers.summarize(spans)
    assert stats["outer"].self_ns == 60 and stats["outer"].busy_ns == 100
    assert stats["inner"].calls == 2 and stats["inner"].self_ns == 40


# ---------------------------------------------------------------- corrupted outputs

def _ga(workload: str, mode: str = "quotient"):
    inputs = build_inputs(workload, 2, QUICK)
    config = config_from_dict({
        "population": inputs.population, "generations": inputs.generations, "mode": mode, "seed": 4,
    })
    return inputs, run_ga(inputs.problem, config)


def _check(inputs, result):
    return checks.check_ga_result(result, inputs.population, inputs.generations, inputs.valid, inputs.reference)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_ga_check_passes_on_real_output(workload):
    inputs, result = _ga(workload)
    assert _check(inputs, result) == []


def test_ga_check_catches_swapped_cities():
    inputs, result = _ga("ga-tsp")
    tour = list(result.best_genotype)
    tour[0], tour[2] = tour[2], tour[0]
    assert _check(inputs, dataclasses.replace(result, best_genotype=tuple(tour)))


def test_ga_check_catches_wrong_partition():
    inputs, result = _ga("ga-partition")
    labels = list(result.best_genotype)
    labels[0] = labels[0] % QUICK.partition_groups + 1
    assert _check(inputs, dataclasses.replace(result, best_genotype=tuple(labels)))
    labels[0] = QUICK.partition_groups + 1
    assert _check(inputs, dataclasses.replace(result, best_genotype=tuple(labels)))


def test_ga_check_catches_wrong_sequence():
    inputs, result = _ga("ga-sequence")
    assert _check(inputs, dataclasses.replace(result, best_genotype=result.best_genotype + "x"))
    other = "a" if result.best_genotype != "a" else "c"
    assert _check(inputs, dataclasses.replace(result, best_genotype=other * 40))


def test_ga_check_catches_broken_run_bookkeeping():
    inputs, result = _ga("verify")
    stats = list(result.stats)
    stats[-1] = dataclasses.replace(stats[-1], best=stats[0].best + 1.0)
    assert _check(inputs, dataclasses.replace(result, stats=tuple(stats)))
    assert _check(inputs, dataclasses.replace(result, evaluations=result.evaluations + 1))
    assert _check(inputs, dataclasses.replace(result, stats=result.stats[:-1]))
    assert _check(inputs, dataclasses.replace(result, best_genotype=result.best_genotype[:-1]))


def test_repeat_and_replay_checks():
    inputs, result = _ga("ga-tsp")
    same = (result.stats, result.best_genotype)
    assert checks.check_same_run(same, same) == []
    moved = (result.stats[:-1] + (GenerationStats(99, 0.0, 0.0, 0),), result.best_genotype)
    assert checks.check_same_run(same, moved)
    csv = b"generation,best\n1,2\n2,2\n"
    assert checks.check_csv_replay(csv, csv, 2) == []
    assert checks.check_csv_replay(csv, csv.replace(b"2,2", b"2,1"), 2)
    assert checks.check_csv_replay(csv, csv, 3)


def test_verify_output_check():
    ok = "metric: ok (400 checks, 0 violations)\nequivalence[shift(n=7)]: ok (3 checks, 0 violations)\n"
    assert checks.check_verify_output(0, ok) == (403, [])
    assert checks.check_verify_output(1, ok)[1]
    assert checks.check_verify_output(0, "")[1]
    assert checks.check_verify_output(0, "metric: ok (0 checks, 0 violations)")[1]
    failing = "metric: FAIL (400 checks, 2 violations)\n  first counterexample: x"
    assert checks.check_verify_output(0, failing)[1]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_sampled_normalizations_pass(workload):
    for family, x, y, k in build_inputs(workload, 6, QUICK).pairs:
        assert check_pair(family, x, y, k) == [], (family, x, y)


def test_normalization_check_catches_non_rotation(monkeypatch):
    x, y = (1, 2, 3, 4, 5, 6, 7), (3, 1, 2, 5, 4, 7, 6)
    assert check_pair("circular", x, y) == []
    y_star = qgx.circular.normalize(x, y)
    broken = (y_star[1], y_star[0]) + y_star[2:]
    assert checks.check_normalized(x, y, broken, checks.rotations(y), checks.hamming)
    monkeypatch.setattr(qgx.circular, "normalize", lambda a, b, base="hamming": broken)
    assert check_pair("circular", x, y)


def test_normalization_check_catches_a_farther_member():
    x, y = (1, 1, 2, 2, 3, 3), (2, 2, 3, 3, 1, 1)
    assert checks.check_normalized(x, y, y, checks.relabelings(y, 3), checks.hamming)
    rng = np.random.default_rng(0)
    a = tuple(float(v) for v in rng.uniform(-5, 5, 5))
    b = tuple(float(v) for v in rng.uniform(-5, 5, 5))
    y_star, dist = qgx.symmetric.normalize_real(a, b)
    assert checks.check_normalized(a, b, y_star, checks.shuffles(b), checks.euclidean, dist) == []
    assert checks.check_normalized(a, b, y_star, checks.shuffles(b), checks.euclidean, dist + 0.5)
    g = ((0, 1, 0), (1, 0, 1), (0, 1, 0))
    assert checks.check_normalized(g, g, ((0, 1, 1), (1, 0, 0), (1, 0, 0)),
                                   checks.node_relabelings(g), checks.cell_hamming)


def test_alignment_check():
    assert checks.check_alignment("agcacaca", "acacacta", "agcacac-a", "a-cacacta") == []
    assert checks.check_alignment("agcacaca", "acacacta", "agcacaca", "acacacta")
    assert checks.check_alignment("agcacaca", "acacacta", "agcacac-a", "a-cacactt")


def test_independent_references():
    assert checks.levenshtein("kitten", "sitting") == 3
    assert checks.levenshtein("", "abc") == 3
    coords = np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 4.0]])
    assert checks.tour_length((1, 2, 3), coords) == pytest.approx(12.0)
    edges = np.array([[0, 1], [1, 2]])
    assert checks.partition_cost((1, 1, 2, 2), edges, 2) == 1.0


# ---------------------------------------------------------------- the command

def _copy_bench(dest: Path, with_sources: bool) -> Path:
    shutil.copytree(BENCH, dest / "bench", ignore=shutil.ignore_patterns("results", "__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return dest


def test_command_prints_the_report_last(tmp_path):
    root = _copy_bench(tmp_path, with_sources=True)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ga-partition", "--seed", "7",
         "--seconds", "0", "--trace", "0", "--quick"],
        cwd=root, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    saved = json.loads((root / "bench" / "results" / "ga-partition-seed7-quick.json").read_text())
    assert saved["seed"] == 7 and saved["report"] == report


def test_command_fails_without_sources(tmp_path):
    root = _copy_bench(tmp_path, with_sources=False)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ga-tsp", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == runner.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.per_layer_spec()
