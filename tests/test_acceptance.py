"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line
per criterion. Criteria 1-11 are hard gates; criterion 12 is a reported
trend (the comparison claim is qualitative, so only budget fairness is
asserted and the win rate is printed).
"""

import itertools
import math
import time

import numpy as np

from qgx import circular, cli, graphs, grouping, sequences, suites, symmetric
from qgx.assignment import hungarian
from qgx.families import FAMILIES, Options
from qgx.ga import GAConfig, run_ga
from qgx.metrics import hamming_distance
from qgx.problems import partitioning_problem

from oracles import (
    brute_graph_distance,
    exhaustive_li_distance,
    exhaustive_symmetric_real,
    normalize_real_assignment,
    random_string,
    random_symbols,
)

REAL_TOL = 1e-9

FIG3_X, FIG3_Y = (1, 2, 3, 1), (2, 1, 2, 3)
FIG4_A = ((0, 1, 0), (1, 0, 1), (0, 1, 0))
FIG4_B = ((0, 0, 1), (0, 0, 1), (1, 1, 0))
FIG5_X, FIG5_Y = (1.0, 4.0, 5.0), (3.0, 0.0, 6.0)
FIG6_X, FIG6_Y = (2, 4, 5, 1, 6, 3), (4, 6, 1, 5, 3, 2)
WORKED_S, WORKED_T = "agcacaca", "acacacta"

homologous_crossover = FAMILIES["sequence"].quotient_crossover(Options())


def _criterion(num, description, ok, detail=""):
    line = f"ACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {description}"
    if detail:
        line += f" :: {detail}"
    print(line)
    assert ok, line


def _best_time(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_01_grouping_worked_example():
    dist = grouping.li_distance(FIG3_X, FIG3_Y, 3)
    normalized = grouping.li_normalize(FIG3_X, FIG3_Y, 3)
    elapsed = _best_time(lambda: grouping.li_normalize(FIG3_X, FIG3_Y, 3))
    ok = dist == 1 and normalized == (3, 2, 3, 1) and elapsed < 1e-3
    _criterion(
        1, "grouping reproduction",
        ok, f"distance={dist}, normalized={normalized}, {elapsed * 1e6:.0f}us",
    )


def test_criterion_02_graph_worked_example():
    result = graphs.quotient_distance_exact(FIG4_A, FIG4_B)
    rows = [
        graphs.matrix_hamming(FIG4_A, graphs.conjugate(FIG4_B, p))
        for p in itertools.permutations((1, 2, 3))
    ]
    elapsed = _best_time(lambda: graphs.quotient_distance_exact(FIG4_A, FIG4_B))
    ok = result.dist == 0 and rows == [4, 0, 4, 0, 4, 4] and elapsed < 1e-3
    _criterion(2, "graph reproduction", ok, f"distance={result.dist}, rows={rows}")


def test_criterion_03_symmetric_worked_example():
    y_star, dist = symmetric.normalize_real(FIG5_X, FIG5_Y)
    expected_rows = [
        math.sqrt(21), math.sqrt(33), math.sqrt(3), 3.0, math.sqrt(51), 3 * math.sqrt(5)
    ]
    rows = [
        float(np.sqrt(sum((a - b) ** 2 for a, b in zip(FIG5_X, symmetric.permute_coords(FIG5_Y, sigma)))))
        for sigma in itertools.permutations((1, 2, 3))
    ]
    rows_ok = all(abs(r - e) <= REAL_TOL for r, e in zip(rows, expected_rows))
    elapsed = _best_time(lambda: symmetric.normalize_real(FIG5_X, FIG5_Y))
    ok = (
        y_star == (0.0, 3.0, 6.0)
        and abs(dist - math.sqrt(3)) <= REAL_TOL
        and rows_ok
        and elapsed < 1e-3
    )
    _criterion(3, "symmetric-function reproduction", ok, f"normalized={y_star}, dist={dist:.10g}")


def test_criterion_04_circular_worked_example():
    dist = circular.quotient_distance(FIG6_X, FIG6_Y)
    y_star = circular.normalize(FIG6_X, FIG6_Y)
    rows = [hamming_distance(FIG6_X, circular.shift(FIG6_Y, k)) for k in range(6)]
    elapsed = _best_time(lambda: circular.normalize(FIG6_X, FIG6_Y))
    ok = (
        dist == 2
        and y_star == (2, 4, 6, 1, 5, 3)
        and rows == [6, 2, 6, 5, 6, 5]
        and elapsed < 1e-3
    )
    _criterion(4, "circular reproduction", ok, f"distance={dist}, rows={rows}")


def test_criterion_05_alignment_worked_example():
    alignment = sequences.optimal_align(WORKED_S, WORKED_T)
    edit = sequences.edit_distance(WORKED_S, WORKED_T)
    mismatches = hamming_distance(alignment.left, alignment.right)
    ok = (
        mismatches == 2
        and edit == 2
        and sequences.unstretch(alignment.left) == WORKED_S
        and sequences.unstretch(alignment.right) == WORKED_T
    )
    _criterion(
        5, "alignment reproduction", ok,
        f"alignment=({alignment.left}, {alignment.right}), mismatches={mismatches}",
    )


def test_criterion_06_proposition_suites():
    t0 = time.perf_counter()
    families = ("grouping", "graph", "symmetric-real", "symmetric-discrete", "circular")
    per_check = 3500  # 3 checks per family: >= 10^4 sampled triples each
    failures = []
    for family in families:
        reports = suites.group_suite(family, per_check, seed=606)
        reports.append(suites.quotient_suite(family, per_check, seed=607))
        sampled = sum(r.checks for r in reports)
        assert sampled >= 10_000
        failures += [r for r in reports if not r.ok]
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    detail = f"{len(families)} families, zero violations, {elapsed:.1f}s"
    if failures:
        detail = "; ".join(r.line() for r in failures)
    _criterion(6, "proposition suites (equivalence/isometry/quotient metric)", ok, detail)


def test_criterion_07_quotient_segment_membership():
    t0 = time.perf_counter()
    families = ("grouping", "graph", "symmetric-real", "symmetric-discrete", "circular")
    failures = []
    for family in families:
        report = suites.segment_suite(family, 500, seed=707)
        assert report.checks == 500
        if not report.ok:
            failures.append(report)
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    detail = f"500 offspring x {len(families)} families, {elapsed:.1f}s"
    if failures:
        detail = "; ".join(r.line() for r in failures)
    _criterion(7, "induced offspring stay in the quotient segment", ok, detail)


def test_criterion_08_oracle_equivalence():
    rng = np.random.default_rng(808)
    mismatches = 0

    for _ in range(200):
        k = int(rng.integers(2, 7))
        n = int(rng.integers(1, 9))
        a, b = random_symbols(rng, n, k), random_symbols(rng, n, k)
        if grouping.li_distance(a, b, k) != exhaustive_li_distance(a, b, k):
            mismatches += 1

    for _ in range(200):
        n = int(rng.integers(1, 7))
        x = tuple(float(v) for v in rng.uniform(-5, 5, size=n))
        y = tuple(float(v) for v in rng.uniform(-5, 5, size=n))
        enum = exhaustive_symmetric_real(x, y)
        _, by_sort = symmetric.normalize_real(x, y)
        _, by_assignment = normalize_real_assignment(x, y)
        if abs(by_sort - enum) > REAL_TOL or abs(by_assignment - enum) > REAL_TOL:
            mismatches += 1

    for _ in range(100):
        n = int(rng.integers(2, 6))
        a = graphs.random_adjacency(n, 0.5, rng)
        b = graphs.random_adjacency(n, 0.5, rng)
        if graphs.quotient_distance_exact(a, b).dist != brute_graph_distance(a, b):
            mismatches += 1

    _criterion(8, "fast routes equal exhaustive oracles", mismatches == 0,
               f"500 comparisons, {mismatches} discrepancies")


def test_criterion_09_homologous_segment_property():
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)
    violations = 0
    for _ in range(500):
        s = random_string(rng, 12)
        t = random_string(rng, 12)
        child = homologous_crossover(s, t, rng)
        lhs = sequences.edit_distance(s, child) + sequences.edit_distance(child, t)
        if lhs != sequences.edit_distance(s, t):
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 30.0
    _criterion(9, "homologous crossover edit-triangle equality", ok,
               f"500 pairs, {violations} violations, {elapsed:.1f}s")


def test_criterion_10_ga_replay_determinism(tmp_path):
    config = "configs/partitioning_demo.json"
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.csv"
        code = cli.main(["ga", "--config", config, "--out", str(out)])
        assert code == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1]
    _criterion(10, "GA CSV replay is byte-identical across runs", ok,
               f"{len(outputs[0])} bytes")


def test_criterion_11_performance_floor():
    rng = np.random.default_rng(1111)
    cost = rng.integers(0, 1000, size=(200, 200))
    hungarian_time = _best_time(lambda: hungarian(cost), repeats=3)

    s = "".join("acgt"[int(i)] for i in rng.integers(0, 4, size=2000))
    t = "".join("acgt"[int(i)] for i in rng.integers(0, 4, size=2000))
    edit_time = _best_time(lambda: sequences.edit_distance(s, t), repeats=3)
    # a full pure-Python alignment table takes seconds at this size
    align_time = _best_time(lambda: sequences.optimal_align(s, t), repeats=3)

    x = tuple(int(v) + 1 for v in rng.permutation(1000))
    y = tuple(int(v) + 1 for v in rng.permutation(1000))
    # a scan of all n rotations takes tens of milliseconds at this size
    rotate_time = _best_time(lambda: circular.normalize(x, y), repeats=3)

    ok = (hungarian_time < 1.0 and edit_time < 1.0 and align_time < 0.25
          and rotate_time < 0.02)
    _criterion(11, "performance floor", ok,
               f"hungarian 200x200 {hungarian_time * 1e3:.0f}ms, "
               f"edit 2000x2000 {edit_time * 1e3:.0f}ms, "
               f"align 2000x2000 {align_time * 1e3:.0f}ms, "
               f"rotate n=1000 {rotate_time * 1e3:.1f}ms")


def test_criterion_12_soft_trend_report():
    problem = partitioning_problem(nodes=60, groups=4, edge_prob=0.08, instance_seed=12)
    wins = ties = 0
    raw_bests, quotient_bests = [], []
    for seed in range(30):
        results = {}
        for mode in ("raw", "quotient"):
            config = GAConfig(
                population=30, generations=30, crossover_rate=0.9,
                mutation_rate=0.02, tournament=2, mode=mode, seed=seed,
            )
            results[mode] = run_ga(problem, config)
        assert results["raw"].evaluations == results["quotient"].evaluations
        raw_bests.append(results["raw"].best_fitness)
        quotient_bests.append(results["quotient"].best_fitness)
        if results["quotient"].best_fitness < results["raw"].best_fitness:
            wins += 1
        elif results["quotient"].best_fitness == results["raw"].best_fitness:
            ties += 1

    raw_mean = sum(raw_bests) / len(raw_bests)
    quotient_mean = sum(quotient_bests) / len(quotient_bests)
    # reported, not gated: the comparison claim is qualitative
    _criterion(
        12, "soft trend (reported, non-gating)", True,
        f"quotient wins {wins}/30 (ties {ties}), "
        f"mean best raw={raw_mean:.2f} quotient={quotient_mean:.2f}",
    )
