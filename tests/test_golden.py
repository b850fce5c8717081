"""Golden replay: outputs recorded once, compared byte for byte.

The recorded files under tests/golden hold the CSVs of the bundled
configs, the stdout, stderr and exit code of `qgx distance|normalize|
crossover|verify` over every family x mode x allowed metric (plus the
combinations the CLI rejects), and the best series of small GA runs for
every family. A change that moves any byte of them changes what qgx
computes.

To record them again after a deliberate change of output, run

    PYTHONPATH=src python tests/test_golden.py --write

and say in the change why the bytes moved.
"""

from __future__ import annotations

import builtins
import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

from qgx import cli
from qgx.ga import GAConfig, run_ga
from qgx.graphs import EXACT_MATCH_CAP, random_adjacency
from qgx.problems import Problem, build_problem

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIGS = tuple(sorted(path.stem for path in (ROOT / "configs").glob("*.json")))

# graph inputs, written as edge-list files next to the run
GRAPHS = {
    "g5a": "5 5\n1 2\n2 3\n3 4\n4 5\n1 5\n",
    "g5b": "5 4\n1 3\n2 3\n2 5\n4 5\n",
    "g9a": "9 10\n1 2\n2 3\n3 4\n4 5\n5 6\n6 7\n7 8\n8 9\n1 9\n2 7\n",
    "g9b": "9 9\n1 4\n2 4\n3 6\n4 8\n5 9\n6 7\n7 9\n1 5\n3 8\n",
}

# family -> (extra flags, [(first, second)], allowed metrics)
PAIRS = {
    "grouping": (["--k", "3"], [("1 2 3 1 2", "2 1 2 3 3"), ("1 2 3 1", "1 2 3 1")],
                 ["hamming"]),
    "graph": (["--restarts", "3"], [("g5a", "g5b"), ("g5a", "g5a"), ("g9a", "g9b"), ("g9a", "g9a")],
              ["hamming"]),
    "symmetric-real": ([], [("1 4 5 -2.5", "3 0 6 0.125"), ("0.1 0.2", "0.1 0.2")],
                       ["euclidean"]),
    "symmetric-discrete": ([], [("1 2 2 3 1", "3 1 2 2 2"), ("1 2 2", "1 2 2")], ["hamming"]),
    "circular": ([], [("2 4 5 1 6 3", "4 6 1 5 3 2"), ("3 1 2 5 4", "3 1 2 5 4")],
                 ["hamming", "swap"]),
    "sequence": ([], [("agcacaca", "acacacta"), ("acgt", "acgt"), ("aacgt", "acg")],
                 ["edit", "hamming"]),
}

REJECTED = [
    ["distance", "--family", "sequence", "--mode", "raw", "--metric", "edit", "acgt", "acga"],
    ["distance", "--family", "sequence", "--mode", "quotient", "--metric", "hamming", "acgt", "acga"],
    ["distance", "--family", "grouping", "--metric", "euclidean", "--k", "3", "1 2", "2 1"],
    ["crossover", "--family", "circular", "--metric", "edit", "1 2 3", "3 2 1"],
    ["normalize", "--family", "symmetric-real", "--metric", "hamming", "1 2", "2 1"],
    ["distance", "--family", "grouping", "1 2", "2 1"],
    ["distance", "--family", "grouping", "--k", "2", "1 3", "2 1"],
    ["distance", "--family", "circular", "1 x", "2 1"],
    ["distance", "--family", "circular", "1 2 3", "1 2"],
    ["normalize", "--family", "symmetric-discrete", "0 1", "1 2"],
    ["normalize", "--family", "symmetric-discrete", "", "1 2"],
    ["crossover", "--family", "symmetric-real", "1 nan", "1 2"],
    ["distance", "--family", "sequence", "ac-g", "acg"],
    ["distance", "--family", "trees", "1", "1"],
    ["crossover", "--family", "graph", "missing-a", "missing-b"],
    ["verify", "--suite", "group", "--family", "sequence", "--trials", "3"],
    ["verify", "--suite", "quotient", "--family", "sequence", "--trials", "3"],
]

VERIFY = [
    (suite, family)
    for family in PAIRS
    for suite in (("metric", "segment") if family == "sequence" else ("metric", "group", "quotient", "segment"))
]


def _cli(argv: list[str], tmp: Path) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejections
            code = exc.code
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue().replace(str(tmp), "<tmp>")}


def cli_cases() -> list[tuple[str, list[str]]]:
    cases = []
    for family, (flags, pairs, metrics) in PAIRS.items():
        for first, second in pairs:
            for metric in [None, *metrics]:
                opt = [] if metric is None else ["--metric", metric]
                base = ["--family", family, *flags, *opt, first, second]
                cases.append(("normalize", base))
                for mode in ("raw", "quotient"):
                    cases.append(("distance", ["--mode", mode, *base]))
                    for seed in ("0", "1", "7"):
                        cases.append(("crossover", ["--mode", mode, "--seed", seed, *base]))
    out = [(" ".join([cmd, *args]), [cmd, *args]) for cmd, args in cases]
    out += [(" ".join(argv), argv) for argv in REJECTED]
    out += [
        (f"verify {suite} {family}", ["verify", "--suite", suite, "--family", family, "--trials", "12", "--seed", "3"])
        for suite, family in VERIFY
    ]
    return out


def record_cli(tmp: Path) -> dict:
    for name, text in GRAPHS.items():
        (tmp / name).write_text(text)
    record = {}
    for key, argv in cli_cases():
        argv = [str(tmp / a) if a in GRAPHS or a.startswith("missing-") else a for a in argv]
        record[key] = _cli(argv, tmp)
    return record


def _graph_problem(nodes):
    def fitness(a):
        # nodes whose degree is not 2
        return float(sum(abs(sum(row) - 2) for row in a))

    return Problem(name="graph-degree", family="graph", fitness=fitness,
                   initializer=lambda rng: random_adjacency(nodes, 0.5, rng))


def _discrete_problem():
    def fitness(g):
        return float(sum(v == 1 for v in g))

    from qgx.genotypes import random_symbol_vector

    return Problem(name="discrete-count", family="symmetric-discrete", fitness=fitness,
                   initializer=lambda rng: random_symbol_vector(8, 3, rng), k=3)


GA_PROBLEMS = {
    "partitioning": lambda: build_problem({"name": "partitioning", "nodes": 16, "groups": 3,
                                           "edge_prob": 0.25, "instance_seed": 4}),
    "coloring": lambda: build_problem({"name": "coloring", "nodes": 14, "colors": 3,
                                       "edge_prob": 0.3, "instance_seed": 2}),
    "tsp": lambda: build_problem({"name": "tsp", "cities": 9, "instance_seed": 3}),
    "symmetric": lambda: build_problem({"name": "symmetric", "function": "sorted_poly", "length": 5}),
    "sequence": lambda: build_problem({"name": "sequence", "target": "acgtta"}),
    "graph-exact": lambda: _graph_problem(6),
    "graph-heuristic": lambda: _graph_problem(EXACT_MATCH_CAP + 1),
    "symmetric-discrete": _discrete_problem,
}


def ga_config(name: str, mode: str) -> GAConfig:
    return GAConfig(population=8, generations=3 if name == "graph-heuristic" else 6,
                    crossover_rate=0.9, mutation_rate=0.2, tournament=2, mode=mode, seed=5)


def record_ga() -> dict:
    record = {}
    for name, make in GA_PROBLEMS.items():
        for mode in ("raw", "quotient"):
            result = run_ga(make(), ga_config(name, mode))
            record[f"{name} {mode}"] = {
                "best_series": [repr(s.best) for s in result.stats],
                "mean_series": [repr(s.mean) for s in result.stats],
                "best_genotype": repr(result.best_genotype),
            }
    return record


def record_csv(name: str, tmp: Path) -> bytes:
    out = tmp / f"{name}.csv"
    assert cli.main(["ga", "--config", str(ROOT / "configs" / f"{name}.json"), "--out", str(out)]) == 0
    return out.read_bytes()


def _dump(record: dict) -> str:
    return json.dumps(record, indent=1, sort_keys=True) + "\n"


def _compare(recorded_path: Path, record: dict) -> None:
    recorded = json.loads(recorded_path.read_text())
    assert sorted(recorded) == sorted(record)
    for key in recorded:
        assert record[key] == recorded[key], key
    assert _dump(record) == recorded_path.read_text()


def test_cli_outputs_match_recording(tmp_path):
    _compare(GOLDEN / "cli.json", record_cli(tmp_path))


def test_ga_series_match_recording():
    _compare(GOLDEN / "ga.json", record_ga())


def _compensated_sum(iterable, start=0):
    """`sum` as Python 3.12 and later compute it: float terms are added
    with Neumaier's compensation, every other term exactly as before."""
    total, comp = start, 0.0
    for v in iterable:
        if type(v) is float and type(total) in (int, float):
            t = float(total) + v
            comp += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
            total = t
        else:
            total = total + v
    return total + comp if comp and math.isfinite(comp) else total


def test_ga_series_do_not_depend_on_the_python_sum(monkeypatch):
    # pyproject allows Python 3.10 on; the replay path adds floats in
    # explicit left-to-right loops, so a compensated `sum` moves no byte
    assert _compensated_sum([1.0, 1e100, 1.0, -1e100]) == 2.0
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    _compare(GOLDEN / "ga.json", record_ga())


@pytest.mark.parametrize("name", CONFIGS)
def test_config_csv_matches_recording(name, tmp_path):
    assert record_csv(name, tmp_path) == (GOLDEN / f"{name}.csv").read_bytes()


def _write() -> None:
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (GOLDEN / "cli.json").write_text(_dump(record_cli(tmp)))
        for name in CONFIGS:
            (GOLDEN / f"{name}.csv").write_bytes(record_csv(name, tmp))
    (GOLDEN / "ga.json").write_text(_dump(record_ga()))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    _write()
