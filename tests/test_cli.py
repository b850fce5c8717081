"""CLI contract: printed values, text formats, exit codes, CSV runs."""

import contextlib
import dataclasses
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qgx import cli, graphs, problems, suites, symmetric
from qgx.symmetric import SYMMETRIC_FUNCTIONS
from qgx.verify import VerificationReport

FIG3 = ["--family", "grouping", "--k", "3", "1 2 3 1", "2 1 2 3"]
FIG5 = ["--family", "symmetric-real", "1 4 5", "3 0 6"]
FIG6 = ["--family", "circular", "2 4 5 1 6 3", "4 6 1 5 3 2"]


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out.rstrip("\n")


class TestDistance:
    def test_grouping_quotient(self, capsys):
        code, out = run(capsys, "distance", "--mode", "quotient", *FIG3)
        assert (code, out) == (0, "1")

    def test_grouping_raw(self, capsys):
        code, out = run(capsys, "distance", "--mode", "raw", *FIG3)
        assert (code, out) == (0, "4")

    def test_circular_quotient(self, capsys):
        code, out = run(capsys, "distance", "--mode", "quotient", *FIG6)
        assert (code, out) == (0, "2")

    def test_symmetric_real_quotient_ten_digits(self, capsys):
        code, out = run(capsys, "distance", "--mode", "quotient", *FIG5)
        assert (code, out) == (0, "1.732050808")

    def test_circular_swap_metric(self, capsys):
        code, out = run(
            capsys, "distance", "--family", "circular", "--metric", "swap",
            "--mode", "raw", "1 2 3", "2 1 3",
        )
        assert (code, out) == (0, "1")

    def test_sequence_edit(self, capsys):
        code, out = run(
            capsys, "distance", "--family", "sequence", "agcacaca", "acacacta"
        )
        assert (code, out) == (0, "2")

    def test_graph_quotient(self, capsys, tmp_path):
        a = tmp_path / "a.edges"
        b = tmp_path / "b.edges"
        a.write_text("3 2\n1 2\n2 3\n")
        b.write_text("3 2\n1 3\n2 3\n")
        code, out = run(capsys, "distance", "--family", "graph", str(a), str(b))
        assert (code, out) == (0, "0")

    def test_unsupported_metric_combination(self, capsys):
        code = cli.main(["distance", "--family", "grouping", "--metric", "euclidean",
                         "--k", "3", "1 2", "2 1"])
        assert code == 2

    def test_missing_k(self, capsys):
        assert cli.main(["distance", "--family", "grouping", "1 2", "2 1"]) == 2

    def test_unparsable_vector(self, capsys):
        assert cli.main(["distance", "--family", "circular", "1 x", "2 1"]) == 2

    def test_label_out_of_alphabet(self, capsys):
        assert cli.main(["distance", "--family", "grouping", "--k", "2", "1 3", "2 1"]) == 2

    @pytest.mark.parametrize("command", ["distance", "normalize", "crossover"])
    def test_alphabet_above_the_k_cap_exit_two(self, capsys, command):
        assert cli.main([command, "--family", "grouping", "--k", "101", "1 2", "2 1"]) == 2
        assert capsys.readouterr().err == "error: alphabet size k must be at most 100, got 101\n"

    @pytest.mark.parametrize("command", ["distance", "normalize"])
    def test_empty_permutation_exit_two(self, capsys, command):
        assert cli.main([command, "--family", "circular", "", ""]) == 2
        assert "non-empty" in capsys.readouterr().err

    def test_graph_with_extra_edge_lines_exit_two(self, capsys, tmp_path):
        graph = tmp_path / "f.edges"
        graph.write_text("3 1\n1 2\n2 3\n")
        assert cli.main(["normalize", "--family", "graph", str(graph), str(graph)]) == 2
        assert "announces 1 edges, found 2" in capsys.readouterr().err

    def test_graph_with_a_three_integer_edge_line_exit_two(self, capsys, tmp_path):
        graph = tmp_path / "f.edges"
        graph.write_text("2 1\n1 2 3\n")
        assert cli.main(["distance", "--family", "graph", str(graph), str(graph)]) == 2
        assert capsys.readouterr().err == (
            """error: edge list line 2: edge "u v" is not two integers: '1 2 3'\n"""
        )

    def test_graph_with_repeated_edge_exit_two(self, capsys, tmp_path):
        graph = tmp_path / "f.edges"
        graph.write_text("3 2\n1 2\n2 1\n")
        assert cli.main(["normalize", "--family", "graph", str(graph), str(graph)]) == 2
        assert "repeated edge (2,1)" in capsys.readouterr().err

    def test_graph_without_nodes_exit_two(self, capsys, tmp_path):
        empty = tmp_path / "empty.edges"
        empty.write_text("0 0\n")
        assert cli.main(["distance", "--family", "graph", str(empty), str(empty)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_graph_over_the_node_cap_exit_two(self, capsys, tmp_path):
        big = tmp_path / "big.edges"
        big.write_text("2001 0\n")
        assert cli.main(["distance", "--family", "graph", str(big), str(big)]) == 2
        assert "at most 2000 nodes, got n=2001" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["--family", "grouping", "--k", "3", "--mode", "raw", "1 2", "1 2 3"],
         "length mismatch: 2 vs 3"),
        (["--family", "symmetric-real", "--mode", "raw", "1 2 3", "1 2"],
         "length mismatch: 3 vs 2"),
        (["--family", "sequence", "--metric", "hamming", "--mode", "raw", "ab", "abc"],
         "length mismatch: 2 vs 3"),
    ])
    def test_length_mismatch_exit_two(self, capsys, argv, message):
        assert cli.main(["distance", *argv]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_graph_size_mismatch_exit_two(self, capsys, tmp_path):
        small, large = tmp_path / "small.edges", tmp_path / "large.edges"
        small.write_text("2 1\n1 2\n")
        large.write_text("3 1\n1 2\n")
        code = cli.main(["distance", "--family", "graph", "--mode", "raw", str(small), str(large)])
        assert code == 2
        assert capsys.readouterr().err == "error: size mismatch: 2 vs 3\n"

    @pytest.mark.parametrize("command", ["distance", "normalize", "crossover"])
    def test_sequence_letter_cap(self, capsys, command):
        at_cap = ("acgt" * 500, "cagt" * 500)
        assert cli.main([command, "--family", "sequence", *at_cap]) == 0
        capsys.readouterr()
        for pair in (("a" * 2001, "acgt"), ("acgt", "g" * 2001)):
            assert cli.main([command, "--family", "sequence", *pair]) == 2
            assert capsys.readouterr().err == "error: sequence must be at most 2000 letters, got 2001\n"

    @pytest.mark.parametrize("restarts", ["0", "-1"])
    def test_no_restarts_exit_two(self, capsys, restarts):
        code = cli.main(["distance", "--family", "circular", "--restarts", restarts, "1 2 3", "2 3 1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_too_many_restarts_exit_two(self, capsys, tmp_path):
        # nine-node graphs go to the heuristic matcher, which the cap keeps from starting
        paths = [tmp_path / "a.edges", tmp_path / "b.edges"]
        for path in paths:
            path.write_text("9 1\n1 2\n")
        code = cli.main(["distance", "--family", "graph", "--restarts", "1001", *map(str, paths)])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == "error: --restarts must be at most 1000, got 1001\n"

    @pytest.mark.parametrize("command", [
        ["distance", "--mode", "quotient"],
        ["normalize"],  # normalize takes no --mode: it always normalizes
        ["crossover", "--mode", "quotient"],
    ])
    def test_graph_heuristic_cap(self, capsys, tmp_path, command):
        paths = [str(tmp_path / "a.edges"), str(tmp_path / "b.edges")]
        rng = np.random.default_rng(15)
        for path in paths:
            Path(path).write_text(graphs.format_edge_list(graphs.random_adjacency(65, 0.5, rng)))
        assert cli.main([*command, "--family", "graph", *paths]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: heuristic matching capped at n=64, got n=65\n")
        if command[0] != "normalize":
            assert cli.main([command[0], "--mode", "raw", "--family", "graph", *paths]) == 0
        for path in paths:
            Path(path).write_text("64 0\n")
        assert cli.main([*command, "--family", "graph", "--restarts", "1", *paths]) == 0

    @pytest.mark.parametrize("command", [
        ["normalize"],
        ["crossover", "--mode", "quotient"],
    ])
    def test_symmetric_discrete_assignment_cap(self, capsys, monkeypatch, command):
        # the cap raises before the n x n table is built, so the solver never runs
        monkeypatch.setattr(symmetric, "hungarian", lambda cost: pytest.fail("assignment ran"))
        n = symmetric.ASSIGNMENT_CAP + 1
        pair = [" ".join(["1"] * n), " ".join(["1"] * (n - 1) + ["2"])]
        assert cli.main([*command, "--family", "symmetric-discrete", *pair]) == 2
        assert capsys.readouterr() == ("", f"error: assignment capped at n={n - 1}, got n={n}\n")
        # the quotient distance counts symbols and takes any length
        code, out = run(capsys, "distance", "--family", "symmetric-discrete", "--mode", "quotient", *pair)
        assert (code, out) == (0, "1")

    def test_missing_graph_file(self, capsys):
        assert cli.main(["distance", "--family", "graph", "/nonexistent/a", "/nonexistent/b"]) == 3

    @pytest.mark.parametrize("command", [
        ["distance", "--mode", "quotient"],
        ["normalize"],
        ["crossover", "--mode", "quotient"],
    ])
    def test_huge_real_vectors_stay_finite(self, capsys, command):
        code = cli.main([*command, "--family", "symmetric-real", "1e308 1", "-1e308 2"])
        captured = capsys.readouterr()
        assert code == 0
        assert all(math.isfinite(float(v)) for v in captured.out.split())
        assert "Traceback" not in captured.err


class TestNormalize:
    def test_grouping(self, capsys):
        code, out = run(capsys, "normalize", *FIG3)
        assert (code, out) == (0, "3 2 3 1")

    def test_symmetric_real(self, capsys):
        code, out = run(capsys, "normalize", *FIG5)
        assert (code, out) == (0, "0 3 6")

    def test_circular(self, capsys):
        code, out = run(capsys, "normalize", *FIG6)
        assert (code, out) == (0, "2 4 6 1 5 3")

    def test_sequence_prints_aligned_second_parent(self, capsys):
        code, out = run(capsys, "normalize", "--family", "sequence",
                        "agcacaca", "acacacta")
        assert (code, out) == (0, "a-cacacta")

    def test_graph_prints_edge_list(self, capsys, tmp_path):
        a = tmp_path / "a.edges"
        b = tmp_path / "b.edges"
        a.write_text("3 2\n1 2\n2 3\n")
        b.write_text("3 2\n1 3\n2 3\n")
        code, out = run(capsys, "normalize", "--family", "graph", str(a), str(b))
        assert code == 0
        assert out.splitlines()[0] == "3 2"
        assert set(out.splitlines()[1:]) == {"1 2", "2 3"}


class TestCrossover:
    @pytest.mark.parametrize("family,parent", [
        ("grouping", "1 2 3 1"),
        ("circular", "2 4 5 1 6 3"),
        ("symmetric-discrete", "1 2 2"),
    ])
    def test_identical_parents_reproduce(self, capsys, family, parent):
        argv = ["crossover", "--family", family, "--seed", "5", parent, parent]
        if family == "grouping":
            argv[3:3] = ["--k", "3"]
        code, out = run(capsys, *argv)
        assert (code, out) == (0, parent)

    def test_grouping_worked_offspring(self, capsys):
        outputs = set()
        for seed in range(12):
            code, out = run(capsys, "crossover", "--seed", str(seed), *FIG3)
            assert code == 0
            outputs.add(out)
        assert outputs == {"1 2 3 1", "3 2 3 1"}

    def test_sequence_offspring_on_segment(self, capsys):
        from qgx.sequences import edit_distance

        s, t = "agcacaca", "acacacta"
        code, out = run(capsys, "crossover", "--family", "sequence", "--seed", "3", s, t)
        assert code == 0
        assert edit_distance(s, out) + edit_distance(out, t) == 2

    def test_deterministic_given_seed(self, capsys):
        argv = ["crossover", "--family", "circular", "--seed", "9",
                "2 4 5 1 6 3", "4 6 1 5 3 2"]
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second


class TestVerify:
    def test_quotient_suite_passes(self, capsys):
        code, out = run(capsys, "verify", "--suite", "quotient", "--family", "grouping",
                        "--trials", "1000", "--seed", "1")
        assert code == 0
        assert "ok" in out

    def test_group_suite_circular(self, capsys):
        code, out = run(capsys, "verify", "--suite", "group", "--family", "circular",
                        "--trials", "200")
        assert code == 0

    def test_segment_suite_sequence(self, capsys):
        code, _ = run(capsys, "verify", "--suite", "segment", "--family", "sequence",
                      "--trials", "100")
        assert code == 0

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_no_trials_exit_two(self, capsys, trials):
        code = cli.main(["verify", "--suite", "metric", "--family", "grouping", "--trials", trials])
        assert code == 2
        assert "trials must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("trials", ["1000001", "99999999999999999999"])
    def test_too_many_trials_exit_two(self, capsys, trials):
        code = cli.main(["verify", "--suite", "group", "--family", "grouping", "--trials", trials])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == f"error: trials must be at most 1000000, got {trials}\n"

    def test_group_suite_rejected_for_sequences(self, capsys):
        code = cli.main(["verify", "--suite", "group", "--family", "sequence"])
        assert code == 2

    def test_violations_exit_one(self, capsys, monkeypatch):
        failing = VerificationReport("fake", 10, 3, witness="broken thing")
        monkeypatch.setattr(cli.suites, "run_suite", lambda *a, **k: [failing])
        code, out = run(capsys, "verify", "--suite", "metric", "--family", "grouping")
        assert code == 1
        assert "broken thing" in out


class TestSeed:
    @pytest.mark.parametrize("command", [
        ["distance", *FIG6],
        ["normalize", *FIG6],
        ["crossover", *FIG6],
        ["verify", "--suite", "metric", "--family", "grouping", "--trials", "1"],
    ])
    def test_negative_seed_exit_two(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            cli.main([*command, "--seed", "-1"])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.splitlines()[-1].endswith("argument --seed: must be a non-negative integer, got -1")

    def test_large_seed_accepted(self, capsys):
        code, out = run(capsys, "crossover", "--seed", str(2**70), *FIG6)
        assert code == 0
        assert sorted(out.split()) == sorted(FIG6[2].split())


TEXT_FAMILIES = ("grouping", "symmetric-real", "symmetric-discrete", "circular", "sequence")
TOKENS = st.integers(-3, 9)


@st.composite
def pair_argv(draw):
    command = draw(st.sampled_from(["distance", "normalize", "crossover"]))
    argv = [command, "--family", draw(st.sampled_from(TEXT_FAMILIES))]
    if command != "normalize":
        argv += ["--mode", draw(st.sampled_from(["raw", "quotient"]))]
    metric = draw(st.none() | st.sampled_from(["hamming", "euclidean", "swap", "edit"]))
    if metric is not None:
        argv += ["--metric", metric]
    k = draw(st.none() | st.integers(-2, 8))
    if k is not None:
        argv += ["--k", str(k)]
    # mostly equal lengths and shared values, so that many pairs get past parsing
    n = draw(st.integers(0, 8))
    first = draw(st.permutations(range(1, n + 1)) | st.lists(TOKENS, min_size=n, max_size=n))
    second = draw(st.permutations(first) | st.lists(TOKENS, max_size=8))
    sep = draw(st.sampled_from([" ", ""]))
    texts = [sep.join(map(str, tokens)) for tokens in (first, second)]
    return argv + ["--seed", str(draw(st.integers(-3, 2**70))), *texts]


@st.composite
def verify_argv(draw):
    return [
        "verify",
        "--suite", draw(st.sampled_from(list(suites.SUITES))),
        "--family", draw(st.sampled_from(list(suites.FAMILIES))),
        "--trials", str(draw(st.integers(1, 3))),
        "--seed", str(draw(st.integers(-3, 2**70))),
    ]


@settings(max_examples=500, deadline=None, derandomize=True)
@given(pair_argv() | verify_argv())
def test_fuzzed_argv_exits_cleanly(argv):
    """Any argv exits 0, 1 (verify only), 2 or 3, never 4 and never with a traceback."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejections
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    assert code != 1 or argv[0] == "verify", argv
    assert "Traceback" not in err.getvalue(), argv


EDGE_FAULTS = [None, None, "junk header", "count off", "self-loop", "repeat", "out of range"]


@st.composite
def edge_list_text(draw, n, fault):
    """An edge-list text for n nodes, with one fault or none."""
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edge = st.sampled_from(pairs or [(1, 2)]).flatmap(lambda e: st.sampled_from([e, e[::-1]]))
    edges = draw(st.lists(edge, max_size=8, unique_by=frozenset)) if pairs else []
    node = st.integers(1, max(n, 1))
    if fault == "self-loop":
        edges.append((draw(node),) * 2)
    elif fault == "repeat" and edges:
        u, v = draw(st.sampled_from(edges))
        edges.append(draw(st.sampled_from([(u, v), (v, u)])))
    elif fault == "out of range":
        edges.append((draw(st.sampled_from([-1, 0, n + 1])), draw(node)))
    m = len(edges) + (draw(st.sampled_from([-1, 1])) if fault == "count off" else 0)
    header = f"{n} {m}"
    if fault == "junk header":
        header = draw(st.sampled_from(["", "n m", f"{n}", f"{n} {m} 0", f"{n} 1.5"]))
    return "\n".join([header, *(f"{u} {v}" for u, v in edges)]) + "\n"


@st.composite
def graph_argv(draw):
    command = draw(st.sampled_from(["distance", "normalize", "crossover"]))
    argv = [command, "--family", "graph", "--restarts", "1"]
    if command != "normalize":
        argv += ["--mode", draw(st.sampled_from(["raw", "quotient"]))]
    n = draw(st.integers(0, 10))
    sizes = [n, draw(st.sampled_from([n, n, n + 1]))]
    faults = [draw(st.sampled_from(EDGE_FAULTS)), None]
    if draw(st.booleans()):
        faults.reverse()
    texts = [draw(edge_list_text(size, fault)) for size, fault in zip(sizes, faults)]
    return argv + ["--seed", str(draw(st.integers(0, 9)))], texts


@settings(max_examples=200, deadline=None, derandomize=True)
@given(graph_argv())
def test_fuzzed_edge_lists_exit_cleanly(tmp_path_factory, case):
    """Any edge-list pair exits 0, 2 or 3, never with a traceback."""
    argv, texts = case
    folder = tmp_path_factory.mktemp("edges")
    paths = [folder / "a.edges", folder / "b.edges"]
    for path, text in zip(paths, texts):
        path.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv + [str(p) for p in paths])
    assert code in (0, 2, 3), (argv, texts, err.getvalue())
    assert "Traceback" not in err.getvalue(), (argv, texts)


class TestInternalError:
    def test_unexpected_exception_is_one_line_exit_four(self, capsys, monkeypatch):
        def broken(text, k):
            raise RuntimeError("parser\nfell over")

        family = cli.FAMILIES["circular"]
        monkeypatch.setitem(cli.FAMILIES, "circular", dataclasses.replace(family, parse=broken))
        code = cli.main(["distance", *FIG6[:2], "1 2 3", "2 3 1"])
        err = capsys.readouterr().err
        assert code == cli.EXIT_INTERNAL == 4
        assert err == "internal error: RuntimeError: parser fell over\n"
        assert "Traceback" not in err


class TestGa:
    def _write_config(self, tmp_path, problem=None, **ga_overrides):
        doc = {
            "problem": problem or {"name": "coloring", "nodes": 12, "colors": 3,
                                   "edge_prob": 0.3, "instance_seed": 2},
            "ga": {"population": 8, "generations": 4, "crossover_rate": 0.9,
                   "mutation_rate": 0.1, "tournament": 2, "mode": "quotient",
                   "seed": 3},
        }
        doc["ga"].update(ga_overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return path

    def test_csv_shape(self, capsys, tmp_path):
        config = self._write_config(tmp_path, generations=1)
        out = tmp_path / "run.csv"
        assert cli.main(["ga", "--config", str(config), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "generation,best,mean,evaluations,mode,seed"
        assert len(lines) == 2  # header + one generation

    def test_replay_is_byte_identical(self, capsys, tmp_path):
        config = self._write_config(tmp_path)
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["ga", "--config", str(config), "--out", str(first)]) == 0
        assert cli.main(["ga", "--config", str(config), "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_paired_modes_share_budget(self, capsys, tmp_path):
        import csv as csvmod

        budgets = {}
        for mode in ("raw", "quotient"):
            config = self._write_config(tmp_path, mode=mode)
            out = tmp_path / f"{mode}.csv"
            assert cli.main(["ga", "--config", str(config), "--out", str(out)]) == 0
            with open(out) as fh:
                budgets[mode] = [row["evaluations"] for row in csvmod.DictReader(fh)]
        assert budgets["raw"] == budgets["quotient"]

    def test_bad_config_exit_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        out = tmp_path / "out.csv"
        assert cli.main(["ga", "--config", str(path), "--out", str(out)]) == 2

    def test_invalid_ga_values_exit_two(self, capsys, tmp_path):
        config = self._write_config(tmp_path, population=7)
        assert cli.main(["ga", "--config", str(config), "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("field,value", [("population", 4.0), ("tournament", 1.5)])
    def test_non_integer_ga_values_exit_two(self, capsys, tmp_path, field, value):
        config = self._write_config(tmp_path, **{field: value})
        assert cli.main(["ga", "--config", str(config), "--out", str(tmp_path / "x.csv")]) == 2
        assert "must be an integer" in capsys.readouterr().err

    def test_tournament_over_cap_exits_two(self, capsys, tmp_path):
        config = self._write_config(tmp_path, tournament=1025)
        assert cli.main(["ga", "--config", str(config), "--out", str(tmp_path / "x.csv")]) == 2
        assert "tournament must be at most 1024, got 1025" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [("mutation_rate", "0.5"), ("crossover_rate", True)])
    def test_non_numeric_rates_exit_two(self, capsys, tmp_path, field, value):
        config = self._write_config(tmp_path, **{field: value})
        assert cli.main(["ga", "--config", str(config), "--out", str(tmp_path / "x.csv")]) == 2
        assert "must be a number" in capsys.readouterr().err

    @pytest.mark.parametrize("problem", [
        {"name": "partitioning", "groups": 0},
        {"name": "partitioning", "nodes": -3},
        {"name": "symmetric", "low": 2, "high": 1},
        {"name": "symmetric", "length": 0},
        {"name": "coloring", "edge_prob": -1},
        {"name": "partitioning", "edge_prob": 1.5},
        {"name": "partitioning", "edge_prob": True},
        {"name": "sequence", "target": "acgt", "alphabet": ""},
        {"name": "sequence", "target": "acgt", "alphabet": "a-"},
        {"name": "partitioning", "balance_weight": "x"},
        {"name": "tsp", "instance_seed": -1},
    ])
    def test_bad_problem_sizes_exit_two(self, capsys, tmp_path, problem):
        config = self._write_config(tmp_path, problem=problem)
        assert cli.main(["ga", "--config", str(config), "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_tsp_above_the_city_cap_exit_two_before_the_leg_table(self, capsys, tmp_path,
                                                                  monkeypatch):
        def no_table(cities):
            raise AssertionError(f"leg table of {len(cities)} cities built")

        monkeypatch.setattr(problems, "leg_lengths", no_table)
        config = self._write_config(tmp_path, problem={"name": "tsp", "cities": 2001})
        assert cli.main(["ga", "--config", str(config), "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == "error: cities must be at most 2000, got 2001\n"

    @pytest.mark.parametrize("name", ["partitioning", "coloring"])
    def test_graph_above_the_node_cap_exit_two_before_the_graph(self, capsys, tmp_path,
                                                                 monkeypatch, name):
        def no_graph(n, edge_prob, rng):
            raise AssertionError(f"graph of {n} nodes built")

        monkeypatch.setattr(problems, "random_adjacency", no_graph)
        config = self._write_config(tmp_path, problem={"name": name, "nodes": 2001})
        assert cli.main(["ga", "--config", str(config), "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == "error: nodes must be at most 2000, got 2001\n"

    def test_symmetric_above_the_length_cap_exit_two_before_the_run(self, capsys, tmp_path,
                                                                    monkeypatch):
        def no_vector(n, rng, low, high):
            raise AssertionError(f"vector of length {n} drawn")

        monkeypatch.setattr(problems, "random_real_vector", no_vector)
        config = self._write_config(tmp_path, problem={"name": "symmetric", "length": 2001})
        assert cli.main(["ga", "--config", str(config), "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == "error: length must be at most 2000, got 2001\n"

    def test_sequence_above_the_target_cap_exit_two_before_the_run(self, capsys, tmp_path,
                                                                   monkeypatch):
        def no_distance(target):
            raise AssertionError(f"distance to a target of {len(target)} letters built")

        def no_sequence(max_len, alphabet, rng):
            raise AssertionError(f"sequence of up to {max_len} letters drawn")

        monkeypatch.setattr(problems, "edit_distance_to", no_distance)
        monkeypatch.setattr(problems, "random_sequence", no_sequence)
        config = self._write_config(tmp_path, problem={"name": "sequence", "target": "a" * 2001})
        assert cli.main(["ga", "--config", str(config), "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == "error: target must be at most 2000 letters, got 2001\n"

    @pytest.mark.parametrize("name,field", [("partitioning", "groups"), ("coloring", "colors")])
    def test_groups_above_the_k_cap_exit_two(self, capsys, tmp_path, name, field):
        config = self._write_config(tmp_path, problem={"name": name, field: 101})
        assert cli.main(["ga", "--config", str(config), "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == f"error: {field} must be at most 100, got 101\n"

    def test_selection_draw_above_the_cap_exit_two_before_the_run(self, capsys, tmp_path,
                                                                  monkeypatch):
        def no_run(problem, config):
            raise AssertionError(f"GA of population {config.population} started")

        monkeypatch.setattr(cli, "run_ga", no_run)
        config = self._write_config(tmp_path, population=2**19 + 2, tournament=2)
        assert cli.main(["ga", "--config", str(config), "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == (
            "error: population x tournament must be at most 1048576, got 524290 x 2\n"
        )

    def test_unwritable_output_exit_three(self, capsys, tmp_path):
        config = self._write_config(tmp_path)
        missing_dir = tmp_path / "no" / "such" / "dir" / "out.csv"
        assert cli.main(["ga", "--config", str(config), "--out", str(missing_dir)]) == 3

    def test_missing_config_exit_three(self, capsys, tmp_path):
        assert cli.main(["ga", "--config", str(tmp_path / "none.json"),
                         "--out", str(tmp_path / "x.csv")]) == 3

    @pytest.mark.parametrize("problem,message", [
        ({"name": "sequence", "target": 5}, "target must be a string, got 5"),
        ({"name": "sequence", "target": "acgt", "alphabet": 3}, "alphabet must be a string, got 3"),
        ({"name": "symmetric", "low": "a", "high": "b"}, "low must be a finite number, got 'a'"),
        ({"name": "symmetric", "low": 0, "high": [1]}, "high must be a finite number, got [1]"),
    ])
    def test_ill_typed_problem_fields_are_named(self, capsys, tmp_path, problem, message):
        config = self._write_config(tmp_path, problem=problem)
        assert cli.main(["ga", "--config", str(config), "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


# values of the wrong type or range for any field; no large positive
# integers, so that a value that passes validation keeps the run small
JUNK = (
    st.none() | st.booleans() | st.integers(-3, 1) | st.floats()
    | st.text(max_size=3) | st.lists(st.integers(0, 2), max_size=2)
    | st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=1)
)
SMALL_PROBLEM_FIELDS = {
    "partitioning": {"nodes": st.integers(1, 12), "groups": st.integers(1, 5),
                     "edge_prob": st.floats(0, 1), "instance_seed": st.integers(0, 9),
                     "balance_weight": st.floats(-10, 10)},
    "coloring": {"nodes": st.integers(1, 12), "colors": st.integers(1, 5),
                 "edge_prob": st.floats(0, 1), "instance_seed": st.integers(0, 9)},
    "tsp": {"cities": st.integers(3, 12), "instance_seed": st.integers(0, 9)},
    "symmetric": {"function": st.sampled_from(sorted(SYMMETRIC_FUNCTIONS)),
                  "length": st.integers(1, 12), "low": st.floats(-10, 0),
                  "high": st.floats(0, 10)},
    "sequence": {"target": st.text(alphabet="acgt", min_size=1, max_size=12),
                 "alphabet": st.text(alphabet="acgtαβ", min_size=1, max_size=5)},
}
SMALL_GA_FIELDS = {
    "population": st.sampled_from([2, 4, 6]), "generations": st.integers(1, 2),
    "crossover_rate": st.floats(0, 1), "mutation_rate": st.floats(0, 1),
    "tournament": st.integers(1, 4), "mode": st.sampled_from(["raw", "quotient"]),
    "seed": st.integers(0, 2**64 - 1),
}


@st.composite
def section(draw, fields: dict):
    """Each field mostly a small value, sometimes junk or left out, and
    now and then a key that does not belong."""
    doc = {}
    for key, small in fields.items():
        roll = draw(st.integers(0, 19))
        if roll < 18:
            doc[key] = draw(small if roll < 17 else JUNK)
    if draw(st.integers(0, 19)) == 0:
        doc["extra"] = draw(JUNK)
    return doc


@st.composite
def ga_config_docs(draw):
    name = draw(st.sampled_from(sorted(SMALL_PROBLEM_FIELDS)))
    problem = draw(section(SMALL_PROBLEM_FIELDS[name]))
    problem["name"] = draw(JUNK) if draw(st.integers(0, 19)) == 0 else name
    doc = {"problem": problem, "ga": draw(section(SMALL_GA_FIELDS))}
    if draw(st.integers(0, 19)) == 0:
        doc = draw(st.sampled_from([[], {"problem": problem}, doc["ga"]]))
    return doc


@settings(max_examples=300, deadline=None, derandomize=True)
@given(ga_config_docs())
def test_fuzzed_ga_config_exits_cleanly(tmp_path_factory, doc):
    """Any config document exits 0, 2 or 3, never 4 and never with a traceback."""
    folder = tmp_path_factory.mktemp("ga-fuzz")
    config = folder / "config.json"
    config.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["ga", "--config", str(config), "--out", str(folder / "run.csv")])
    assert code in (0, 2, 3), (doc, err.getvalue())
    assert "Traceback" not in err.getvalue(), doc
