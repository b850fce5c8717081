"""Registry contract: every family entry honours the same laws, and the
CLI, the suites and problem validation all read the one mapping."""

import dataclasses
import re

import numpy as np
import pytest

from qgx import circular, cli, ga, graphs, grouping, problems, sequences, suites
from qgx.errors import DimensionError, InputError, ParameterError
from qgx.families import FAMILIES, Options
from qgx.problems import Problem

from oracles import two_call_crossover_operator

NAMES = list(FAMILIES)


def _pairs(family, count, seed):
    rng = np.random.default_rng(seed)
    sample = family.sampler()
    return [(sample(rng), sample(rng)) for _ in range(count)]


@pytest.mark.parametrize("name", NAMES)
def test_format_parse_round_trip(name):
    family = FAMILIES[name]
    for x, _ in _pairs(family, 20, 1):
        text = family.format(x)
        y = family.parse(text, family.suite.k)
        assert family.format(y) == text
        assert family.base_metric(x, y) <= 1e-8  # reals print at ten significant digits


@pytest.mark.parametrize("name", NAMES)
def test_exact_normalizer_leaves_equal_parent(name):
    # the invariant behind the GA pair step's skip of equal parents
    family = FAMILIES[name]
    qdist = family.quotient_distance(family.suite, None)
    for x, _ in _pairs(family, 30, 2):
        assert family.normalize(x, x, family.suite, None) == (x, x)
        assert qdist(x, x) == 0


@pytest.mark.parametrize("name", NAMES)
def test_normalize_moves_within_class_and_realizes_quotient_distance(name):
    family = FAMILIES[name]
    qdist = family.quotient_distance(family.suite, None)
    for x, y in _pairs(family, 20, 3):
        x_star, y_star = family.normalize(x, y, family.suite, None)
        if name == "sequence":
            # alignment stretches both parents; the rows project back onto them
            assert (sequences.unstretch(x_star), sequences.unstretch(y_star)) == (x, y)
            assert family.metrics["hamming"](x_star, y_star) == qdist(x, y)
        else:
            assert x_star == x  # a group moves the second parent only
            assert qdist(y_star, y) == pytest.approx(0, abs=family.tol)
            assert family.base_metric(x_star, y_star) == pytest.approx(qdist(x, y), abs=family.tol)


# pairs with more than one closest representative, so a GA step or a
# `normalize_pairs` that broke ties differently from `normalize` would show
TIED_PAIRS = {
    "grouping": [((1, 1, 2, 2, 3, 4), (1, 2, 1, 2, 4, 3)), ((1, 1, 1, 1, 1, 1), (1, 2, 3, 4, 1, 2))],
    "graph": [
        (((0, 1, 0, 0, 0), (1, 0, 1, 0, 0), (0, 1, 0, 0, 0), (0, 0, 0, 0, 0), (0, 0, 0, 0, 0)),
         ((0, 0, 0, 0, 0), (0, 0, 0, 0, 0), (0, 0, 0, 0, 0), (0, 0, 0, 0, 1), (0, 0, 0, 1, 0))),
    ],
    # int-valued pairs too: both entries return floats for them
    "symmetric-real": [((0.0, 0.0, 1.0, 1.0, 2.0), (1.0, 0.5, 0.5, 2.0, 0.0)),
                       ((1, 2, 2, 3, 4), (2, 1, 4, 3, 2)), ((0, 3, 3, 1, 2), (3, 0, 1, 2, 2))],
    "symmetric-discrete": [((1, 1, 2, 2, 3), (1, 1, 1, 3, 3)), ((1, 2, 3, 1, 2), (2, 2, 2, 3, 3))],
    "circular": [((1, 2, 3, 4, 5, 6, 7), (2, 1, 4, 3, 6, 5, 7)), ((1, 2, 3, 4, 5, 6, 7), (7, 6, 5, 4, 3, 2, 1))],
    "sequence": [("ab", "ba"), ("aab", "abb"), ("", "acgt"), ("acgt", ""), ("", "")],
}

# suite-size pairs miss the batch's edge cases: one label (k = 1), more labels
# than `grouping.SCAN_K` (Hungarian on every table), the one-city tour, and
# real vectors of one coordinate and of the bench GA's 40
EDGE_OPTIONS = {
    "grouping": [Options(k=1, size=6), Options(k=5, size=8)],
    "circular": [Options(size=1)],
    "symmetric-real": [Options(size=1), Options(size=40)],
}


def _batch_cases():
    for name in NAMES:
        family = FAMILIES[name]
        if family.normalize_pairs is None:
            continue
        # the batch serves the default metric, the GA's; sequence's entry reads no metric
        for metric in family.metrics if name == "sequence" else [family.default_metric]:
            for opts in [family.suite, *EDGE_OPTIONS.get(name, [])]:
                yield pytest.param(name, dataclasses.replace(opts, metric=metric),
                                   id=f"{name}-{metric}-k{opts.k}-n{opts.size}")


@pytest.mark.parametrize("name,opts", list(_batch_cases()))
def test_normalize_pairs_equals_single_normalize_calls_in_both_orders(name, opts):
    family = FAMILIES[name]
    rng = np.random.default_rng(5)
    pairs = [(family.sample(rng, opts), family.sample(rng, opts)) for _ in range(40)]
    if opts == dataclasses.replace(family.suite, metric=opts.metric):
        pairs += TIED_PAIRS[name]
    pairs += [(x, x) for x, _ in pairs[:10]]
    for batch in ([], pairs[:1], pairs, pairs[::-1]):
        expected = [(family.normalize(x, y, opts, None), family.normalize(y, x, opts, None)) for x, y in batch]
        got = family.normalize_pairs(batch, opts)
        # repr as well: == cannot tell -0.0 from 0.0 in a moved real vector
        assert got == expected
        assert repr(got) == repr(expected)


# (family, k, good pair, bad pair, what the per-pair check raises on the bad
# one); with k = 0 or k > MAX_K no pair is good, so the batch holds only the bad one
BAD_PAIRS = [
    ("grouping", 3, ((1, 2, 3), (3, 3, 1)), ((1, 2, 3), (1, 2)), DimensionError("length mismatch: 3 vs 2")),
    ("grouping", 3, ((1, 2, 3), (3, 3, 1)), ((1, 2, 3), (1, 4, 2)), InputError("symbol 4 outside alphabet 1..3")),
    ("grouping", 3, ((1, 2, 3), (3, 3, 1)), ((1, 0, 3), (1, 2, 2)), InputError("symbol 0 outside alphabet 1..3")),
    ("grouping", grouping.MAX_K + 1, None, ((1, 2), (2, 1)),
     InputError(f"alphabet size k must be at most {grouping.MAX_K}, got {grouping.MAX_K + 1}")),
    ("grouping", 0, None, ((1, 1), (1, 2)), InputError("symbol 1 outside alphabet 1..0")),
    ("grouping", 0, None, ((), ()), InputError("cost matrix must be a square, non-empty table of numbers")),
    ("circular", None, ((1, 2, 3), (2, 3, 1)), ((1, 2, 3), (1, 2)), DimensionError("size mismatch: 3 vs 2")),
    ("circular", None, ((1, 2, 3), (2, 3, 1)), ((1, 2, 3), (1, 1, 3)),
     InputError("not a permutation of 1..3: (1, 1, 3)")),
    ("circular", None, ((1, 2, 3), (2, 3, 1)), ((0, 1, 2), (1, 2, 3)),
     InputError("not a permutation of 1..3: (0, 1, 2)")),
    ("symmetric-real", None, ((1.0, 2.0, 3.0), (3.0, -0.0, 1.0)), ((1.0, 2.0, 3.0), (1.0, 2.0)),
     DimensionError("length mismatch: 3 vs 2")),
]


@pytest.mark.parametrize("name,k,good,bad,error", BAD_PAIRS)
def test_batch_raises_what_the_pair_check_raises_before_any_draw(name, k, good, bad, error):
    family = FAMILIES[name]
    batch = [good, bad, good] if good else [bad]
    message = f"^{re.escape(str(error))}$"
    for metric in family.metrics:
        with pytest.raises(type(error), match=message):
            family.normalize_pairs(batch, Options(k=k, metric=metric))
    if not str(error).startswith("not a permutation"):  # `circular.normalize` takes any values
        with pytest.raises(type(error), match=message):
            family.normalize(*bad, Options(k=k), None)
    if bad[0] == bad[1]:
        return  # the GA step normalizes no equal parents
    if k == 0:  # no GA step: the problem itself is rejected
        with pytest.raises(ParameterError, match="^k must be >= 1, got 0$"):
            Problem(name=name, family=name, fitness=len, initializer=lambda r: None, k=k)
        return
    # the GA step makes its one batch call before the first coin
    problem = Problem(name=name, family=name, fitness=len, initializer=lambda r: None, k=k)
    step = ga.crossover_operator(problem, "quotient")
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(type(error), match=message):
        step([g for pair in batch for g in pair], 1.0, rng)
    assert rng.bit_generator.state == state


def test_batch_of_several_lengths_is_rejected():
    for name, pairs in [("grouping", [((1, 2), (2, 1)), ((1, 2, 1), (2, 1, 1))]),
                        ("circular", [((1, 2), (2, 1)), ((1, 2, 3), (2, 3, 1))]),
                        ("symmetric-real", [((1.0, 2.0), (2.0, 1.0)), ((1.0, 2.0, 0.5), (-0.0, 1.0, 2.0))])]:
        with pytest.raises(DimensionError, match="^length mismatch across pairs: 2 vs 3$"):
            FAMILIES[name].normalize_pairs(pairs, Options(k=2))


@pytest.mark.parametrize("name", NAMES)
def test_ga_pair_step_equals_two_quotient_crossover_calls(name):
    # test_ga.py compares whole GA runs; this adds tied and equal parents,
    # where a batch or a skip that left the CLI's path would show
    family = FAMILIES[name]
    opts = family.suite
    problem = Problem(name=name, family=name, fitness=len, initializer=lambda r: None, k=opts.k)
    step = ga.crossover_operator(problem, "quotient")
    expected = two_call_crossover_operator(problem, "quotient")
    pairs = _pairs(family, 20, 6) + TIED_PAIRS[name]
    pairs += [(x, x) for x, _ in pairs[:5]]
    for i, (x, y) in enumerate(pairs):
        rng_a, rng_b = np.random.default_rng(i), np.random.default_rng(i)
        assert step([x, y], 1.0, rng_a) == expected([x, y], 1.0, rng_b)
        assert rng_a.random() == rng_b.random()
    # one generation of every pair, crossed and not
    rng_a, rng_b = np.random.default_rng(99), np.random.default_rng(99)
    parents = [g for pair in pairs for g in pair]
    assert step(parents, 0.5, rng_a) == expected(parents, 0.5, rng_b)
    assert rng_a.random() == rng_b.random()


@pytest.mark.parametrize("name", NAMES)
def test_quotient_crossover_is_raw_crossover_after_normalization(name):
    family = FAMILIES[name]
    xover = family.quotient_crossover(family.suite)
    for i, (x, y) in enumerate(_pairs(family, 30, 4)):
        if i % 5 == 0:
            y = x
        rng_a, rng_b = np.random.default_rng(i), np.random.default_rng(i)
        child = xover(x, y, rng_a)
        x_star, y_star = family.normalize(x, y, family.suite, rng_b)
        assert child == family.crossover(x_star, y_star, rng_b)
        assert rng_a.random() == rng_b.random()


def test_readme_library_example():
    x, y, k = (1, 2, 3, 1), (2, 1, 2, 3), 3
    assert grouping.li_distance(x, y, k) == 1
    assert grouping.li_normalize(x, y, k) == (3, 2, 3, 1)
    family = FAMILIES["grouping"]
    assert family.normalize(x, y, Options(k=k), None) == ((1, 2, 3, 1), (3, 2, 3, 1))
    assert family.quotient_distance(Options(k=k), None)(x, y) == 1
    crossover = family.quotient_crossover(Options(k=k))
    assert crossover(x, y, np.random.default_rng(0)) == (3, 2, 3, 1)


def test_heuristic_graph_matching_runs_for_equal_parents():
    # the heuristic matcher draws from rng, so it may not be skipped
    family = FAMILIES["graph"]
    opts = Options(restarts=2)
    x = family.sample(np.random.default_rng(5), Options(size=graphs.EXACT_MATCH_CAP + 1))
    rng_a, rng_b = np.random.default_rng(6), np.random.default_rng(6)
    family.quotient_crossover(opts)(x, x, rng_a)
    family.normalize(x, x, opts, rng_b)
    family.crossover(x, x, rng_b)
    assert rng_a.random() == rng_b.random()


@pytest.mark.parametrize("nodes", [6, graphs.EXACT_MATCH_CAP + 1])
def test_graph_matching_is_chosen_by_the_node_count(nodes):
    # exhaustive up to EXACT_MATCH_CAP nodes, drawing nothing; the restarted
    # heuristic beyond it; no option names the size
    family = FAMILIES["graph"]
    pick = np.random.default_rng(nodes)
    x, y = (graphs.random_adjacency(nodes, 0.5, pick) for _ in range(2))
    rng, ref = np.random.default_rng(7), np.random.default_rng(7)
    start = rng.bit_generator.state
    moved = family.normalize(x, y, Options(), rng)
    if nodes <= graphs.EXACT_MATCH_CAP:
        match = graphs.quotient_distance_exact(x, y)
        assert rng.bit_generator.state == start
    else:
        match = graphs.match_heuristic(x, y, 20, ref)
        assert rng.bit_generator.state == ref.bit_generator.state != start
    assert moved == (x, graphs.conjugate(y, match.permutation))
    assert family.quotient_distance(Options(), np.random.default_rng(7))(x, y) == match.dist


def test_one_mapping_behind_every_family_list():
    assert cli.FAMILIES is FAMILIES
    assert suites.FAMILIES is FAMILIES
    assert problems.FAMILIES is FAMILIES


def test_new_entry_reaches_cli_suites_and_problems(monkeypatch, capsys):
    monkeypatch.setitem(FAMILIES, "ring", FAMILIES["circular"])
    args = cli.build_parser().parse_args(["distance", "--family", "ring", "1 2 3", "2 3 1"])
    assert args.family == "ring"
    assert cli.main(["distance", "--family", "ring", "1 2 3", "2 3 1"]) == 0
    assert capsys.readouterr().out == "0\n"
    assert suites.metric_suite("ring", 5, 0).ok
    Problem(name="x", family="ring", fitness=len, initializer=lambda r: ())


def test_unknown_family_rejected_everywhere():
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["distance", "--family", "trees", "1", "1"])
    with pytest.raises(ParameterError, match="choose from"):
        suites.metric_suite("trees", 5, 0)
    with pytest.raises(ParameterError):
        Problem(name="x", family="trees", fitness=len, initializer=lambda r: ())
    with pytest.raises(ParameterError):
        ga.mutate((1,), "trees", 0.5, np.random.default_rng(0))


# each site that picks a registry entry by name: (the name in its message, a call on one value)
NAME_SITES = {
    "GAConfig mode": ("mode", lambda v: ga.GAConfig(population=2, generations=1, mode=v)),
    "crossover_operator mode": ("mode", lambda v: ga.crossover_operator(problems.symmetric_problem(), v)),
    "mutate family": ("family", lambda v: ga.mutate((1,), v, 0.5, np.random.default_rng(0))),
    "Problem family": ("family", lambda v: Problem(name="x", family=v, fitness=len, initializer=lambda r: ())),
    "symmetric_problem function": ("symmetric function", lambda v: problems.symmetric_problem(function=v)),
    "build_problem name": ("problem", lambda v: problems.build_problem({"name": v})),
    "suite family": ("family", lambda v: suites.metric_suite(v, 5, 0)),
    "run_suite suite": ("suite", lambda v: suites.run_suite(v, "grouping", 5, 0)),
    "circular base metric": ("base metric", lambda v: circular.normalize((1, 2, 3), (2, 3, 1), v)),
}


@pytest.mark.parametrize("value", ["trees", ["x"]], ids=["unknown", "unhashable"])
@pytest.mark.parametrize("site", NAME_SITES)
def test_every_name_check_lists_the_choices(site, value):
    name, call = NAME_SITES[site]
    with pytest.raises(ParameterError, match=f"^unknown {name} .*; choose from "):
        call(value)
