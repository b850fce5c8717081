"""GA harness: config validation, determinism, elitism, budget fairness,
and genotype closure under mutation."""

import dataclasses
import functools

import numpy as np
import pytest

from qgx import ga
from qgx.errors import InputError, ParameterError
from qgx.families import FAMILIES, MUTATION_SIGMA, SEQUENCE_ALPHABET
from qgx.ga import (
    GAConfig,
    config_from_dict,
    crossover_operator,
    mutate,
    run_ga,
)
from qgx.genotypes import random_real_vector, random_symbol_vector
from qgx.graphs import EXACT_MATCH_CAP, MAX_NODES, edges_of, random_adjacency
from qgx.problems import (
    Problem,
    build_problem,
    coloring_problem,
    partitioning_problem,
    random_tsp_problem,
    scores,
    sequence_problem,
    symmetric_problem,
)
from qgx.sequences import edit_distance

from oracles import (
    adjacency,
    comprehension_mutate_reals,
    numpy_index_mutate_symbols,
    run_ga_scoring_every_offspring,
    scalar_tournament,
    two_call_crossover_operator,
)
from test_golden import GA_PROBLEMS, ga_config


def _tiny_config(**overrides):
    base = dict(population=8, generations=5, crossover_rate=0.9,
                mutation_rate=0.1, tournament=2, mode="quotient", seed=7)
    base.update(overrides)
    return GAConfig(**base)


class TestConfigValidation:
    def test_odd_population_rejected(self):
        with pytest.raises(ParameterError):
            GAConfig(population=7, generations=1)

    def test_zero_generations_rejected(self):
        with pytest.raises(ParameterError):
            GAConfig(population=4, generations=0)

    @pytest.mark.parametrize("field,value", [
        ("crossover_rate", 1.5),
        ("mutation_rate", -0.1),
        ("tournament", 0),
        ("tournament", ga.MAX_TOURNAMENT + 1),
        # rejected before any run: no population x tournament block is drawn
        ("tournament", 10**12),
        # population x tournament = 2**21 entrants in one draw, over the cap
        ("population", 2**20),
        ("mode", "hybrid"),
        ("seed", -1),
        ("seed", 2**64),
        ("population", 4.0),
        ("generations", 2.0),
        ("tournament", 1.5),
        ("tournament", True),
        ("population", "4"),
        ("mutation_rate", "0.5"),
        ("crossover_rate", True),
    ])
    def test_bad_fields_rejected(self, field, value):
        with pytest.raises(ParameterError):
            GAConfig(**{"population": 4, "generations": 1, field: value})

    def test_selection_draw_at_the_cap_accepted(self):
        config = GAConfig(population=ga.MAX_ENTRANTS // 2, generations=1, tournament=2)
        assert config.population * config.tournament == ga.MAX_ENTRANTS

    def test_integer_rates_accepted(self):
        config = GAConfig(population=4, generations=1, crossover_rate=1, mutation_rate=0)
        assert (config.crossover_rate, config.mutation_rate) == (1, 0)

    def test_config_from_dict_unknown_key(self):
        with pytest.raises(InputError):
            config_from_dict({"population": 4, "generations": 1, "elitism": 2})

    def test_config_from_dict_missing_key(self):
        with pytest.raises(InputError):
            config_from_dict({"population": 4})


class TestRunGa:
    def test_deterministic_replay(self):
        problem = partitioning_problem(nodes=20, groups=3, edge_prob=0.2, instance_seed=3)
        config = _tiny_config()
        first = run_ga(problem, config)
        second = run_ga(problem, config)
        assert first.stats == second.stats
        assert first.best_genotype == second.best_genotype
        assert first.best_fitness == second.best_fitness

    def test_no_variation_single_generation_keeps_initial_best(self):
        problem = symmetric_problem("sum_of_squares", length=6)
        config = GAConfig(population=10, generations=1, crossover_rate=0.0,
                          mutation_rate=0.0, mode="raw", seed=21)
        result = run_ga(problem, config)

        # rebuild the initial population from the same derived stream
        init_stream = np.random.SeedSequence(config.seed).spawn(4)[0]
        rng = np.random.default_rng(init_stream)
        initial = [problem.initializer(rng) for _ in range(config.population)]
        expected = min(problem.fitness(g) for g in initial)
        assert result.best_fitness == expected

    def test_elitism_series_non_increasing(self):
        for seed in (1, 2, 3):
            problem = random_tsp_problem(cities=10, instance_seed=5)
            result = run_ga(problem, _tiny_config(seed=seed, generations=12))
            series = tuple(s.best for s in result.stats)
            assert all(b2 <= b1 for b1, b2 in zip(series, series[1:]))

    def test_evaluation_budget(self):
        problem = coloring_problem(nodes=12, colors=3, edge_prob=0.3)
        config = _tiny_config(population=10, generations=7)
        result = run_ga(problem, config)
        assert result.evaluations == 10 * 7 + 10
        assert result.stats[-1].evaluations == result.evaluations

    def test_raw_and_quotient_budgets_match(self):
        problem = partitioning_problem(nodes=16, groups=3, edge_prob=0.2)
        raw = run_ga(problem, _tiny_config(mode="raw"))
        quotient = run_ga(problem, _tiny_config(mode="quotient"))
        assert raw.evaluations == quotient.evaluations
        assert [s.evaluations for s in raw.stats] == [s.evaluations for s in quotient.stats]

    @pytest.mark.parametrize("problem,check", [
        (partitioning_problem(nodes=12, groups=3, edge_prob=0.25),
         lambda g: all(1 <= v <= 3 for v in g) and len(g) == 12),
        (random_tsp_problem(cities=8, instance_seed=2),
         lambda g: sorted(g) == list(range(1, 9))),
        (symmetric_problem("range", length=5),
         lambda g: len(g) == 5 and all(isinstance(v, float) for v in g)),
        (sequence_problem("acgtacgt"),
         lambda g: "-" not in g),
    ])
    def test_best_genotype_stays_valid(self, problem, check):
        for mode in ("raw", "quotient"):
            result = run_ga(problem, _tiny_config(mode=mode, generations=4))
            assert check(result.best_genotype)

    def test_quotient_helps_on_label_symmetric_problem(self):
        # soft trend at mini scale: not asserted as a majority, only that
        # quotient mode is never broken (finishes, valid stats)
        problem = partitioning_problem(nodes=20, groups=4, edge_prob=0.15, instance_seed=9)
        wins = 0
        for seed in range(5):
            raw = run_ga(problem, _tiny_config(mode="raw", seed=seed, generations=8))
            quo = run_ga(problem, _tiny_config(mode="quotient", seed=seed, generations=8))
            wins += quo.best_fitness <= raw.best_fitness
        assert 0 <= wins <= 5


def _graph_problem(nodes):
    return Problem(name="graph-degree", family="graph",
                   fitness=lambda a: float(sum(abs(sum(row) - 2) for row in a)),
                   initializer=lambda rng: random_adjacency(nodes, 0.5, rng))


def _discrete_problem():
    return Problem(name="discrete-count", family="symmetric-discrete",
                   fitness=lambda g: float(sum(v == 1 for v in g)),
                   initializer=lambda rng: random_symbol_vector(8, 3, rng), k=3)


# one problem per family; graphs both at EXACT_MATCH_CAP (exact matching)
# and above it (the heuristic matcher, which draws from the crossover stream)
STREAM_PROBLEMS = {
    "grouping": lambda: partitioning_problem(nodes=12, groups=3, edge_prob=0.25, instance_seed=1),
    "circular": lambda: random_tsp_problem(cities=9, instance_seed=3),
    "symmetric-real": lambda: symmetric_problem("sorted_poly", length=5),
    # the verify benchmark's GA length: long rank orders, rare ties
    "symmetric-real-40": lambda: symmetric_problem("sum_of_squares", length=40),
    "symmetric-discrete": _discrete_problem,
    "sequence": lambda: sequence_problem("acgttagcat"),
    "graph-exact": lambda: _graph_problem(EXACT_MATCH_CAP),
    "graph-heuristic": lambda: _graph_problem(EXACT_MATCH_CAP + 1),
}


def _run_recording_streams(problem, config, monkeypatch):
    """run_ga's result and the final state of its four random streams."""
    streams = []
    make = np.random.default_rng

    def recording(seed):
        streams.append(make(seed))
        return streams[-1]

    with monkeypatch.context() as patch:
        patch.setattr(np.random, "default_rng", recording)
        result = run_ga(problem, config)
    assert len(streams) == 4
    return result, [s.bit_generator.state for s in streams]


class TestPairCrossoverStep:
    def test_families_cover_the_registry(self):
        assert {problem().family for problem in STREAM_PROBLEMS.values()} == set(FAMILIES)

    @pytest.mark.parametrize("mode", ["raw", "quotient"])
    @pytest.mark.parametrize("name", list(STREAM_PROBLEMS))
    def test_same_stats_and_stream_states_as_the_two_call_path(self, name, mode, monkeypatch):
        # the pair step normalizes both orders before crossing; exact
        # normalizers draw nothing, so every draw and result stays that of
        # normalize, cross, normalize, cross
        problem = STREAM_PROBLEMS[name]()
        # graph matching at 8-9 nodes is slow, so those runs are shorter
        size = dict(population=4, generations=3) if name.startswith("graph") else {}
        config = _tiny_config(mode=mode, mutation_rate=0.2, seed=5, **size)
        result, states = _run_recording_streams(problem, config, monkeypatch)
        monkeypatch.setattr(ga, "crossover_operator", two_call_crossover_operator)
        expected, expected_states = _run_recording_streams(problem, config, monkeypatch)
        assert result.stats == expected.stats
        assert result.best_genotype == expected.best_genotype
        assert states == expected_states

    @pytest.mark.parametrize("name", [name for name, family in FAMILIES.items() if family.normalize_pairs])
    def test_batch_normalizers_see_only_the_default_metric(self, name, monkeypatch):
        # the GA's options name no metric, which lets `circular.normalize_pairs` serve Hamming only
        family, seen = FAMILIES[name], []

        def recorded(pairs, opts):
            seen.append(opts)
            return family.normalize_pairs(pairs, opts)

        monkeypatch.setitem(FAMILIES, name, dataclasses.replace(family, normalize_pairs=recorded))
        config = _tiny_config()
        run_ga(STREAM_PROBLEMS[name](), config)
        assert len(seen) == config.generations
        assert all(opts.metric is None for opts in seen)

    @pytest.mark.parametrize("rate", [1.0, 0.0])
    @pytest.mark.parametrize("mode", ["raw", "quotient"])
    def test_one_operator_per_run_one_call_per_generation(self, mode, rate, monkeypatch):
        # a tracer that wraps crossover_operator's result times the whole
        # crossover step of every generation, batch normalization included
        made, calls = [], []

        def counting_operator(problem, mode):
            made.append(mode)
            operator = crossover_operator(problem, mode)

            def counted(parents, rate, rng):
                offspring = operator(parents, rate, rng)
                calls.append((list(parents), offspring))
                return offspring

            return counted

        monkeypatch.setattr(ga, "crossover_operator", counting_operator)
        config = _tiny_config(mode=mode, crossover_rate=rate)
        run_ga(sequence_problem("acgtta"), config)
        assert made == [mode]
        assert len(calls) == config.generations
        assert all(len(offspring) == config.population for _, offspring in calls)
        if rate == 0.0:
            assert all(offspring == parents for parents, offspring in calls)


def _same_run(result, expected):
    assert result.stats == expected.stats
    assert result.best_genotype == expected.best_genotype
    assert result.best_fitness == expected.best_fitness
    assert result.evaluations == expected.evaluations


# the benchmark's problems at reduced budgets
BENCH_SHAPED = {
    "tsp": (lambda: random_tsp_problem(cities=100, instance_seed=4242), 20, 10),
    "sequence": (lambda: sequence_problem("".join(
        "acgt"[i] for i in np.random.default_rng(4242).integers(0, 4, size=100))), 20, 8),
    "partitioning": (lambda: partitioning_problem(nodes=60, groups=4, edge_prob=0.08,
                                                  instance_seed=4242), 20, 10),
    "symmetric": (lambda: symmetric_problem("sum_of_squares", length=40), 20, 10),
}


class TestParentScoreReuse:
    """An offspring equal to a parent of its own pair takes that parent's
    score instead of a fitness call; everything else is as before."""

    @pytest.mark.parametrize("mode", ["raw", "quotient"])
    @pytest.mark.parametrize("name", list(GA_PROBLEMS))
    def test_golden_runs_equal_the_run_scoring_every_offspring(self, name, mode):
        problem, config = GA_PROBLEMS[name](), ga_config(name, mode)
        _same_run(run_ga(problem, config), run_ga_scoring_every_offspring(problem, config)[0])

    @pytest.mark.parametrize("mode", ["raw", "quotient"])
    @pytest.mark.parametrize("name", list(BENCH_SHAPED))
    def test_bench_shaped_runs_equal_the_run_scoring_every_offspring(self, name, mode):
        make, population, generations = BENCH_SHAPED[name]
        problem = make()
        for seed in (0, 1):
            config = GAConfig(population=population, generations=generations, mode=mode, seed=seed)
            _same_run(run_ga(problem, config), run_ga_scoring_every_offspring(problem, config)[0])

    @pytest.mark.parametrize("mode", ["raw", "quotient"])
    def test_fitness_calls_skip_exactly_the_offspring_equal_to_a_parent(self, mode):
        problem = random_tsp_problem(cities=30, instance_seed=1)
        config = GAConfig(population=30, generations=20, mode=mode, seed=3)
        calls = []

        def counting(tour):
            calls.append(tour)
            return problem.fitness(tour)

        run_ga(dataclasses.replace(problem, fitness=counting), config)
        _, repeats = run_ga_scoring_every_offspring(problem, config)
        budget = config.population * (config.generations + 1)
        assert len(calls) == budget - repeats < budget

    @pytest.mark.parametrize("mode", ["raw", "quotient"])
    def test_a_sequence_run_scores_each_generation_in_one_packed_call(self, mode, monkeypatch):
        make, population, generations = BENCH_SHAPED["sequence"]
        problem = make()
        config = GAConfig(population=population, generations=generations, mode=mode, seed=0)
        expected, repeats = run_ga_scoring_every_offspring(problem, config)
        kind, sizes = type(problem.fitness), []

        def counting(fitness, strs):
            sizes.append(len(strs))
            return packed(fitness, strs)

        def one_by_one(fitness, s):
            raise AssertionError(f"{s!r} scored alone")

        packed = kind.batch
        monkeypatch.setattr(kind, "batch", counting)
        monkeypatch.setattr(kind, "__call__", one_by_one)
        _same_run(run_ga(problem, config), expected)
        assert len(sizes) == generations + 1 and sizes[0] == population
        assert sum(sizes) == population * (generations + 1) - repeats


def _recording(seen, phase, fn):
    def recorded(*args, **kwargs):
        seen.append(phase)
        return fn(*args, **kwargs)

    return recorded


class TestPhases:
    """`run_ga` looks each phase up on `qgx.ga`, so one phase can be
    swapped without a copy of the generation loop."""

    @pytest.mark.parametrize("mode", ["raw", "quotient"])
    @pytest.mark.parametrize("name", list(GA_PROBLEMS))
    def test_a_recorded_evaluate_gives_the_same_run(self, name, mode, monkeypatch):
        problem, config = GA_PROBLEMS[name](), ga_config(name, mode)
        expected, seen = run_ga(problem, config), []
        monkeypatch.setattr(ga, "evaluate", _recording(seen, "evaluate", ga.evaluate))
        _same_run(run_ga(problem, config), expected)
        assert seen == ["evaluate"] * config.generations

    @pytest.mark.parametrize("mode", ["raw", "quotient"])
    @pytest.mark.parametrize("name", ["grouping", "symmetric-discrete", "sequence"])
    def test_each_generation_runs_the_five_phases_in_order(self, name, mode, monkeypatch):
        problem, config, seen = STREAM_PROBLEMS[name](), _tiny_config(mode=mode), []
        expected = run_ga(problem, config)
        for phase in ("select", "normalize", "recombine", "mutate", "evaluate"):
            monkeypatch.setattr(ga, phase, _recording(seen, phase, getattr(ga, phase)))
        _same_run(run_ga(problem, config), expected)
        generation = ["select", "normalize", "recombine"] + ["mutate"] * config.population + ["evaluate"]
        assert seen == generation * config.generations


def _selection_problem(tied):
    # with tied, fitness takes only the values -1, 0 and 1, so most
    # tournaments hold entrants of equal fitness
    fitness = (lambda x: float(round(x[0]))) if tied else (lambda x: float(sum(v * v for v in x)))
    return Problem(name="selection", family="symmetric-real", fitness=fitness,
                   initializer=lambda rng: random_real_vector(3, rng, -1.0, 1.0))


@pytest.mark.parametrize("tied", [False, True])
@pytest.mark.parametrize("tournament", [1, 2, 3, 4])
@pytest.mark.parametrize("population", [2, 20, 30, 60])
def test_selection_matches_the_scalar_tournament(population, tournament, tied, monkeypatch):
    """The first generation's parents are those of one scalar tournament
    per parent, in pair order, on the initial population, and the
    selection stream ends where population x tournament scalar draws
    per generation leave it."""
    problem = _selection_problem(tied)
    pairs = []

    def recording_operator(problem, mode):
        def record(parents, rate, rng):
            pairs.extend(zip(parents[::2], parents[1::2]))
            return list(parents)

        return record

    monkeypatch.setattr(ga, "crossover_operator", recording_operator)
    for seed in range(3):
        pairs.clear()
        config = GAConfig(population=population, generations=3, crossover_rate=1.0,
                          mutation_rate=0.0, tournament=tournament, seed=seed)
        _, states = _run_recording_streams(problem, config, monkeypatch)

        init, sel = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(4)[:2])
        initial = [problem.initializer(init) for _ in range(population)]
        fitness = [problem.fitness(g) for g in initial]
        picks = [initial[scalar_tournament(fitness, tournament, sel)] for _ in range(population)]
        assert pairs[: population // 2] == list(zip(picks[::2], picks[1::2]))
        for _ in range(2 * population * tournament):
            sel.integers(0, population)
        assert states[1] == sel.bit_generator.state


# Every draw kind qgx makes, by range: coins (2), edit operations (3),
# labels (k = 3..5), tournament picks (population 20, 30, 60) and swap
# positions (100 cities); uniform floats; gaussian steps.
DRAW_KINDS = [("integers", (0, r)) for r in (2, 3, 4, 5, 20, 30, 60, 100)] + [
    ("random", ()),
    ("normal", (0.0, 0.1)),
]


@pytest.mark.parametrize("method,args", DRAW_KINDS)
def test_one_sized_draw_equals_as_many_scalar_draws(method, args):
    """The fact that lets a sized draw replace a loop of scalar draws:
    the same values and the same Generator state afterwards. Checked on
    numpy 2.4.6. Each seed's two streams run on through sizes 0..64, so
    draws also start from a half-used 64-bit word, and a size-0 draw
    leaves the state alone."""
    for seed in range(4):
        sized, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        for size in range(65):
            values = getattr(sized, method)(*args, size=size).tolist()
            assert values == [getattr(scalar, method)(*args) for _ in range(size)], size
            assert sized.bit_generator.state == scalar.bit_generator.state, size


class TestMutate:
    def test_rate_zero_identity(self):
        rng = np.random.default_rng(0)
        g = (1, 2, 3, 2)
        assert mutate(g, "grouping", 0.0, rng, k=3) == g

    def test_permutation_stays_valid(self):
        rng = np.random.default_rng(1)
        g = tuple(range(1, 9))
        for _ in range(500):
            g = mutate(g, "circular", 0.5, rng)
            assert sorted(g) == list(range(1, 9))

    def test_graph_mutation_preserves_shape(self):
        rng = np.random.default_rng(2)
        g = random_adjacency(6, 0.4, rng)
        for _ in range(1000):
            g = mutate(g, "graph", 0.1, rng)
            adjacency(g)

    def test_symbol_mutation_respects_alphabet(self):
        rng = np.random.default_rng(3)
        g = (1, 1, 1, 1, 1)
        seen = set()
        for _ in range(300):
            g2 = mutate(g, "grouping", 0.5, rng, k=4)
            seen.update(g2)
            assert all(1 <= v <= 4 for v in g2)
        assert seen == {1, 2, 3, 4}

    def test_sequence_mutation_single_edit(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            s = "acgtac"
            s2 = mutate(s, "sequence", 1.0, rng)
            assert edit_distance(s, s2) <= 1
            assert "-" not in s2

    def test_real_mutation_at_rate_zero_keeps_the_vector_and_still_draws(self):
        g = random_real_vector(6, np.random.default_rng(5)) + (-0.0,)
        rng, ref = np.random.default_rng(6), np.random.default_rng(6)
        assert repr(mutate(g, "symmetric-real", 0.0, rng)) == repr(g)
        ref.random(7)
        ref.normal(0.0, MUTATION_SIGMA, size=7)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_real_mutation_at_rate_one_moves_every_coordinate(self):
        rng = np.random.default_rng(5)
        g = random_real_vector(40, rng)
        g2 = mutate(g, "symmetric-real", 1.0, rng)
        assert len(g2) == 40
        assert all(a != b for a, b in zip(g, g2))

    @pytest.mark.parametrize("rate", [0.0, 0.05, 0.5, 1.0])
    @pytest.mark.parametrize("n", [0, 1, 5, 40])
    def test_real_mutation_matches_the_per_coordinate_form(self, rate, n):
        source = np.random.default_rng(n)
        rng, ref = np.random.default_rng(11), np.random.default_rng(11)
        for trial in range(40):
            g = tuple(source.normal(size=n).tolist())
            if trial % 2:  # signed zeros, which repr tells apart and == does not
                g = tuple(-0.0 if i % 3 else v for i, v in enumerate(g))
            got = mutate(g, "symmetric-real", rate, rng)
            assert repr(got) == repr(comprehension_mutate_reals(g, rate, ref, None, None))
            assert all(type(v) is float for v in got)
            assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("rate", [0.0, 0.05, 0.5, 1.0])
    @pytest.mark.parametrize("n", [1, 6, 60])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_symbol_mutation_matches_the_numpy_index_form(self, rate, n, k):
        source = np.random.default_rng(n * k)
        rng, ref = np.random.default_rng(13), np.random.default_rng(13)
        for _ in range(40):
            g = random_symbol_vector(n, k, source)
            got = mutate(g, "grouping", rate, rng, k=k)
            assert repr(got) == repr(numpy_index_mutate_symbols(g, rate, ref, k, None))
            assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("family", ["grouping", "symmetric-discrete"])
    def test_symbol_mutation_without_k_raises_before_any_draw(self, family):
        rng = np.random.default_rng(7)
        state = rng.bit_generator.state
        with pytest.raises(ParameterError, match="k must be an integer"):
            mutate((1, 2, 3, 1), family, 1.0, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("family", ["grouping", "symmetric-discrete"])
    def test_symbol_mutation_with_one_label_keeps_the_genotype(self, family):
        rng = np.random.default_rng(7)
        state = rng.bit_generator.state
        assert mutate((1, 1, 1), family, 1.0, rng, k=1) == (1, 1, 1)
        assert rng.bit_generator.state == state

    def test_bad_rate(self):
        # the one rate check that GAConfig makes too
        for rate in (1.2, "0.5", None, True):
            with pytest.raises(ParameterError):
                mutate((1, 2), "grouping", rate, np.random.default_rng(0), k=2)
            with pytest.raises(ParameterError):
                GAConfig(population=2, generations=1, mutation_rate=rate)


class TestProblemBuilding:
    def test_build_problem_dispatch(self):
        p = build_problem({"name": "partitioning", "nodes": 10, "groups": 2})
        assert p.family == "grouping"
        assert p.k == 2

    def test_build_problem_unknown(self):
        with pytest.raises(ParameterError):
            build_problem({"name": "knapsack"})

    def test_build_problem_bad_params(self):
        with pytest.raises(InputError):
            build_problem({"name": "tsp", "cities": 10, "bogus": 1})

    def test_unknown_family_rejected(self):
        with pytest.raises(ParameterError):
            Problem(name="x", family="trees", fitness=len, initializer=lambda r: ())

    @pytest.mark.parametrize("alphabet,message", [
        ("-a", "alphabet must be non-empty without the gap '-', got '-a'"),
        ("", "alphabet must be non-empty without the gap '-', got ''"),
        (3, "alphabet must be a string, got 3"),
    ])
    def test_sequence_alphabet_is_checked_when_the_problem_is_built(self, alphabet, message):
        # mutation inserts its letters: a gap letter would reach raw-mode genotypes
        hand_built = lambda: Problem(name="s", family="sequence", fitness=len,
                                     initializer=lambda r: "acgt", alphabet=alphabet)
        for build in (hand_built, lambda: sequence_problem("acgt", alphabet)):
            with pytest.raises(InputError) as info:
                build()
            assert str(info.value) == message

    def test_problem_alphabet_defaults_to_the_sequence_alphabet(self):
        problem = Problem(name="s", family="sequence", fitness=len, initializer=lambda r: "acgt")
        assert problem.alphabet == SEQUENCE_ALPHABET

    def test_crossover_operator_rejects_bad_mode(self):
        problem = symmetric_problem()
        with pytest.raises(ParameterError):
            crossover_operator(problem, "both")

    def test_the_batch_entry_is_read_off_the_fitness(self):
        problem, strs, seen = sequence_problem("acgtacgt"), ["", "acgt", "acgtacgt", "tttt"], []

        @functools.wraps(problem.fitness)
        def traced(s):
            seen.append(s)
            return problem.fitness(s)

        expected = [float(edit_distance(s, "acgtacgt")) for s in strs]
        assert scores(problem.fitness, strs) == [problem.fitness(s) for s in strs] == expected
        assert scores(dataclasses.replace(problem, fitness=traced).fitness, strs) == expected
        assert seen == strs
        assert scores(len, strs) == [0, 4, 8, 4]

    def test_sequence_fitness_is_edit_distance_to_the_target(self):
        # candidates as a ga-sequence run makes them: a 100-letter target,
        # random sequences of 1..200 letters and their offspring
        target = "".join("acgt"[i] for i in np.random.default_rng(11).integers(0, 4, size=100))
        problem = sequence_problem(target)
        candidates = []

        def recording(s):
            candidates.append(s)
            return problem.fitness(s)

        for mode in ("raw", "quotient"):
            run_ga(dataclasses.replace(problem, fitness=recording), GAConfig(population=20, generations=4, mode=mode, seed=1))
        # both initial populations, and at most one call per offspring: an
        # offspring equal to a parent of its pair takes the parent's score
        assert 2 * 20 < len(candidates) <= 2 * 20 * 5
        for s in candidates + [target]:
            assert problem.fitness(s) == float(edit_distance(s, target))

    def test_partitioning_fitness_is_label_symmetric(self):
        from qgx.grouping import relabel

        problem = partitioning_problem(nodes=12, groups=3, edge_prob=0.3, instance_seed=4)
        rng = np.random.default_rng(6)
        for _ in range(30):
            g = problem.initializer(rng)
            sigma = tuple(int(v) + 1 for v in rng.permutation(3))
            assert problem.fitness(relabel(g, sigma)) == problem.fitness(g)

    @pytest.mark.parametrize("nodes,k,edge_prob,instance_seed,weight", [
        (1, 1, 0.5, 0, 1.0),
        (7, 3, 0.4, 1, 0.75),
        (12, 5, 0.0, 2, 2.5),
        (20, 4, 1.0, 3, 1.0),
        (33, 7, 0.2, 9, 0.1),
        (60, 4, 0.08, 0, 1.0),
    ])
    def test_labeling_scores_follow_their_formulas(self, nodes, k, edge_prob, instance_seed,
                                                   weight):
        graph = random_adjacency(nodes, edge_prob, np.random.default_rng(instance_seed))
        edges = [(u - 1, v - 1) for u, v in edges_of(graph)]
        partitioning = partitioning_problem(nodes, k, edge_prob, instance_seed, weight)
        coloring = coloring_problem(nodes, k, edge_prob, instance_seed)
        rng = np.random.default_rng(nodes)
        for _ in range(20):
            g = random_symbol_vector(nodes, k, rng)
            imbalance = 0.0
            for label in range(1, k + 1):
                imbalance += (g.count(label) - nodes / k) ** 2
            cut = sum(g[u] != g[v] for u, v in edges)
            assert repr(partitioning.fitness(g)) == repr(cut + weight * imbalance)
            assert repr(coloring.fitness(g)) == repr(float(sum(g[u] == g[v] for u, v in edges)))

    @pytest.mark.parametrize("build,params,message", [
        (partitioning_problem, {"instance_seed": -1, "balance_weight": "x"},
         "instance_seed must be >= 0, got -1"),
        (coloring_problem, {"colors": 0, "edge_prob": 2},
         "colors must be >= 1, got 0"),
    ])
    def test_labeling_problems_report_the_first_bad_field(self, build, params, message):
        with pytest.raises(ParameterError) as info:
            build(**params)
        assert str(info.value) == message

    def test_sequence_target_at_the_cap_is_accepted(self):
        assert sequence_problem("a" * MAX_NODES).name == f"sequence-match(len={MAX_NODES})"
