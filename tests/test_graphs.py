"""Graph matching, conjugation action, and the graph quotient crossover."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from qgx.errors import DimensionError, InputError, ParameterError, SizeCapError
from qgx.families import FAMILIES, Options
from qgx.genotypes import identity_permutation, invert_permutation, random_permutation
from qgx.graphs import (
    EXACT_MATCH_CAP,
    HEURISTIC_MATCH_CAP,
    MAX_NODES,
    MAX_RESTARTS,
    adjacency_from_edges,
    conjugate,
    conjugation_action,
    edges_of,
    format_edge_list,
    make_quotient_hamming,
    match_heuristic,
    matrix_hamming,
    node_pairs,
    parse_edge_list,
    quotient_distance_exact,
    random_adjacency,
    uniform_edge_crossover,
)
from qgx.quotient import orbit

from oracles import (
    adjacency,
    brute_graph_distance,
    cellwise_matrix_hamming,
    loop_graph_match,
    loop_match_heuristic,
    loop_mutate_edges,
    loop_random_adjacency,
    loop_uniform_edge_crossover,
)

# the worked 3-node pair: a path graph and a "cherry" with the same shape
PATH_A = ((0, 1, 0), (1, 0, 1), (0, 1, 0))
PATH_B = ((0, 0, 1), (0, 0, 1), (1, 1, 0))


def iq_crossover(a, b, rng):
    """The graph family's quotient crossover: match b to a exactly, then mask-recombine."""
    return FAMILIES["graph"].quotient_crossover(Options(size=len(a)))(a, b, rng)


class TestAdjacency:
    def test_validation_accepts_simple_graph(self):
        assert adjacency([[0, 1], [1, 0]]) == ((0, 1), (1, 0))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(InputError):
            adjacency([[1, 0], [0, 0]])

    def test_rejects_asymmetric(self):
        with pytest.raises(InputError):
            adjacency([[0, 1], [0, 0]])

    def test_edge_list_roundtrip(self):
        a = adjacency_from_edges(4, [(1, 2), (2, 3), (3, 4)])
        assert parse_edge_list(format_edge_list(a)) == a
        assert edges_of(a) == ((1, 2), (2, 3), (3, 4))

    def test_edge_list_bad_header(self):
        with pytest.raises(InputError):
            parse_edge_list("3\n1 2")

    @pytest.mark.parametrize("text,message", [
        ("3 1 5\n1 2\n", """edge list line 1: header "n m" is not two integers: '3 1 5'"""),
        ("2 1\n\n1 2 3\n", """edge list line 3: edge "u v" is not two integers: '1 2 3'"""),
        ("2 1\n1 x\n", """edge list line 2: edge "u v" is not two integers: '1 x'"""),
    ])
    def test_edge_list_names_the_line_that_is_not_two_integers(self, text, message):
        with pytest.raises(InputError) as info:
            parse_edge_list(text)
        assert str(info.value) == message

    def test_edge_list_rejects_lines_past_the_count(self):
        with pytest.raises(InputError, match="announces 1 edges, found 2"):
            parse_edge_list("3 1\n1 2\n2 3\n")

    @pytest.mark.parametrize("n", [MAX_NODES + 1, 100000])
    def test_edge_list_header_over_the_node_cap(self, n):
        # refused before the n x n grid is built
        with pytest.raises(InputError, match=f"at most {MAX_NODES} nodes, got n={n}"):
            parse_edge_list(f"{n} 0")

    def test_rejects_self_loop_edge(self):
        with pytest.raises(InputError):
            adjacency_from_edges(3, [(2, 2)])

    @pytest.mark.parametrize("edges", [[(1, 2), (3, 1), (1, 2)], [(1, 2), (3, 1), (2, 1)]])
    def test_rejects_repeated_edge(self, edges):
        u, v = edges[-1]
        with pytest.raises(InputError, match=rf"repeated edge \({u},{v}\)"):
            adjacency_from_edges(3, edges)


class TestEdgeDraws:
    """The node-pair walks draw what the former per-cell loops drew."""

    @pytest.mark.parametrize("n", range(1, 10))
    def test_same_matrices_and_generator_state_as_the_cell_loops(self, n):
        mutate = FAMILIES["graph"].mutate

        def same(new_call, old_call, seed):
            new, old = np.random.default_rng(seed), np.random.default_rng(seed)
            assert new_call(new) == old_call(old)
            assert new.bit_generator.state == old.bit_generator.state

        for seed in range(6):
            for prob in (0.0, 0.3, 1.0):
                pair_rng = np.random.default_rng([n, seed])
                a = loop_random_adjacency(n, prob, pair_rng)
                b = loop_random_adjacency(n, 0.5, pair_rng)
                same(lambda r: random_adjacency(n, prob, r),
                     lambda r: loop_random_adjacency(n, prob, r), seed)
                same(lambda r: mutate(b, prob, r, None, None),
                     lambda r: loop_mutate_edges(b, prob, r, None, None), seed)
                same(lambda r: uniform_edge_crossover(a, b, r),
                     lambda r: loop_uniform_edge_crossover(a, b, r), seed)

    def test_node_pairs_row_by_row(self):
        assert node_pairs(1) == ()
        assert node_pairs(4) == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))

    def test_no_graph_without_nodes(self):
        with pytest.raises(InputError, match="at least one node, got n=0"):
            random_adjacency(0, 0.5, np.random.default_rng(0))


class TestMatrixHamming:
    def test_matches_the_cellwise_form(self):
        rng = np.random.default_rng(11)
        for n in range(1, 9):
            for _ in range(20):
                a, b = random_adjacency(n, 0.5, rng), random_adjacency(n, 0.3, rng)
                for x, y in ((a, b), (a, a), (b, conjugate(a, random_permutation(n, rng)))):
                    d = matrix_hamming(x, y)
                    assert d == cellwise_matrix_hamming(x, y)
                    assert type(d) is int

    def test_size_mismatch_message(self):
        with pytest.raises(DimensionError) as caught:
            matrix_hamming(PATH_A, adjacency_from_edges(2, [(1, 2)]))
        assert str(caught.value) == "size mismatch: 3 vs 2"


class TestConjugate:
    def test_identity(self):
        assert conjugate(PATH_B, (1, 2, 3)) == PATH_B

    def test_worked_relabeling_recovers_path(self):
        assert conjugate(PATH_B, (1, 3, 2)) == PATH_A
        assert matrix_hamming(PATH_A, conjugate(PATH_B, (1, 3, 2))) == 0

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            a = random_adjacency(6, 0.5, rng)
            p = random_permutation(6, rng)
            assert conjugate(conjugate(a, p), invert_permutation(p)) == a

    def test_preserves_simple_graph_shape(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            a = random_adjacency(5, 0.5, rng)
            p = random_permutation(5, rng)
            adjacency(conjugate(a, p))  # validates symmetry and zero diagonal

    def test_is_hamming_isometry(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = random_adjacency(5, 0.5, rng)
            b = random_adjacency(5, 0.5, rng)
            p = random_permutation(5, rng)
            assert matrix_hamming(conjugate(a, p), conjugate(b, p)) == matrix_hamming(a, b)


class TestExactDistance:
    def test_worked_example(self):
        result = quotient_distance_exact(PATH_A, PATH_B)
        assert result.dist == 0
        assert result.permutation == (1, 3, 2)  # lexicographically first optimum

    def test_worked_example_row_values(self):
        rows = [
            matrix_hamming(PATH_A, conjugate(PATH_B, p))
            for p in itertools.permutations((1, 2, 3))
        ]
        assert rows == [4, 0, 4, 0, 4, 4]

    def test_self_distance(self):
        result = quotient_distance_exact(PATH_A, PATH_A)
        assert result.dist == 0
        assert result.permutation == identity_permutation(3)

    def test_conjugated_copy_is_at_distance_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            a = random_adjacency(5, 0.5, rng)
            p = random_permutation(5, rng)
            assert quotient_distance_exact(a, conjugate(a, p)).dist == 0

    def test_matches_independent_brute_force(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            a = random_adjacency(5, 0.5, rng)
            b = random_adjacency(5, 0.5, rng)
            assert quotient_distance_exact(a, b).dist == brute_graph_distance(a, b)

    @pytest.mark.parametrize("n,pairs", [(1, 3), (2, 10), (3, 15), (4, 15), (5, 15), (6, 10), (7, 2), (8, 2)])
    def test_matches_loop_matcher(self, n, pairs):
        # sparse and dense graphs both tie often, so this pins "first optimum wins"
        rng = np.random.default_rng(100 + n)
        for t in range(pairs):
            p = 0.2 if t % 2 else 0.5
            a = random_adjacency(n, p, rng)
            b = random_adjacency(n, p, rng)
            result = quotient_distance_exact(a, b)
            assert (result.dist, result.permutation) == loop_graph_match(a, b)

    @pytest.mark.parametrize("n,copies", [(1, 1), (2, 3), (3, 5), (4, 5), (5, 5), (6, 5), (7, 2), (8, 1)])
    def test_relabeled_copy_matches_loop_matcher(self, n, copies):
        rng = np.random.default_rng(200 + n)
        for _ in range(copies):
            a = random_adjacency(n, 0.4, rng)
            b = conjugate(a, random_permutation(n, rng))
            result = quotient_distance_exact(a, b)
            assert result.dist == 0
            assert (result.dist, result.permutation) == loop_graph_match(a, b)

    def test_size_cap(self):
        rng = np.random.default_rng(5)
        a = random_adjacency(9, 0.3, rng)
        with pytest.raises(SizeCapError):
            quotient_distance_exact(a, a)

    def test_cached_variant_agrees(self):
        rng = np.random.default_rng(6)
        qdist = make_quotient_hamming()
        for _ in range(30):
            a = random_adjacency(5, 0.4, rng)
            b = random_adjacency(5, 0.4, rng)
            assert qdist(a, b) == quotient_distance_exact(a, b).dist


class TestHeuristic:
    def test_identical_graphs_found_and_bounded(self):
        rng = np.random.default_rng(7)
        for n in (4, 6, 8):
            a = random_adjacency(n, 0.5, rng)
            result = match_heuristic(a, a, 10, rng)
            exact = quotient_distance_exact(a, a)
            assert result.dist >= exact.dist
            assert result.dist == 0

    def test_worked_pair_within_ten_restarts(self):
        rng = np.random.default_rng(8)
        assert match_heuristic(PATH_A, PATH_B, 10, rng).dist == 0

    def test_upper_bounds_exact(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            a = random_adjacency(6, 0.5, rng)
            b = random_adjacency(6, 0.5, rng)
            assert match_heuristic(a, b, 5, rng).dist >= quotient_distance_exact(a, b).dist

    def test_isomorphic_midsize_majority_success(self):
        rng = np.random.default_rng(10)
        hits = 0
        runs = 10
        for _ in range(runs):
            a = random_adjacency(12, 0.4, rng)
            b = conjugate(a, random_permutation(12, rng))
            if match_heuristic(a, b, 20, rng).dist == 0:
                hits += 1
        assert hits > runs // 2

    def test_monotone_in_restarts(self):
        base = np.random.default_rng(11)
        a = random_adjacency(7, 0.5, base)
        b = random_adjacency(7, 0.5, base)
        dists = [
            match_heuristic(a, b, r, np.random.default_rng(99)).dist
            for r in (1, 3, 6, 12, 24)
        ]
        assert all(d2 <= d1 for d1, d2 in zip(dists, dists[1:]))

    def test_same_result_and_draws_as_the_loop_matcher(self):
        rng = np.random.default_rng(13)
        pairs = []
        for n in range(1, 15):
            empty, complete = adjacency_from_edges(n, ()), adjacency_from_edges(n, node_pairs(n))
            a, b, c, d = (random_adjacency(n, float(rng.uniform(0.1, 0.9)), rng) for _ in range(4))
            pairs += [(a, b), (c, d), (b, c), (empty, b), (a, complete), (empty, complete), (complete, complete)]
        for i, (a, b) in enumerate(pairs):
            restarts = 1 + i % 5
            mine, loop = np.random.default_rng(i), np.random.default_rng(i)
            result = match_heuristic(a, b, restarts, mine)
            assert (result.dist, result.permutation) == loop_match_heuristic(a, b, restarts, loop)
            assert type(result.dist) is int and all(type(v) is int for v in result.permutation)
            assert mine.bit_generator.state == loop.bit_generator.state

    def test_cap_raises_before_any_draw(self):
        assert HEURISTIC_MATCH_CAP == 64
        rng = np.random.default_rng(14)
        state = rng.bit_generator.state
        a = adjacency_from_edges(HEURISTIC_MATCH_CAP + 1, ())
        with pytest.raises(SizeCapError, match="^heuristic matching capped at n=64, got n=65$"):
            match_heuristic(a, a, 1, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("restarts", [0, -5, 2.5, True, MAX_RESTARTS + 1])
    def test_bad_restarts_raise_before_any_draw(self, restarts):
        base = np.random.default_rng(15)
        a, b = random_adjacency(9, 0.5, base), random_adjacency(9, 0.5, base)
        graph_distance = FAMILIES["graph"].quotient_distance
        for call in (
            lambda rng: match_heuristic(a, b, restarts, rng),
            lambda rng: graph_distance(Options(restarts=restarts), rng)(a, b),
        ):
            rng = np.random.default_rng(16)
            state = rng.bit_generator.state
            with pytest.raises(ParameterError, match="^restarts must be "):
                call(rng)
            assert rng.bit_generator.state == state


class TestIqCrossover:
    def test_matched_class_forces_first_parent(self):
        rng = np.random.default_rng(12)
        a = random_adjacency(5, 0.5, rng)
        b = conjugate(a, random_permutation(5, rng))
        for _ in range(10):
            assert iq_crossover(a, b, rng) == a

    def test_worked_pair_every_offspring_is_first_parent(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            assert iq_crossover(PATH_A, PATH_B, rng) == PATH_A

    def test_offspring_valid_and_geometric(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            a = random_adjacency(5, 0.5, rng)
            b = random_adjacency(5, 0.5, rng)
            b_star = conjugate(b, quotient_distance_exact(a, b).permutation)
            z = iq_crossover(a, b, rng)
            adjacency(z)
            assert (
                matrix_hamming(a, z) + matrix_hamming(z, b_star)
                == matrix_hamming(a, b_star)
            )

    def test_quotient_segment_containment(self):
        rng = np.random.default_rng(15)
        qdist = make_quotient_hamming()
        for _ in range(150):
            a = random_adjacency(5, 0.5, rng)
            b = random_adjacency(5, 0.5, rng)
            z = iq_crossover(a, b, rng)
            assert qdist(a, z) + qdist(z, b) == qdist(a, b)

    def test_raw_crossover_stays_valid(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            a = random_adjacency(6, 0.5, rng)
            b = random_adjacency(6, 0.5, rng)
            adjacency(uniform_edge_crossover(a, b, rng))

    def test_matcher_normalizer_through_generic_layer(self):
        rng = np.random.default_rng(17)
        family = FAMILIES["graph"]
        opts = Options(size=5)
        xover = dataclasses.replace(family, crossover=uniform_edge_crossover).quotient_crossover(opts)
        qdist = make_quotient_hamming()
        for _ in range(30):
            a = random_adjacency(5, 0.5, rng)
            b = random_adjacency(5, 0.5, rng)
            a_star, b_star = family.normalize(a, b, opts, rng)
            assert a_star == a
            assert matrix_hamming(a_star, b_star) == qdist(a, b)
            child = xover(a, b, rng)
            assert qdist(a, child) + qdist(child, b) == qdist(a, b)


class TestOrbitStructure:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_orbit_size_divides_factorial(self, n):
        rng = np.random.default_rng(17)
        action = conjugation_action(n)
        for _ in range(5):
            a = random_adjacency(n, 0.5, rng)
            assert math.factorial(n) % len(orbit(a, action)) == 0

    def test_exact_cap_constant_documented(self):
        assert EXACT_MATCH_CAP == 8
