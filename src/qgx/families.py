"""The six genotype families, each described once.

A `Family` holds everything the GA, the CLI and the verify suites need
from one representation: its text form, a suite-scale sampler, the base
metrics, the isometry group, the normalizer, the quotient distance, the
raw (base) crossover and mutation. Quotient mode is not written per
family: `Family.quotient_crossover` is the one quotient crossover step,
the normalizer followed by the raw crossover. Every normalizer returns
the pair (x*, y*) moved to close representatives of their classes, and
nothing else: a group family keeps the first parent and moves the
second, and the sequence family, whose stretch relation is not a group
action, aligns both parents, so its quotient crossover is
`tail_padded_crossover` run on the two aligned rows. The distance
between the classes is `Family.quotient_distance`, the one place each
family defines it; when the normalizer is exact, it equals the base
distance of (x*, y*), the Hamming distance of the two rows for
sequences. The GA runs `quotient_crossover` on both orders of a parent
pair, except where a family normalizes a generation's unequal pairs in
one call (`normalize_pairs`, a numpy batch, per pair for sequence), the one
place equal parents skip normalization: an exact normalizer returns (x, x)
for them and draws nothing.

Entries reach the family modules through the module attribute when they
are called (`circular.normalize(...)`, never a reference kept from
import time), so replacing a module attribute reaches every caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from . import circular, crossovers, graphs, grouping, sequences, symmetric
from .errors import InputError, ParameterError, check_count
from .genotypes import (
    permutation,
    random_permutation,
    random_real_vector,
    random_symbol_vector,
    real_vector,
    symbol_vector,
)
from .metrics import Metric, euclidean_distance, hamming_distance
from .quotient import GroupAction

REAL_TOL = 1e-9
SEQUENCE_ALPHABET = "acgt"
MUTATION_SIGMA = 0.1  # gaussian step for real vectors


@dataclass(frozen=True)
class Options:
    """Settings an entry may read.

    `k` is the alphabet size (grouping); `metric` the base metric name,
    None for the family's default; `size` the genotype size that
    `Family.sample` draws and `Family.action` builds its group at (the
    suites pass `Family.suite`), which no normalizer reads; `restarts`
    bounds the graph matcher beyond `graphs.EXACT_MATCH_CAP` nodes.
    """

    k: int | None = None
    metric: str | None = None
    size: int | None = None
    restarts: int = 20


@dataclass(frozen=True)
class Family:
    """One genotype family. `opts` is always an `Options`."""

    name: str
    parse: Callable[[str, int | None], Any]  # one genotype from its text form
    format: Callable[[Any], str]  # the text form of a genotype
    sample: Callable[[np.random.Generator, Options], Any]
    suite: Options  # the sizes the verify suites sample at
    metrics: dict[str, Metric]  # allowed base metrics; the first is the default
    action: Callable[[Options], GroupAction]  # the isometry group
    # (x, y, opts, rng) -> (x*, y*): the pair moved within its classes toward each
    # other; x* is x for every family with a group
    normalize: Callable
    quotient_distance: Callable[[Options, np.random.Generator], Metric]
    crossover: Callable  # raw crossover (x, y, rng), geometric under the base metric
    mutate: Callable  # (genotype, rate, rng, k, alphabet)
    tol: float = 0.0
    pair_checks: int = 0  # quotient-suite pairs; each enumerates two orbits
    resolve_k: Callable = lambda first, second, k: k  # alphabet size of a CLI pair, from its texts
    reads_files: bool = False  # CLI arguments name files holding the text form
    mode_errors: dict = field(default_factory=dict)  # (metric, mode) the CLI rejects -> why
    # (pairs, opts) -> [(normalize(x, y), normalize(y, x)) for each pair], ties included, by
    # exact work that draws nothing: one numpy pass, per pair for sequence; else None. It
    # serves the family's default metric, the only one the GA uses (`ga.normalize`);
    # circular's raises ParameterError on any other
    normalize_pairs: Callable | None = None

    @property
    def default_metric(self) -> str:
        return next(iter(self.metrics))

    @property
    def base_metric(self) -> Metric:
        return self.metrics[self.default_metric]

    def sampler(self) -> Callable[[np.random.Generator], Any]:
        return lambda rng: self.sample(rng, self.suite)

    def quotient_crossover(self, opts: Options) -> Callable:
        """(x, y, rng) -> the offspring of the quotient crossover: the raw
        crossover run on the pair (x*, y*) that `normalize` moves x and y to.

        When the normalizer is exact, the base distance of (x*, y*) is the
        quotient distance and the offspring stays in the quotient segment;
        a heuristic normalizer only upper-bounds it.
        """
        return lambda x, y, rng: self.crossover(*self.normalize(x, y, opts, rng), rng)


# ---------------------------------------------------------------- text forms

def format_real(v: float) -> str:
    return format(float(v), ".10g")


def _ints(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split()]
    except ValueError as exc:
        raise InputError(f"expected space-separated integers, got {text!r}") from exc


def _reals(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split()]
    except ValueError as exc:
        raise InputError(f"expected space-separated decimals, got {text!r}") from exc


def _sequence(text: str) -> str:
    if len(text) > graphs.MAX_NODES:  # normalize and crossover fill a quadratic alignment table
        raise InputError(f"sequence must be at most {graphs.MAX_NODES} letters, got {len(text)}")
    return sequences.check_sequence(text)


def _spaced(g) -> str:
    return " ".join(str(v) for v in g)


def _require_k(first: str, second: str, k: int | None) -> int:
    if k is None:
        raise InputError("--k (alphabet size) is required for the grouping family")
    return k


def _largest_label(first: str, second: str, k: int | None) -> int:
    return k if k is not None else max(_ints(first) + _ints(second), default=0)


# ---------------------------------------------------------------- operators

def _base(opts: Options) -> str:
    return opts.metric or "hamming"


def _group_pairs(pairs, moved):
    # a group family's `normalize_pairs` from each pair's two moved second parents
    return [((x, y_star), (y, x_star)) for (x, y), (y_star, x_star) in zip(pairs, moved)]


def _circular_pairs(pairs, opts):
    # the batch rotates under Hamming only; the pair check comes first
    moved = circular.normalize_pairs(pairs)
    if _base(opts) != "hamming":
        raise ParameterError(f"the circular batch serves metric 'hamming' only, got {opts.metric!r}")
    return _group_pairs(pairs, moved)


def _graph_match(x, y, opts, rng) -> graphs.MatchResult:
    # exhaustive up to EXACT_MATCH_CAP nodes, drawing nothing; heuristic beyond
    if len(x) <= graphs.EXACT_MATCH_CAP:
        return graphs.quotient_distance_exact(x, y)
    return graphs.match_heuristic(x, y, opts.restarts, rng)


def _graph_normalize(x, y, opts, rng):
    return x, graphs.conjugate(y, _graph_match(x, y, opts, rng).permutation)


def _no_group(opts):
    raise ParameterError(
        "family 'sequence' has no isometry group (the stretch relation is an "
        "equivalence but not a group action)"
    )


def _uniform(x, y, rng):
    return crossovers.uniform_crossover(x, y, rng)


# ---------------------------------------------------------------- mutations

def _mutate_symbols(g, rate, rng, k, alphabet):
    """Draw rule: n uniforms, then per hit (u < rate), in index order, one
    integers(1, k) that picks one of the other k - 1 labels; k = 1 draws nothing."""
    check_count("k", k, 1)
    if k == 1:
        return g
    out = list(g)
    for i in (rng.random(len(g)) < rate).nonzero()[0].tolist():
        v = int(rng.integers(1, k))
        out[i] = v if v < out[i] else v + 1
    return tuple(out)


def _mutate_reals(g, rate, rng, k, alphabet):
    """Draw rule: n uniforms, then n normals, per call; each hit v (u < rate) moves to v + step."""
    hits = (rng.random(len(g)) < rate).nonzero()[0].tolist()
    out, steps = list(g), rng.normal(0.0, MUTATION_SIGMA, size=len(g))
    for i in hits:
        out[i] += float(steps[i])
    return tuple(out)


def _mutate_swap(g, rate, rng, k, alphabet):
    out = list(g)
    if rng.random() < rate and len(out) >= 2:
        i = int(rng.integers(0, len(out)))
        j = int(rng.integers(0, len(out) - 1))
        if j >= i:
            j += 1
        out[i], out[j] = out[j], out[i]
    return tuple(out)


def _mutate_edges(g, rate, rng, k, alphabet):
    pairs = graphs.node_pairs(len(g))
    flips = {pair for pair, hit in zip(pairs, rng.random(len(pairs)) < rate) if hit}
    return graphs.adjacency_from_edges(len(g), flips.symmetric_difference(graphs.edges_of(g)))


def _mutate_edit(s, rate, rng, k, alphabet):
    """One random substitution, insertion or deletion with probability rate."""
    if rng.random() >= rate:
        return s
    ops = ["substitute", "insert", "delete"]
    op = ops[int(rng.integers(0, 3))] if s else "insert"
    if op == "delete" and len(s) <= 1:
        op = "insert"
    pos = int(rng.integers(0, len(s) + (op == "insert")))  # an insertion has len(s) + 1 slots
    if op == "delete":
        return s[:pos] + s[pos + 1 :]
    ch = alphabet[int(rng.integers(0, len(alphabet)))]
    return s[:pos] + ch + s[pos + (op == "substitute") :]


# ---------------------------------------------------------------- the registry

_FAMILIES = (
    Family(
        name="grouping",
        parse=lambda text, k: symbol_vector(_ints(text), k),
        format=_spaced,
        sample=lambda rng, o: random_symbol_vector(o.size, o.k, rng),
        suite=Options(k=4, size=6),
        metrics={"hamming": hamming_distance},
        action=lambda o: grouping.relabeling_action(o.k),
        normalize=lambda x, y, o, rng: (x, grouping.li_normalize(x, y, o.k)),
        normalize_pairs=lambda pairs, o: _group_pairs(pairs, grouping.li_normalize_pairs(pairs, o.k)),
        quotient_distance=lambda o, rng: lambda x, y: grouping.li_distance(x, y, o.k),
        crossover=_uniform,
        mutate=_mutate_symbols,
        pair_checks=50,
        resolve_k=_require_k,
    ),
    Family(
        name="graph",
        parse=lambda text, k: graphs.parse_edge_list(text),
        format=lambda a: graphs.format_edge_list(a),
        sample=lambda rng, o: graphs.random_adjacency(o.size, 0.5, rng),
        suite=Options(size=5),
        metrics={"hamming": lambda a, b: graphs.matrix_hamming(a, b)},
        action=lambda o: graphs.conjugation_action(o.size),
        normalize=_graph_normalize,
        quotient_distance=lambda o, rng: lambda x, y: _graph_match(x, y, o, rng).dist,
        crossover=lambda a, b, rng: graphs.uniform_edge_crossover(a, b, rng),
        mutate=_mutate_edges,
        pair_checks=8,
        reads_files=True,
    ),
    Family(
        name="symmetric-real",
        parse=lambda text, k: real_vector(_reals(text)),
        format=lambda x: " ".join(format_real(v) for v in x),
        sample=lambda rng, o: random_real_vector(o.size, rng),
        suite=Options(size=5),
        metrics={"euclidean": euclidean_distance},
        action=lambda o: symmetric.coordinate_action(o.size),
        normalize=lambda x, y, o, rng: (x, symmetric.normalize_real(x, y)[0]),
        normalize_pairs=lambda pairs, o: _group_pairs(pairs, symmetric.normalize_real_pairs(pairs)),
        quotient_distance=lambda o, rng: symmetric.quotient_euclidean,
        crossover=lambda x, y, rng: crossovers.line_crossover(x, y, float(rng.random())),
        mutate=_mutate_reals,
        tol=REAL_TOL,
        pair_checks=20,
    ),
    Family(
        name="symmetric-discrete",
        parse=lambda text, k: symbol_vector(_ints(text), k),
        format=_spaced,
        sample=lambda rng, o: random_symbol_vector(o.size, o.k, rng),
        suite=Options(k=3, size=5),
        metrics={"hamming": hamming_distance},
        action=lambda o: symmetric.coordinate_action(o.size),
        normalize=lambda x, y, o, rng: (x, symmetric.normalize_discrete(x, y)[0]),
        quotient_distance=lambda o, rng: symmetric.quotient_hamming,
        crossover=_uniform,
        mutate=_mutate_symbols,
        pair_checks=20,
        resolve_k=_largest_label,
    ),
    Family(
        name="circular",
        parse=lambda text, k: permutation(_ints(text)),
        format=_spaced,
        sample=lambda rng, o: random_permutation(o.size, rng),
        suite=Options(size=7),
        metrics=circular.BASE_METRICS,
        action=lambda o: circular.shift_action(o.size),
        normalize=lambda x, y, o, rng: (x, circular.normalize(x, y, _base(o))),
        normalize_pairs=_circular_pairs,
        quotient_distance=lambda o, rng: lambda x, y: circular.quotient_distance(x, y, _base(o)),
        crossover=lambda x, y, rng: crossovers.cycle_crossover(x, y, rng),
        mutate=_mutate_swap,
        pair_checks=50,
    ),
    Family(
        name="sequence",
        parse=lambda text, k: _sequence(text),
        format=str,
        sample=lambda rng, o: sequences.random_sequence(o.size, SEQUENCE_ALPHABET, rng),
        suite=Options(size=12),
        # edit distance is the class-level distance of stretchings; Hamming
        # compares stretched (equal-length) genotypes
        metrics={"edit": lambda s, t: sequences.edit_distance(s, t), "hamming": hamming_distance},
        action=_no_group,
        normalize=lambda x, y, o, rng: sequences.optimal_align(x, y),
        normalize_pairs=lambda pairs, o: [sequences.optimal_align_both(x, y) for x, y in pairs],
        quotient_distance=lambda o, rng: lambda s, t: sequences.edit_distance(s, t),
        crossover=lambda s, t, rng: sequences.tail_padded_crossover(s, t, rng),
        mutate=_mutate_edit,
        mode_errors={
            ("edit", "raw"): "raw mode on sequences uses --metric hamming on equal lengths",
            ("hamming", "quotient"): "hamming on sequences is the raw (stretched-genotype) metric",
        },
    ),
)

FAMILIES: dict[str, Family] = {family.name: family for family in _FAMILIES}
