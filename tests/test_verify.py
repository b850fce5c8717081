"""Verification operations: positive runs on real groups, negative controls
on deliberately broken constructions."""

import re

import numpy as np
import pytest

from qgx import verify
from qgx.circular import shift, shift_action
from qgx.errors import ParameterError
from qgx.genotypes import random_symbol_vector
from qgx.grouping import relabeling_action
from qgx.metrics import euclidean_distance, hamming_distance
from qgx.quotient import GroupAction, orbit
from qgx.symmetric import coordinate_action
from qgx.verify import (
    verify_equivalence,
    verify_isometry,
    verify_metric_axioms,
    verify_quotient_metric,
)

from oracles import quotient_distance, trivial_action


def _symbols(n, k):
    return lambda rng: random_symbol_vector(n, k, rng)


def _reals(n):
    return lambda rng: tuple(float(v) for v in rng.uniform(-5, 5, size=n))


def test_shift_group_passes_equivalence():
    rng = np.random.default_rng(0)
    report = verify_equivalence(
        shift_action(5), lambda r: tuple(int(v) + 1 for v in r.permutation(5)), rng, 500
    )
    assert report.ok
    assert report.checks == 1500


def test_symmetric_group_passes_equivalence():
    rng = np.random.default_rng(1)
    report = verify_equivalence(relabeling_action(4), _symbols(5, 4), rng, 500)
    assert report.ok


def test_broken_action_fails_with_witness():
    # {s0, s1} inside the rotations of length 3: no closure (s1+s1=s2) and
    # no inverse for s1
    broken = GroupAction(
        name="broken-shift",
        elements=(0, 1),
        identity=0,
        apply=lambda k, p: shift(p, k),
        compose=lambda a, b: (a + b) % 3,
        inverse=lambda a: (3 - a) % 3,
    )
    rng = np.random.default_rng(2)
    report = verify_equivalence(
        broken, lambda r: tuple(int(v) + 1 for v in r.permutation(3)), rng, 200
    )
    assert not report.ok
    assert report.violations > 0
    assert report.witness is not None


def test_relabeling_is_hamming_isometry():
    rng = np.random.default_rng(3)
    report = verify_isometry(relabeling_action(4), hamming_distance, _symbols(6, 4), rng, 500)
    assert report.ok


def test_coordinate_shuffle_is_euclidean_isometry():
    rng = np.random.default_rng(4)
    report = verify_isometry(
        coordinate_action(5), euclidean_distance, _reals(5), rng, 500, tol=1e-9
    )
    assert report.ok


def test_non_isometry_detected():
    # "collapse everything to all-ones" pretends to be a transformation group
    collapse = GroupAction(
        name="collapse",
        elements=("e", "c"),
        identity="e",
        apply=lambda g, x: x if g == "e" else tuple(1 for _ in x),
        compose=lambda g, h: "c" if "c" in (g, h) else "e",
        inverse=lambda g: g,
    )
    rng = np.random.default_rng(5)
    report = verify_isometry(collapse, hamming_distance, _symbols(5, 3), rng, 300)
    assert not report.ok
    assert "moved" in report.witness


def test_metric_axioms_pass_for_hamming():
    rng = np.random.default_rng(6)
    report = verify_metric_axioms(hamming_distance, _symbols(6, 3), rng, 500)
    assert report.ok


def test_metric_axioms_flag_asymmetry():
    bad = lambda a, b: sum(max(x - y, 0) for x, y in zip(a, b))
    rng = np.random.default_rng(7)
    report = verify_metric_axioms(bad, _symbols(4, 3), rng, 300)
    assert not report.ok


def _enumerated(action, metric):
    return lambda a, b: quotient_distance(a, b, action, metric)


def test_quotient_metric_trivial_group_reduces_to_base():
    rng = np.random.default_rng(8)
    action = trivial_action()
    report = verify_quotient_metric(
        action, hamming_distance, _symbols(5, 3), rng, 300,
        quotient_dist=_enumerated(action, hamming_distance), pair_checks=30,
    )
    assert report.ok


def test_quotient_metric_small_relabeling_group():
    rng = np.random.default_rng(9)
    action = relabeling_action(3)
    report = verify_quotient_metric(
        action, hamming_distance, _symbols(4, 3), rng, 400,
        quotient_dist=_enumerated(action, hamming_distance), pair_checks=40,
    )
    assert report.ok


def test_quotient_metric_shift_group():
    rng = np.random.default_rng(10)
    action = shift_action(4)
    report = verify_quotient_metric(
        action,
        hamming_distance,
        lambda r: tuple(int(v) + 1 for v in r.permutation(4)),
        rng,
        400,
        quotient_dist=_enumerated(action, hamming_distance),
        pair_checks=40,
    )
    assert report.ok


def test_quotient_metric_enumerates_two_orbits_per_pair_check(monkeypatch):
    # no cache: each pair check enumerates orbit(y), then orbit(x), once
    rng = np.random.default_rng(10)
    action = shift_action(4)
    seen = []
    monkeypatch.setattr(verify, "orbit", lambda p, a: seen.append(p) or orbit(p, a))
    draws = []

    def sampler(r):
        draws.append(tuple(int(v) + 1 for v in r.permutation(4)))
        return draws[-1]

    report = verify_quotient_metric(
        action, hamming_distance, sampler, rng, 20,
        quotient_dist=_enumerated(action, hamming_distance), pair_checks=7,
    )
    assert report.ok and report.checks == 4 * 20 + 2 * 7
    pairs = draws[3 * 20:]
    assert seen == [p for x, y in zip(pairs[::2], pairs[1::2]) for p in (y, x)]


_SWAP_LABELS = relabeling_action(2)
VERIFIERS = {
    "metric": lambda n: verify_metric_axioms(hamming_distance, _symbols(3, 2), np.random.default_rng(0), n),
    "isometry": lambda n: verify_isometry(
        _SWAP_LABELS, hamming_distance, _symbols(3, 2), np.random.default_rng(0), n),
    "equivalence": lambda n: verify_equivalence(_SWAP_LABELS, _symbols(3, 2), np.random.default_rng(0), n),
    "quotient": lambda n: verify_quotient_metric(
        _SWAP_LABELS, hamming_distance, _symbols(3, 2), np.random.default_rng(0), n,
        quotient_dist=_enumerated(_SWAP_LABELS, hamming_distance)),
}


@pytest.mark.parametrize("trials", [0, -5])
@pytest.mark.parametrize("name", VERIFIERS)
def test_verifiers_refuse_runs_without_checks(name, trials):
    # a run of no trials would report ok on zero checks
    with pytest.raises(ParameterError, match=f"trials must be >= 1, got {trials}"):
        VERIFIERS[name](trials)


@pytest.mark.parametrize("trials", [verify.MAX_TRIALS + 1, 10**20])
@pytest.mark.parametrize("name", VERIFIERS)
def test_verifiers_refuse_more_than_max_trials(name, trials):
    with pytest.raises(ParameterError, match=f"trials must be at most 1000000, got {trials}$"):
        VERIFIERS[name](trials)


@pytest.mark.parametrize("trials", [2.5, True, "3"])
@pytest.mark.parametrize("name", VERIFIERS)
def test_verifiers_refuse_trials_that_are_not_integers(name, trials):
    # a float would reach `range()` as a TypeError, and True would run one trial
    with pytest.raises(ParameterError, match=f"^trials must be an integer, got {re.escape(repr(trials))}$"):
        VERIFIERS[name](trials)


@pytest.mark.parametrize("pair_checks,message", [
    (2.5, "pair_checks must be an integer, got 2.5"),
    (-1, "pair_checks must be >= 0, got -1"),
    (verify.MAX_TRIALS + 1, "pair_checks must be at most 1000000, got 1000001"),
])
def test_quotient_verifier_refuses_bad_pair_checks(pair_checks, message):
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        verify_quotient_metric(
            _SWAP_LABELS, hamming_distance, _symbols(3, 2), np.random.default_rng(0), 5,
            quotient_dist=_enumerated(_SWAP_LABELS, hamming_distance), pair_checks=pair_checks)


# broken distances on symbol vectors, each breaking one law of a pseudometric
BROKEN_DISTANCES = {
    "asymmetric": lambda a, b: sum(max(x - y, 0) for x, y in zip(a, b)),
    "triangle": lambda a, b: hamming_distance(a, b) ** 2,
    "(x,x) != 0": lambda a, b: hamming_distance(a, b) + 1,
}


@pytest.mark.parametrize("law", BROKEN_DISTANCES)
def test_metric_axioms_flag_each_broken_law(law):
    report = verify_metric_axioms(BROKEN_DISTANCES[law], _symbols(3, 2), np.random.default_rng(12), 300)
    assert not report.ok and law in report.witness
    assert report.checks == 4 * 300


@pytest.mark.parametrize("law", BROKEN_DISTANCES)
def test_quotient_metric_flags_each_broken_law(law):
    # the trivial group keeps class invariance, so a trial fails only on the broken law
    report = verify_quotient_metric(
        trivial_action(), hamming_distance, _symbols(3, 2), np.random.default_rng(13), 300,
        quotient_dist=BROKEN_DISTANCES[law], pair_checks=10,
    )
    assert not report.ok and law in report.witness
    assert report.checks == 4 * 300 + 2 * 10


def test_report_line_format():
    rng = np.random.default_rng(11)
    report = verify_metric_axioms(hamming_distance, _symbols(3, 2), rng, 10)
    assert "ok" in report.line()
    assert str(report.checks) in report.line()
