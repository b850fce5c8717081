"""Per-family verification suites: the structural laws run as random checks.

Shared by the CLI `verify` command and the acceptance tests. Everything
a suite needs from a family comes from its `families.FAMILIES` entry;
dimensions are pinned at desk scale (`Family.suite`) so a full pass
stays inside a tight time budget:

  grouping            length 6, alphabet 4
  graph               5 nodes
  symmetric-real      length 5
  symmetric-discrete  length 5, alphabet 3
  circular            length 7
  sequence            length <= 12, 4-letter alphabet
"""

from __future__ import annotations

import numpy as np

from . import families
from .errors import check_choice
from .metrics import in_segment
from .verify import (
    VerificationReport,
    _Tally,
    verify_equivalence,
    verify_isometry,
    verify_metric_axioms,
    verify_quotient_metric,
)

SUITES = ("metric", "group", "quotient", "segment")
FAMILIES = families.FAMILIES


def _family(name: str) -> families.Family:
    check_choice("family", name, FAMILIES)
    return FAMILIES[name]


def metric_suite(family: str, trials: int, seed: int) -> VerificationReport:
    fam = _family(family)
    rng = np.random.default_rng(seed)
    return verify_metric_axioms(fam.base_metric, fam.sampler(), rng, trials, fam.tol)


def group_suite(family: str, trials: int, seed: int) -> list[VerificationReport]:
    fam = _family(family)
    action = fam.action(fam.suite)
    rng = np.random.default_rng(seed)
    return [
        verify_equivalence(action, fam.sampler(), rng, trials),
        verify_isometry(action, fam.base_metric, fam.sampler(), rng, trials, fam.tol),
    ]


def quotient_suite(family: str, trials: int, seed: int) -> VerificationReport:
    fam = _family(family)
    action = fam.action(fam.suite)
    rng = np.random.default_rng(seed)
    return verify_quotient_metric(
        action,
        fam.base_metric,
        fam.sampler(),
        rng,
        trials,
        tol=fam.tol,
        quotient_dist=fam.quotient_distance(fam.suite, rng),
        pair_checks=fam.pair_checks,
    )


def segment_suite(family: str, trials: int, seed: int) -> VerificationReport:
    """Offspring of the quotient crossover lie on the quotient segment.

    Every family runs the same normalize-then-crossover path. For
    sequences the class-level distance is the edit distance, so offspring
    of mask crossover on the aligned rows must sit on tight edit-distance
    triangles.
    """
    fam = _family(family)
    offspring_fn = fam.quotient_crossover(fam.suite)
    sampler = fam.sampler()
    rng = np.random.default_rng(seed)
    qdist = fam.quotient_distance(fam.suite, rng)
    tally = _Tally(f"segment[{family}]", trials)
    for _ in range(trials):
        x, y = sampler(rng), sampler(rng)
        z = offspring_fn(x, y, rng)
        tally.check(
            in_segment(x, z, y, qdist, fam.tol),
            lambda: f"offspring {z!r} outside the quotient segment of ({x!r}, {y!r})",
        )
    return tally.report()


def run_suite(suite: str, family: str, trials: int, seed: int) -> list[VerificationReport]:
    check_choice("suite", suite, SUITES)
    if suite == "metric":
        return [metric_suite(family, trials, seed)]
    if suite == "group":
        return group_suite(family, trials, seed)
    if suite == "quotient":
        return [quotient_suite(family, trials, seed)]
    return [segment_suite(family, trials, seed)]
