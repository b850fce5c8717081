"""Randomized property checks for group, isometry, and quotient-metric laws.

Each check runs over sampled points and group elements and reports the
number of violations plus the first counterexample witness, so a failing
suite is immediately actionable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .errors import check_count
from .metrics import Metric
from .quotient import GroupAction, orbit

Sampler = Callable[[np.random.Generator], Any]
MAX_TRIALS = 10**6  # cap on trials and pair checks; the acceptance suite runs 3500 trials


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    checks: int
    violations: int
    witness: str | None = None

    @property
    def ok(self) -> bool:
        return self.violations == 0

    def line(self) -> str:
        status = "ok" if self.ok else "FAIL"
        msg = f"{self.suite}: {status} ({self.checks} checks, {self.violations} violations)"
        if self.witness is not None:
            msg += f"\n  first counterexample: {self.witness}"
        return msg


class _Tally:
    """A suite's check counts; fewer than one trial would report ok on no check."""

    def __init__(self, suite: str, trials: int):
        check_count("trials", trials, 1, MAX_TRIALS)
        self.suite = suite
        self.checks = 0
        self.violations = 0
        self.witness: str | None = None

    def check(self, ok: bool, describe: Callable[[], str]) -> None:
        self.checks += 1
        if not ok:
            self.violations += 1
            if self.witness is None:
                self.witness = describe()

    def report(self) -> VerificationReport:
        return VerificationReport(self.suite, self.checks, self.violations, self.witness)


def _pick(elements: tuple, rng: np.random.Generator):
    return elements[int(rng.integers(0, len(elements)))]


def _pseudometric_laws(tally: _Tally, d: Metric, x, y, z, tol: float) -> float:
    """Check d(x,x) = 0, symmetry and the triangle inequality on one triple; return d(x, y)."""
    tally.check(abs(d(x, x)) <= tol, lambda: f"d(x,x) != 0 for x={x!r}")
    dxy, dyx = d(x, y), d(y, x)
    tally.check(abs(dxy - dyx) <= tol, lambda: f"asymmetric: d({x!r},{y!r})={dxy} vs {dyx}")
    dxz, dyz = d(x, z), d(y, z)
    tally.check(
        dxz <= dxy + dyz + tol,
        lambda: f"triangle broken: d(x,z)={dxz} > {dxy}+{dyz} for x={x!r} y={y!r} z={z!r}",
    )
    return dxy


def verify_equivalence(
    action: GroupAction,
    sampler: Sampler,
    rng: np.random.Generator,
    trials: int = 1000,
) -> VerificationReport:
    """Reflexivity, symmetry, transitivity of the orbit relation.

    Reflexivity needs the identity, symmetry needs inverses, transitivity
    needs closure; all three are checked both as set membership and by
    acting on sampled points.
    """
    tally = _Tally(f"equivalence[{action.name}]", trials)
    members = frozenset(action.elements)
    for _ in range(trials):
        x = sampler(rng)
        g = _pick(action.elements, rng)
        h = _pick(action.elements, rng)

        tally.check(
            action.identity in members and action.apply(action.identity, x) == x,
            lambda: f"identity missing or not neutral on x={x!r}",
        )
        g_inv = action.inverse(g)
        tally.check(
            g_inv in members and action.apply(g_inv, action.apply(g, x)) == x,
            lambda: f"inverse of g={g!r} missing or ineffective on x={x!r}",
        )
        gh = action.compose(g, h)
        tally.check(
            gh in members and action.apply(gh, x) == action.apply(g, action.apply(h, x)),
            lambda: f"composition of g={g!r}, h={h!r} not in group or action law broken on x={x!r}",
        )
    return tally.report()


def verify_isometry(
    action: GroupAction,
    metric: Metric,
    sampler: Sampler,
    rng: np.random.Generator,
    trials: int = 1000,
    tol: float = 0.0,
) -> VerificationReport:
    """d(g(x), g(y)) == d(x, y) on sampled elements and point pairs."""
    tally = _Tally(f"isometry[{action.name}]", trials)
    for _ in range(trials):
        x, y = sampler(rng), sampler(rng)
        g = _pick(action.elements, rng)
        lhs = metric(action.apply(g, x), action.apply(g, y))
        rhs = metric(x, y)
        tally.check(
            abs(lhs - rhs) <= tol,
            lambda: f"g={g!r} moved d({x!r},{y!r}) from {rhs} to {lhs}",
        )
    return tally.report()


def verify_metric_axioms(
    metric: Metric,
    sampler: Sampler,
    rng: np.random.Generator,
    trials: int = 1000,
    tol: float = 0.0,
) -> VerificationReport:
    """Identity, symmetry, triangle inequality on sampled triples."""
    tally = _Tally("metric", trials)
    for _ in range(trials):
        x, y, z = sampler(rng), sampler(rng), sampler(rng)
        dxy = _pseudometric_laws(tally, metric, x, y, z, tol)
        tally.check(
            dxy >= 0 and (x != y or dxy <= tol),
            lambda: f"identity axiom broken on ({x!r},{y!r}): {dxy}",
        )
    return tally.report()


def verify_quotient_metric(
    action: GroupAction,
    metric: Metric,
    sampler: Sampler,
    rng: np.random.Generator,
    trials: int = 1000,
    tol: float = 0.0,
    *,
    quotient_dist: Callable[[Any, Any], float],
    pair_checks: int = 50,
) -> VerificationReport:
    """Metric axioms of `quotient_dist`, plus minimization sanity.

    Besides the axioms it checks class invariance d(x, g(y)) == d(x, y)
    and, on `pair_checks` sampled pairs, that one-sided and two-sided
    orbit minimization agree and that `quotient_dist` equals them (each
    pair's two orbits enumerated once).

    Each pair check makes |orbit(y)| + |orbit(x)|*|orbit(y)| base-metric
    calls: 14,520 for symmetric-real at n=5 (orbits of 120), at most 600
    for grouping at k=4 (orbits of at most 24), whatever `trials`. So the
    base metric's per-call cost sets the time of a quotient suite.
    """
    tally = _Tally(f"quotient-metric[{action.name}]", trials)
    check_count("pair_checks", pair_checks, 0, MAX_TRIALS)
    qd = quotient_dist
    for _ in range(trials):
        x, y, z = sampler(rng), sampler(rng), sampler(rng)
        dxy = _pseudometric_laws(tally, qd, x, y, z, tol)
        g = _pick(action.elements, rng)
        moved = qd(x, action.apply(g, y))
        tally.check(
            abs(moved - dxy) <= tol,
            lambda: f"class invariance broken: qd(x, g(y))={moved} vs qd(x,y)={dxy} for g={g!r}",
        )

    for _ in range(pair_checks):
        x, y = sampler(rng), sampler(rng)
        y_orbit = orbit(y, action)
        one_sided = min(metric(x, yy) for yy in y_orbit)
        two_sided = min(metric(xx, yy) for xx in orbit(x, action) for yy in y_orbit)
        tally.check(
            abs(one_sided - two_sided) <= tol,
            lambda: f"one-sided {one_sided} != two-sided {two_sided} on ({x!r},{y!r})",
        )
        fast = qd(x, y)
        tally.check(
            abs(fast - one_sided) <= tol,
            lambda: f"fast quotient distance {fast} != enumeration {one_sided} on ({x!r},{y!r})",
        )
    return tally.report()
