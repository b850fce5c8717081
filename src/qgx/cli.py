"""Command-line front end.

One-shot subcommands print a single value or genotype; `verify` runs a
property suite; `ga` runs an experiment and writes a CSV. Every command
is deterministic given its full argument list including --seed.

Exit codes: 0 success, 1 verification found violations, 2 input error,
3 I/O error, 4 internal error (an unexpected exception, reported in one
line instead of a traceback).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import graphs, suites
from .errors import InputError, QgxError, check_count
from .families import FAMILIES, Family, Options, format_real
from .ga import config_from_dict, run_ga
from .problems import build_problem

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_INPUT = 2
EXIT_IO = 3
EXIT_INTERNAL = 4


def _pair(args) -> tuple[Family, Options, tuple]:
    """The family, its options and the two parsed parents of a pair command."""
    family = FAMILIES[args.family]
    check_count("--restarts", args.restarts, 1, graphs.MAX_RESTARTS)
    metric = args.metric or family.default_metric
    if metric not in family.metrics:
        raise InputError(
            f"metric {metric!r} is not supported for family {args.family!r} "
            f"(allowed: {sorted(family.metrics)})"
        )
    k = family.resolve_k(args.first, args.second, args.k)
    texts = (Path(t).read_text() if family.reads_files else t for t in (args.first, args.second))
    a, b = (family.parse(text, k) for text in texts)
    return family, Options(k=k, metric=metric, restarts=args.restarts), (a, b)


def cmd_distance(args) -> int:
    family, opts, (a, b) = _pair(args)
    rejected = family.mode_errors.get((opts.metric, args.mode))
    if rejected:
        raise InputError(rejected)
    rng = np.random.default_rng(args.seed)
    if args.mode == "raw":
        value = family.metrics[opts.metric](a, b)
    else:
        value = family.quotient_distance(opts, rng)(a, b)
    print(value if isinstance(value, int) else format_real(value))
    return EXIT_OK


def cmd_normalize(args) -> int:
    # prints y* only; for sequences that is the aligned (stretched) second parent
    family, opts, (a, b) = _pair(args)
    _, y_star = family.normalize(a, b, opts, np.random.default_rng(args.seed))
    print(family.format(y_star))
    return EXIT_OK


def cmd_crossover(args) -> int:
    family, opts, (a, b) = _pair(args)
    rng = np.random.default_rng(args.seed)
    xover = family.crossover if args.mode == "raw" else family.quotient_crossover(opts)
    print(family.format(xover(a, b, rng)))
    return EXIT_OK


def cmd_verify(args) -> int:
    reports = suites.run_suite(args.suite, args.family, args.trials, args.seed)
    for report in reports:
        print(report.line())
    return EXIT_OK if all(r.ok for r in reports) else EXIT_VIOLATIONS


def cmd_ga(args) -> int:
    text = Path(args.config).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "problem" not in doc or "ga" not in doc:
        raise InputError("config must be a JSON object with 'problem' and 'ga' sections")

    problem = build_problem(doc["problem"])
    config = config_from_dict(doc["ga"])
    result = run_ga(problem, config)

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["generation", "best", "mean", "evaluations", "mode", "seed"])
        for s in result.stats:
            writer.writerow(
                [s.generation, format_real(s.best), format_real(s.mean), s.evaluations, config.mode, config.seed]
            )
    return EXIT_OK


def seed(text: str) -> int:
    """argparse type of --seed: numpy takes only non-negative seeds."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgx",
        description="Quotient geometric crossover toolkit: distances, normalizers, "
        "crossovers, property suites, and GA experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    metrics = list(dict.fromkeys(m for family in FAMILIES.values() for m in family.metrics))

    def add_pair_command(name: str, func, with_mode: bool):
        sp = sub.add_parser(name)
        sp.add_argument("--family", required=True, choices=FAMILIES)
        sp.add_argument("--metric", default=None, choices=metrics)
        if with_mode:
            sp.add_argument("--mode", default="quotient", choices=["raw", "quotient"])
        sp.add_argument("--k", type=int, default=None, help="alphabet size (grouping)")
        sp.add_argument("--seed", type=seed, default=0)
        sp.add_argument("--restarts", type=int, default=20, help="heuristic graph matching restarts")
        sp.add_argument("first", help="first parent (text format, or file path for graphs)")
        sp.add_argument("second", help="second parent")
        sp.set_defaults(func=func)

    add_pair_command("distance", cmd_distance, with_mode=True)
    add_pair_command("normalize", cmd_normalize, with_mode=False)
    add_pair_command("crossover", cmd_crossover, with_mode=True)

    sp = sub.add_parser("verify")
    sp.add_argument("--suite", required=True, choices=suites.SUITES)
    sp.add_argument("--family", required=True, choices=suites.FAMILIES)
    sp.add_argument("--trials", type=int, default=1000)
    sp.add_argument("--seed", type=seed, default=0)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("ga")
    sp.add_argument("--config", required=True, help="JSON config with 'problem' and 'ga' sections")
    sp.add_argument("--out", required=True, help="CSV output path")
    sp.set_defaults(func=cmd_ga)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except QgxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
