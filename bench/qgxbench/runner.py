"""One benchmark run: set-up, timed rounds, checks and metrics.

A round runs one raw and one quotient GA (their order alternates from
round to round, so drift in the machine hits both modes alike) and then
the workload's `qgx verify` sweep. Rounds repeat until the run's seconds
are spent, each with its own GA and verify seeds, and every timing is
reported as the median over the rounds. Outputs are checked outside the
timed calls; each operation whose checks fail counts as failed.

The machine's own speed changes by up to 2x within seconds and drifts
over minutes. So every timed call is bracketed by a fixed reference
computation (`reference_work`), and the end-to-end times are reported
at a fixed machine speed: measured seconds × `REFERENCE_S` / the mean
reference time measured just before and just after the call. The
program's code never runs in the reference, so a change to qgx moves
only the measured call.

In a traced run each round runs twice, untraced and traced, in
alternating order; the traced copy gives the per-layer metrics (plain
measured times) and the ratio of the two gives the tracing overhead.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import io
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import qgx
from qgx import cli
from qgx.ga import config_from_dict, run_ga

from . import checks, layers
from .workloads import FAMILY_SUITES, Size, build_inputs, check_pair, derive_seed

END_TO_END = {
    "setup_s": "s",
    "raw_run_s": "s",
    "quotient_run_s": "s",
    "verify_checks_per_s": "1/s",
}

_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import qgx\n"
    "print(time.perf_counter() - start)\n"
)

MAX_MESSAGES = 20

# Reported times are seconds at the speed where one `reference_work`
# call takes this long (about this machine's fast state).
REFERENCE_S = 0.012


def reference_work() -> int:
    """Fixed pure-Python and small-numpy work shaped like the GA's inner
    loops (tuple building, elementwise compares, counting, tiny arrays).
    It never calls qgx."""
    rng = np.random.default_rng(12345)
    base = tuple(int(v) for v in rng.permutation(100))
    total = 0
    for k in range(300):
        rot = base[k % 100:] + base[:k % 100]
        total += sum(a != b for a, b in zip(base, rot))
        mask = rng.integers(0, 2, size=100)
        child = tuple(a if m == 0 else b for a, b, m in zip(base, rot, mask))
        counts: dict[int, int] = {}
        for v in child:
            counts[v] = counts.get(v, 0) + 1
        total += len(counts) + int(np.minimum(np.arange(100), np.asarray(rot)).sum())
    return total


def reference_s() -> float:
    """Seconds one `reference_work` call takes now."""
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """Measured seconds scaled to the speed where the reference takes REFERENCE_S."""
    return seconds * REFERENCE_S * 2 / (before + after)


class Ledger:
    """Operations attempted and failed, with the first failure messages.

    An operation fails when it raises or when a check of its output
    fails; `wrong` counts only the latter, which make the run incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.messages: list[str] = []

    def op(self, what: str, errors: list[str], raised: bool = False) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.wrong += not raised
            room = MAX_MESSAGES - len(self.messages)
            self.messages += [f"{what}: {e}" for e in errors[:room]]

    def attempt(self, what: str, check):
        """Run `check()` (returning error messages) as one operation."""
        try:
            errors = check()
        except Exception as exc:  # a crash is a failed operation, not a crashed run
            self.op(what, [repr(exc)], raised=True)
        else:
            self.op(what, errors)


@dataclasses.dataclass
class RoundResult:
    times: dict  # end-to-end metric -> value at the reference speed
    measured: dict  # the same, as measured
    wall_s: float  # measured time spent in the round's timed calls
    outputs: tuple  # what the round computed, for repeat comparisons


class Run:
    def __init__(self, workload: str, seed: int, size: Size, work_dir: Path):
        self.workload = workload
        self.seed = seed
        self.size = size
        self.work_dir = work_dir
        self.ledger = Ledger()
        self.inputs = build_inputs(workload, seed, size)

    # -- set-up

    def measure_setup(self) -> tuple[float, float, float]:
        """One fresh-interpreter import time and one input build time, as
        measured, and their sum at the reference speed."""
        src = str(Path(qgx.__file__).resolve().parent.parent)
        before = reference_s()
        probe = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, src],
            capture_output=True, text=True, timeout=120, check=True,
        )
        gc.collect()
        start = time.perf_counter()
        build_inputs(self.workload, self.seed, self.size)
        built = time.perf_counter() - start
        imported = float(probe.stdout.split()[-1])
        return imported, built, at_reference_speed(imported + built, before, reference_s())

    # -- timed operations

    def _config(self, mode: str, ga_seed: int):
        inp = self.inputs
        return config_from_dict({
            "population": inp.population, "generations": inp.generations, "mode": mode, "seed": ga_seed,
        })

    def _ga(self, mode: str, ga_seed: int, tracer):
        problem = self.inputs.problem
        span = contextlib.nullcontext()
        if tracer is not None:
            problem = dataclasses.replace(problem, fitness=tracer.wrap("problems.fitness", problem.fitness))
            span = tracer.span("ga.run_ga")
        config = self._config(mode, ga_seed)
        gc.collect()
        start = time.perf_counter()
        with span:
            result = run_ga(problem, config)
        return result, time.perf_counter() - start

    def _verify(self, suite: str, family: str, verify_seed: int):
        argv = [
            "verify", "--suite", suite, "--family", family,
            "--trials", str(self.size.trials[family]), "--seed", str(verify_seed),
        ]
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
        return code, out.getvalue() + err.getvalue(), time.perf_counter() - start

    def round(self, r: int, tracer=None) -> RoundResult:
        inp = self.inputs
        ga_seed, verify_seed = derive_seed(self.seed, r, 0), derive_seed(self.seed, r, 1)
        modes = ("raw", "quotient") if r % 2 == 0 else ("quotient", "raw")
        times, measured, results = {}, {}, {}
        speed = [reference_s()]
        with tracer.installed() if tracer is not None else contextlib.nullcontext():
            for mode in modes:
                what = f"round {r} {mode} GA (seed {ga_seed})"
                try:
                    result, seconds = self._ga(mode, ga_seed, tracer)
                except Exception as exc:
                    self.ledger.op(what, [repr(exc)], raised=True)
                    continue
                finally:
                    speed.append(reference_s())
                measured[f"{mode}_run_s"] = seconds
                times[f"{mode}_run_s"] = at_reference_speed(seconds, *speed[-2:])
                results[mode] = (result.stats, result.best_genotype)
                self.ledger.attempt(what, lambda: checks.check_ga_result(
                    result, inp.population, inp.generations, inp.valid, inp.reference))

            reports, checked, sweep_s = [], 0, 0.0
            gc.collect()
            speed.append(reference_s())
            for family in inp.families:
                with tracer.span(f"suites.{family}") if tracer is not None else contextlib.nullcontext():
                    calls = [(suite, self._verify(suite, family, verify_seed)) for suite in FAMILY_SUITES[family]]
                for suite, (code, text, seconds) in calls:
                    n, errors = checks.check_verify_output(code, text)
                    self.ledger.op(f"round {r} verify {suite}/{family} (seed {verify_seed})", errors)
                    reports.append(text)
                    checked += n
                    sweep_s += seconds
            speed.append(reference_s())
        if checked:
            measured["verify_checks_per_s"] = checked / sweep_s
            times["verify_checks_per_s"] = checked / at_reference_speed(sweep_s, *speed[-2:])
        wall = sum(v for k, v in measured.items() if k.endswith("_run_s")) + sweep_s
        return RoundResult(times, measured, wall, (results, tuple(reports)))

    # -- checks made once per run

    def final_checks(self, first: RoundResult) -> None:
        ledger, inp = self.ledger, self.inputs
        ga_seed = derive_seed(self.seed, 0, 0)
        for mode in ("raw", "quotient"):
            ledger.attempt(f"repeat {mode} GA (seed {ga_seed})", lambda: self._repeat(first, mode, ga_seed))
        ledger.attempt("qgx ga CSV replay", self._csv_replay)
        for family, x, y, k in inp.pairs:
            ledger.attempt(f"normalize {family} {x!r} {y!r}", lambda: check_pair(family, x, y, k))

    def _repeat(self, first: RoundResult, mode: str, ga_seed: int) -> list[str]:
        if mode not in first.outputs[0]:
            return [f"round 0 has no {mode} run to repeat"]
        result = run_ga(self.inputs.problem, self._config(mode, ga_seed))
        return checks.check_same_run(first.outputs[0][mode], (result.stats, result.best_genotype))

    def _csv_replay(self) -> list[str]:
        gens = self.size.csv_generations
        doc = {
            "problem": self.inputs.problem_doc,
            "ga": {"population": self.inputs.population, "generations": gens,
                   "mode": "quotient", "seed": derive_seed(self.seed, 2)},
        }
        self.work_dir.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=self.work_dir) as tmp:
            config = Path(tmp, "config.json")
            config.write_text(json.dumps(doc))
            outs = []
            for i in range(2):
                out = Path(tmp, f"run{i}.csv")
                code = cli.main(["ga", "--config", str(config), "--out", str(out)])
                if code != 0:
                    return [f"qgx ga exited {code}"]
                outs.append(out.read_bytes())
        return checks.check_csv_replay(outs[0], outs[1], gens)


def run(workload: str, seed: int, seconds: float, trace: bool, size: Size, work_dir: Path) -> dict:
    """Run one workload; returns the report and the details behind it."""
    bench = Run(workload, seed, size, work_dir)
    setups = []
    tracer = layers.Tracer() if trace else None

    rounds: list[RoundResult] = []
    traced: list[RoundResult] = []
    round_stats, first_spans = [], None
    start = time.perf_counter()
    r = 0
    while r < size.min_rounds or time.perf_counter() - start < seconds:
        # set-up samples are spread evenly over the window, so that they
        # meet the same changes in machine speed as the rounds do
        if len(setups) < size.setup_reps and (
            time.perf_counter() - start >= len(setups) * seconds / size.setup_reps
        ):
            setups.append(bench.measure_setup())
        order = (False, True) if r % 2 == 0 else (True, False)
        for with_trace in order if trace else (False,):
            if with_trace:
                result = bench.round(r, tracer)
                spans = tracer.take_spans()
                first_spans = first_spans if first_spans is not None else spans
                round_stats.append(layers.summarize(spans))
                traced.append(result)
            else:
                rounds.append(bench.round(r))
        if trace:
            same = rounds[-1].outputs == traced[-1].outputs
            bench.ledger.op(f"round {r} traced copy", [] if same else ["tracing changed the outputs"])
        r += 1
    while len(setups) < size.setup_reps:
        setups.append(bench.measure_setup())
    bench.final_checks(rounds[0])
    imports, builds, setup_s = zip(*setups)

    samples = {name: [rd.times[name] for rd in rounds if name in rd.times] for name in END_TO_END}
    samples["setup_s"] = list(setup_s)
    measured = {name: [rd.measured[name] for rd in rounds if name in rd.measured] for name in END_TO_END}
    measured["setup_s"] = [a + b for a, b in zip(imports, builds)]
    if trace:
        values = {"setup.import_s": statistics.median(imports), "setup.inputs_s": statistics.median(builds)}
        values.update(layers.layer_metrics(round_stats))
        values["trace.overhead_share"] = statistics.median(
            t.wall_s / u.wall_s for t, u in zip(traced, rounds)
        ) - 1.0
        values["trace.spans"] = len(first_spans)
        values["trace.missing"] = len(tracer.missing)
        units = {name: unit for name, unit, _ in layers.per_layer_spec()}
    else:
        values = {name: statistics.median(v) for name, v in samples.items() if v}
        units = END_TO_END
    missing = [name for name in units if name not in values]
    if missing:
        raise RuntimeError(f"no measurement for {missing}; failures: {bench.ledger.messages}")

    ledger = bench.ledger
    return {
        "report": {
            "correct": ledger.wrong == 0,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        },
        "rounds": r,
        "samples": samples,
        "measured_samples": measured,
        "failures": ledger.messages,
        "missing_wrappers": sorted(tracer.missing) if trace else [],
        "spans": first_spans or [],
    }
