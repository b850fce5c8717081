"""Raw-vs-quotient GA and verify benchmark for qgx.

Run from the repository root:

    python3 bench/run.py --workload ga-tsp --seed 1 --seconds 25 --trace 0

It imports qgx from `src/` of the same checkout, runs one workload in
this process on one thread, checks the outputs, and prints one JSON
line last: `correct`, `attempted`, `failed` and `metrics`. `--trace 0`
reports the end-to-end metrics, `--trace 1` the per-layer ones. The
full result, with the seed and the machine, is also written under
`bench/results/`; see bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

# One thread, whatever the environment asks for: QGX_THREADS would start
# the GA's fitness pool, the others a BLAS pool under numpy.
os.environ.pop("QGX_THREADS", None)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["ga-partition", "ga-tsp", "ga-sequence", "verify"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=25.0, help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--quick", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**32:
        parser.error("--seed must be in [0, 2**32)")
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qgx" / "__init__.py").is_file():
        print(f"error: no qgx sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    from qgxbench import runner, workloads

    size = workloads.QUICK if args.quick else workloads.FULL
    out = runner.run(args.workload, args.seed, args.seconds, bool(args.trace), size, RESULTS / "work")
    report = out["report"]

    stem = f"{args.workload}-seed{args.seed}{'-quick' if args.quick else ''}{'-trace' if args.trace else ''}"
    RESULTS.mkdir(exist_ok=True)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
        **{key: value for key, value in out.items() if key != "spans"},
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(details, indent=1) + "\n")
    if args.trace:
        with open(RESULTS / f"{stem}-spans.jsonl", "w") as fh:
            for sid, (name, parent, start, end, extra) in enumerate(out["spans"]):
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start_ns": start, "end_ns": end, "extra": extra}) + "\n")

    print(f"workload {args.workload} seed {args.seed} rounds {out['rounds']} "
          f"attempted {report['attempted']} failed {report['failed']}")
    for message in out["failures"]:
        print(f"FAILED {message}")
    for name in out["missing_wrappers"]:
        print(f"missing traced function: {name}")
    for name, metric in report["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
