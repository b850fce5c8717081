"""Quotient geometric crossover toolkit.

Metric spaces over genotype representations, finite isometry-group
quotients modeling genotype-phenotype maps, normalization operators,
the quotient crossover each one induces (`Family.quotient_crossover`)
for six representation families (one registry, `families.FAMILIES`),
and a small GA harness for raw-vs-quotient comparisons.
"""

from .assignment import hungarian
from .crossovers import (
    cycle_crossover,
    line_crossover,
    mask_crossover,
    random_mask,
    uniform_crossover,
)
from .errors import (
    DimensionError,
    InputError,
    OrbitTooLargeError,
    ParameterError,
    QgxError,
    SizeCapError,
)
from .ga import GAConfig, GenerationStats, RunResult, mutate, run_ga
from .genotypes import (
    Mask,
    Permutation,
    RealVector,
    SymbolVector,
    permutation,
    real_vector,
    symbol_vector,
)
from .metrics import euclidean_distance, hamming_distance, in_segment, swap_distance
from .problems import Problem, build_problem
from .quotient import GroupAction, orbit
from .verify import (
    VerificationReport,
    verify_equivalence,
    verify_isometry,
    verify_metric_axioms,
    verify_quotient_metric,
)

__all__ = [
    "DimensionError",
    "GAConfig",
    "GenerationStats",
    "GroupAction",
    "InputError",
    "Mask",
    "OrbitTooLargeError",
    "ParameterError",
    "Permutation",
    "Problem",
    "QgxError",
    "RealVector",
    "RunResult",
    "SizeCapError",
    "SymbolVector",
    "VerificationReport",
    "build_problem",
    "cycle_crossover",
    "euclidean_distance",
    "hamming_distance",
    "hungarian",
    "in_segment",
    "line_crossover",
    "mask_crossover",
    "mutate",
    "orbit",
    "permutation",
    "random_mask",
    "real_vector",
    "run_ga",
    "swap_distance",
    "symbol_vector",
    "uniform_crossover",
    "verify_equivalence",
    "verify_isometry",
    "verify_metric_axioms",
    "verify_quotient_metric",
]

__version__ = "0.1.0"
