"""Minimal distinguishing column sets (diagnostic tests) of Boolean matrices.

A *test* of a 0/1 matrix is a set of columns whose projection keeps all
rows pairwise distinct; this package finds all minimal tests exactly via
mandatory-column detection, row-class decomposition, a multiplicative
length estimate and theorem-backed pruning, every step verifiable against
a built-in exhaustive oracle.
"""

from .matrix import (
    BooleanMatrix,
    ColumnSet,
    DuplicateColumnWarning,
    MatrixFormatError,
    is_test,
    load_matrix,
    pair_count,
    parse_matrix,
    sort_rows_by_binary_value,
)
from .mandatory import (
    MandatoryResult,
    Partition,
    PartitionClass,
    candidate_pair_count,
    class_views,
    find_mandatory,
    load_class_set,
    parse_class_set,
    partition_by_mandatory,
)
from .heuristic import (
    ColumnPairStats,
    HeuristicEstimate,
    column_pair_stats,
    estimate_length,
    integral_length,
    union_pair_stats,
)
from .pruning import (
    ClassSet,
    ClassView,
    CycleCost,
    IdenticalProjectionGroup,
    bijective_column_pairs,
    cycle_costs,
    multiplicity_seeds,
    seed_masks,
)
from .search import (
    Correction,
    DeadendCheck,
    LocalReport,
    SearchCeilingError,
    SearchConfig,
    SearchStats,
    TestReport,
    TestVerdict,
    enumerate_local_minimal_tests,
    enumerate_minimal_tests,
    is_deadend,
    verify_test,
)
from .oracle import (
    OracleCeilingError,
    OracleResult,
    iter_subsets_colex,
    oracle_deadend_tests,
    oracle_minimal_tests,
)

# The benchmark, the generator and the bundled fixtures are not on the
# solve path, so their names load on first use (PEP 562).
_LAZY = {
    "bench": (
        "BenchResult",
        "ExperimentRecord",
        "StreamConfig",
        "bench_matrix",
        "csv_text",
        "run_benchmark",
        "summarize",
    ),
    "generate": (
        "GenerationError",
        "GeneratorConfig",
        "SplitMix64",
        "derive_seeds",
        "generate_matrix",
    ),
    "fixtures": (
        "UnknownFixtureError",
        "fixture_text",
        "list_fixtures",
        "load_fixture_classes",
        "load_fixture_matrix",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__version__ = "0.1.0"


def __getattr__(name: str):
    from importlib import import_module

    if name in _LAZY:
        return import_module(f"{__name__}.{name}")
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys() | _HOME.keys())


# What `from mintest import *` binds, the lazy names included.
__all__ = [name for name in __dir__() if not name.startswith("_")]
