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
    iter_subsets_colex,
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
from .oracle import OracleCeilingError, OracleResult, oracle_deadend_tests, oracle_minimal_tests
from .generate import GenerationError, GeneratorConfig, SplitMix64, derive_seeds, generate_matrix
from .bench import (
    BenchResult,
    ExperimentRecord,
    StreamConfig,
    bench_matrix,
    csv_text,
    run_benchmark,
    summarize,
)
from .fixtures import (
    UnknownFixtureError,
    fixture_text,
    list_fixtures,
    load_fixture_classes,
    load_fixture_matrix,
)

__version__ = "0.1.0"
