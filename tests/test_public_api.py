"""The names `import mintest` exports.

Pinned as one exact set, so that adding or dropping an export is a
deliberate change to this file.  Submodules are left out: which of them
show up as attributes depends on what else was imported first.
"""

import types

import mintest

PUBLIC = {
    # matrix
    "BooleanMatrix",
    "ColumnSet",
    "DuplicateColumnWarning",
    "MatrixFormatError",
    "distinguishing_columns",
    "is_test",
    "load_matrix",
    "pair_count",
    "parse_matrix",
    "row_popcounts",
    "sort_rows_by_binary_value",
    # mandatory
    "ClassSet",
    "ClassView",
    "MandatoryResult",
    "Partition",
    "PartitionClass",
    "candidate_pair_count",
    "candidate_pairs",
    "class_views",
    "find_mandatory",
    "load_class_set",
    "parse_class_set",
    "partition_by_mandatory",
    # heuristic
    "ColumnPairStats",
    "HeuristicEstimate",
    "column_pair_stats",
    "estimate_length",
    "integral_length",
    "union_pair_stats",
    # pruning
    "CycleCost",
    "IdenticalProjectionGroup",
    "SweepResult",
    "all_k_subsets_fail",
    "bijective_column_pairs",
    "cycle_costs",
    "is_local_test",
    "iter_subsets_colex",
    "multiplicity_seeds",
    "paired_view_columns",
    "residual_pairs_lower_bound",
    "seed_masks",
    # search
    "Correction",
    "DeadendCheck",
    "LocalReport",
    "SearchCeilingError",
    "SearchConfig",
    "SearchStats",
    "TestReport",
    "TestVerdict",
    "deadend_reduce",
    "enumerate_local_minimal_tests",
    "enumerate_minimal_tests",
    "is_deadend",
    "verify_test",
    # oracle
    "OracleCeilingError",
    "OracleResult",
    "oracle_deadend_tests",
    "oracle_minimal_tests",
    # generate
    "GenerationError",
    "GeneratorConfig",
    "SplitMix64",
    "derive_seeds",
    "generate_matrix",
    # bench
    "BenchResult",
    "ExperimentRecord",
    "StreamConfig",
    "bench_matrix",
    "csv_text",
    "run_benchmark",
    "summarize",
    # fixtures
    "UnknownFixtureError",
    "fixture_text",
    "list_fixtures",
    "load_fixture_classes",
    "load_fixture_matrix",
}

# Row-scanning twins of the search's local decisions, which now reads them
# off ClassSet.difference_masks.
REMOVED = {"identical_projection_groups", "local_deadend", "local_deadend_reduce"}


def exported():
    return {
        name
        for name in dir(mintest)
        if not name.startswith("_")
        and not isinstance(getattr(mintest, name), types.ModuleType)
    }


def test_public_names_are_exactly_the_pinned_set():
    assert exported() == PUBLIC


def test_removed_names_stay_removed():
    assert not REMOVED & exported()
    assert not any(hasattr(mintest, name) for name in REMOVED)
