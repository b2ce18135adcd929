"""The names `import mintest` exports.

Pinned as one exact set, so that adding or dropping an export is a
deliberate change to this file.  Submodules are left out: which of them
show up as attributes depends on what else was imported first.
"""

import importlib
import os
import re
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import mintest

PUBLIC = {
    # matrix
    "BooleanMatrix",
    "ColumnSet",
    "DuplicateColumnWarning",
    "MatrixFormatError",
    "is_test",
    "load_matrix",
    "pair_count",
    "parse_matrix",
    "sort_rows_by_binary_value",
    # mandatory
    "ClassSet",
    "ClassView",
    "MandatoryResult",
    "Partition",
    "PartitionClass",
    "candidate_pair_count",
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
    "bijective_column_pairs",
    "cycle_costs",
    "iter_subsets_colex",
    "multiplicity_seeds",
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

# Removed names, by the module that defined them.  identical_projection_groups,
# local_deadend and local_deadend_reduce were row-scanning twins of the
# search's local decisions, which reads them off ClassSet.difference_masks.
# The others had no caller outside the tests, which keep references in
# tests/reference.py or inline them.
REMOVED = {
    "pruning": {
        "identical_projection_groups",
        "SweepResult",
        "all_k_subsets_fail",
        "first_collision",
        "is_local_test",
        "paired_view_columns",
        "residual_pairs_lower_bound",
    },
    "search": {"local_deadend", "local_deadend_reduce", "deadend_reduce"},
    "matrix": {"row_popcounts", "distinguishing_columns"},
    "mandatory": {"candidate_pairs"},
}

# The benchmark's worker calls the package as `mt.<name>`.
WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


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
    for module, names in REMOVED.items():
        submodule = importlib.import_module(f"mintest.{module}")
        assert not any(hasattr(mintest, name) for name in names)
        assert not any(hasattr(submodule, name) for name in names), module


def test_benchmark_worker_names_are_exported():
    """Every name the benchmark's worker reads off the package; one that
    is missing fails every benchmark run."""
    used = set(re.findall(r"\bmt\.(\w+)", WORKER.read_text(encoding="utf-8")))
    assert used  # the pattern still finds the calls
    assert used <= exported()


def run_fresh(code: str) -> None:
    """Run `code` in a new interpreter, where no test has loaded anything yet."""
    src = Path(mintest.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")


def test_star_import_binds_the_public_names():
    """Fresh, since a lazy name that another test has loaded binds without
    `__all__`."""
    run_fresh(
        f"""
        import types

        namespace = {{}}
        exec("from mintest import *", namespace)
        bound = {{
            name
            for name, value in namespace.items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)
        }}
        assert sorted(bound) == {sorted(PUBLIC)!r}, bound
        """
    )


def test_import_loads_only_the_solve_path():
    """`import mintest` in a fresh interpreter leaves the benchmark, the
    generator and the fixtures unloaded; their names load on first use."""
    run_fresh(
        """
        import sys
        import mintest

        lazy = ("mintest.bench", "mintest.generate", "mintest.fixtures")
        assert not [name for name in lazy if name in sys.modules]
        assert mintest.run_benchmark is sys.modules["mintest.bench"].run_benchmark
        assert "mintest.generate" in sys.modules  # bench imports it
        assert "mintest.fixtures" not in sys.modules
        assert mintest.fixtures.list_fixtures is mintest.list_fixtures
        try:
            mintest.no_such_name
        except AttributeError as exc:
            assert str(exc) == "module 'mintest' has no attribute 'no_such_name'"
        else:
            raise AssertionError("mintest.no_such_name resolved")
        """
    )
