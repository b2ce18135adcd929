"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its runtime.  Expected values are frozen from the
bundled fixtures and independently confirmed by the exhaustive oracle."""

import time
from contextlib import contextmanager

import pytest

from conftest import (
    Q25_CLASSES,
    Q25_MINIMAL_TESTS,
    Q25_UNDISTINGUISHED,
)

from mintest import (
    GeneratorConfig,
    SearchConfig,
    StreamConfig,
    candidate_pair_count,
    class_views,
    column_pair_stats,
    csv_text,
    derive_seeds,
    enumerate_local_minimal_tests,
    enumerate_minimal_tests,
    estimate_length,
    find_mandatory,
    generate_matrix,
    integral_length,
    is_deadend,
    iter_subsets_colex,
    load_fixture_classes,
    load_fixture_matrix,
    multiplicity_seeds,
    oracle_minimal_tests,
    partition_by_mandatory,
    run_benchmark,
    sort_rows_by_binary_value,
    union_pair_stats,
)
from reference import all_k_subsets_fail, is_local_test, residual_pairs_lower_bound

# the ones-count column of the bundled 25x10 fixture, in row-label order
Q25_CODE_COLUMN = (
    4, 2, 7, 4, 4, 5, 4, 4, 6, 6, 1, 3, 4, 4, 6, 3, 7, 3, 3, 5, 4, 4, 3, 7, 3,
)
Q25_SORTED_LABELS = (
    19, 12, 22, 11, 4, 2, 16, 25, 5, 10, 14, 18, 23, 20, 24,
    21, 17, 6, 7, 13, 9, 8, 1, 15, 3,
)
SEED_TABLE = {
    (1, 2): (10, 14, 25),
    (1, 3): (3, 9, 13),
    (1, 6): (2, 19, 20),
    (2, 3): (6, 10, 25),
    (2, 6): (2, 7, 19),
    (2, 9): (2, 7, 21),
    (4, 6): (7, 19, 20),
    (4, 7): (7, 19, 20),
    (6, 7): (7, 19, 20),
}


@contextmanager
def criterion(number: int, label: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:02d} FAIL - {label}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number:02d} PASS - {label} ({elapsed:.3f}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s: {elapsed:.3f}s"


@pytest.fixture(scope="module")
def q25():
    return load_fixture_matrix("q25x10")


def test_01_fixture_integrity(q25):
    with criterion(1, "fixture popcounts and sort order", 0.1):
        pops = {lab: q25.bits(lab).bit_count() for lab in q25.row_labels}
        assert tuple(pops[lab] for lab in range(1, 26)) == Q25_CODE_COLUMN
        assert pops[11] == 1 and pops[3] == 7 and pops[24] == 7
        assert sort_rows_by_binary_value(q25).row_labels == Q25_SORTED_LABELS


def test_02_mandatory_detection(q25):
    with criterion(2, "mandatory columns, witnesses, candidate pairs", 0.1):
        result = find_mandatory(q25)
        assert result.columns == (5, 8, 10)
        assert {(2, 25), (6, 21)} <= set(result.witnesses[5])
        assert {(5, 25), (19, 22)} <= set(result.witnesses[8])
        assert (12, 22) in result.witnesses[10]
        pairs = candidate_pair_count(q25)
        assert pairs == 94
        assert pairs / q25.total_pairs == pytest.approx(0.31333, abs=1e-4)


def test_03_partition(q25):
    with criterion(3, "six multi-row classes, one dropped singleton", 0.1):
        part = partition_by_mandatory(q25, (5, 8, 10))
        assert {c.key: c.members for c in part.classes} == Q25_CLASSES
        assert part.dropped_singletons == (22,)


def test_04_column_stats(q25):
    with criterion(4, "undistinguished pairs per column", 0.1):
        stats = column_pair_stats(q25)
        assert stats.undistinguished == Q25_UNDISTINGUISHED


def test_05_heuristic(q25):
    with criterion(5, "global and local length estimates", 0.1):
        est = estimate_length(column_pair_stats(q25))
        assert est.t0 == 7
        assert est.beta_t == pytest.approx(0.0068211, abs=1e-6)
        assert est.beta_next == pytest.approx(0.0032741, abs=1e-6)
        s = sort_rows_by_binary_value(q25)
        cs = class_views(s, partition_by_mandatory(s, (5, 8, 10)))
        local = estimate_length(union_pair_stats(cs))
        assert local.t0 == 4
        assert local.beta_t == pytest.approx(0.0390, abs=1e-4)
        assert local.beta_next == pytest.approx(0.01734, abs=1e-4)
        assert integral_length(3, local.t0) == 7


def test_06_triple_sweep(q25):
    with criterion(6, "all 35 column triples fail with witnesses", 0.5):
        s = sort_rows_by_binary_value(q25)
        cs = class_views(s, partition_by_mandatory(s, (5, 8, 10)))
        assert cs.columns == (1, 2, 3, 4, 6, 7, 9)
        sweep = all_k_subsets_fail(cs, cs.columns, 3)
        assert sweep.all_fail  # so the local minimal length exceeds 3
        assert len(sweep.witnesses) == 35
        assert all(sweep.witnesses.values())


def test_07_multiplicity_seeds(q25):
    with criterion(7, "pair seeds with their exact row triples", 0.5):
        s = sort_rows_by_binary_value(q25)
        cs = class_views(s, partition_by_mandatory(s, (5, 8, 10)))
        seeds = multiplicity_seeds(cs, 2)
        found = {(g.columns, g.rows) for g in seeds}
        for pair, rows in SEED_TABLE.items():
            assert (pair, rows) in found, f"missing seed {pair} -> {rows}"
        by_pair = {g.columns: g for g in seeds if g.columns == (4, 6)}
        assert by_pair[(4, 6)].class_name == "Q2"
        # every reported seed is sound: its rows project onto one value
        for g in seeds:
            mask = cs.mask(g.columns)
            view = next(v for v in cs.classes if v.name == g.class_name)
            projected = {
                row & mask
                for lab, row in zip(view.row_labels, view.rows)
                if lab in g.rows
            }
            assert len(projected) == 1 and g.multiplicity >= 3


def test_08_end_to_end_enumeration(q25):
    with criterion(8, "full search equals oracle: 9 minimal tests of size 7", 2.0):
        report = enumerate_minimal_tests(q25)
        assert report.minimal_length == 7
        assert list(report.minimal_tests) == Q25_MINIMAL_TESTS
        assert all(report.deadend_verified)
        first = report.minimal_tests[0]
        assert first == (1, 2, 4, 5, 6, 8, 10)
        check = is_deadend(q25, first)
        assert dict(check.witnesses)[6] == (10, 25)
        oracle = oracle_minimal_tests(q25)  # every one of the 2^10 subsets
        assert oracle.min_length == 7
        assert oracle.minimal_tests == report.minimal_tests


def test_09_local_class_fixture():
    with criterion(9, "two-row class fixture: local and integral tests", 0.5):
        cs = load_fixture_classes("m8_local")
        failing = [
            p for p in iter_subsets_colex(cs.columns, 2) if not is_local_test(cs, p)
        ]
        assert sorted(failing) == [(1, 8), (5, 9)]
        report = enumerate_local_minimal_tests(cs)
        assert report.local_length == 2
        assert report.local_tests == ((1, 5), (1, 9), (5, 8), (8, 9))
        assert report.integral_length == 6 + 2 == 8
        assert report.integral_tests == (
            (1, 2, 3, 4, 5, 6, 7, 10),
            (1, 2, 3, 4, 6, 7, 9, 10),
            (2, 3, 4, 5, 6, 7, 8, 10),
            (2, 3, 4, 6, 7, 8, 9, 10),
        )
        assert report.within_pair_total == 8
        assert report.parent_pair_total == 1225
        assert report.parent_pair_total / report.within_pair_total == pytest.approx(
            153, abs=0.5
        )


def test_10_residual_pair_bounds():
    with criterion(10, "surviving-collision lower bounds", 0.1):
        assert tuple(residual_pairs_lower_bound(p) for p in (3, 4, 5)) == (1, 2, 4)


def _stream_matrices(count=200):
    densities = (0.3, 0.5, 0.7)
    matrices = []
    for i, seed in enumerate(derive_seeds(20240, count)):
        m = 4 + seed % 9          # 4..12 rows
        n = 4 + (seed >> 8) % 7   # 4..10 columns
        matrices.append(
            generate_matrix(
                GeneratorConfig(
                    rows=m, cols=n, ones_density=densities[i % 3], seed=seed
                )
            )
        )
    return matrices


def test_11_and_12_method_exactness_and_pruning_soundness():
    with criterion(
        11, "200-matrix stream: search equals oracle under all toggles", 60.0
    ):
        configs = {
            (sp, pp): SearchConfig(seed_prune=sp, pair_prune=pp)
            for sp in (True, False)
            for pp in (True, False)
        }
        pruning_violations = 0
        for matrix in _stream_matrices(200):
            oracle = oracle_minimal_tests(matrix)
            mand = set(find_mandatory(matrix).columns)
            checked = {}
            for key, config in configs.items():
                report = enumerate_minimal_tests(matrix, config)
                assert report.minimal_tests == oracle.minimal_tests
                assert report.minimal_length == oracle.min_length
                assert all(report.deadend_verified)
                for t in report.minimal_tests:
                    assert mand <= set(t)
                checked[key] = report.stats.subsets_checked
            if checked[(True, True)] > checked[(False, False)]:
                pruning_violations += 1
        assert pruning_violations == 0
    print("ACCEPTANCE 12 PASS - pruning never lost a test and never "
          "checked more subsets than the bare search")


def test_13_deterministic_bench():
    with criterion(13, "deterministic benchmark CSV is byte-identical", 30.0):
        config = StreamConfig(
            count=6,
            rows=(8, 10),
            cols=(6, 8),
            densities=(0.3, 0.5, 0.7),
            seed=4242,
            deterministic=True,
        )
        first = csv_text(run_benchmark(config), deterministic=True)
        second = csv_text(run_benchmark(config), deterministic=True)
        assert first == second
        assert first.encode() == second.encode()
