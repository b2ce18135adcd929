import ast
from pathlib import Path

import pytest

from conftest import Q25_MINIMAL_TESTS, random_matrix

import mintest.oracle
from mintest import (
    OracleCeilingError,
    is_test,
    oracle_deadend_tests,
    oracle_minimal_tests,
    parse_matrix,
)


def test_oracle_imports_only_the_matrix_module():
    """The exhaustive reference validates the rest of the package, so it
    may rest on nothing of it but the matrix type."""
    tree = ast.parse(Path(mintest.oracle.__file__).read_text(encoding="utf-8"))
    package = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "mintest"):
            package.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            package.update(a.name for a in node.names if a.name.startswith("mintest"))
    assert package == {".matrix"}


class TestMinimalOracle:
    def test_fixture(self, q25):
        result = oracle_minimal_tests(q25)
        assert result.min_length == 7
        assert list(result.minimal_tests) == Q25_MINIMAL_TESTS
        assert result.subsets_checked > 0

    def test_three_by_two(self, tiny3x2):
        result = oracle_minimal_tests(tiny3x2)
        assert result.min_length == 2
        assert result.minimal_tests == ((1, 2),)

    def test_either_single_column(self):
        result = oracle_minimal_tests(parse_matrix("01\n10\n"))
        assert result.min_length == 1
        assert result.minimal_tests == ((1,), (2,))

    def test_ceiling(self, q25):
        with pytest.raises(OracleCeilingError):
            oracle_minimal_tests(q25, n_ceiling=9)

    def test_monotonicity_assumption(self):
        # if no subset of size k is a test, no smaller one is either
        for seed in range(10):
            m = random_matrix(seed, rows=9, cols=6)
            result = oracle_minimal_tests(m)
            from itertools import combinations

            for size in range(1, result.min_length):
                assert not any(
                    is_test(m, c) for c in combinations(range(1, 7), size)
                )


class TestDeadendOracle:
    def test_three_by_two(self, tiny3x2):
        result = oracle_deadend_tests(tiny3x2)
        assert result.deadend_tests == ((1, 2),)
        assert result.minimal_tests == ((1, 2),)

    def test_fixture_minimal_subset_of_deadend(self, q25):
        result = oracle_deadend_tests(q25)
        assert set(Q25_MINIMAL_TESTS) <= set(result.deadend_tests)
        assert list(result.minimal_tests) == Q25_MINIMAL_TESTS

    def test_minimal_equals_shortest_deadends(self):
        for seed in range(12):
            m = random_matrix(seed, rows=8, cols=6)
            both = oracle_deadend_tests(m)
            only_min = oracle_minimal_tests(m)
            assert both.min_length == only_min.min_length
            assert both.minimal_tests == only_min.minimal_tests
            shortest = tuple(
                sorted(t for t in both.deadend_tests if len(t) == both.min_length)
            )
            assert shortest == both.minimal_tests

    def test_deadend_definition(self):
        for seed in range(8):
            m = random_matrix(seed, rows=7, cols=5)
            result = oracle_deadend_tests(m)
            for t in result.deadend_tests:
                assert is_test(m, t)
                for c in t:
                    assert not is_test(m, tuple(x for x in t if x != c))

    def test_duplicate_columns_never_together(self):
        import warnings

        rows = ["0000", "0100", "1011", "0011", "1111"]  # col3 == col4
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            m = parse_matrix("\n".join(rows))
        assert [r >> 1 & 1 for r in m.rows] == [r & 1 for r in m.rows]
        result = oracle_deadend_tests(m)
        assert result.deadend_tests
        for t in result.deadend_tests:
            assert not (3 in t and 4 in t)

    def test_ceiling(self, q25):
        with pytest.raises(OracleCeilingError):
            oracle_deadend_tests(q25, n_ceiling=8)
