"""Exhaustive ground truth for tests, dead-end tests and minimal tests.

Deliberately simple: enumerate column subsets and apply the definitions.
Everything else in the package is validated against these results, so the
oracle must stay obviously correct; no heuristics, no pruning beyond the
fact that subset sizes are scanned in ascending order and the first size
containing a test is the minimal length.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Sequence

from .matrix import BooleanMatrix, ColumnSet


class OracleCeilingError(RuntimeError):
    """Matrix too wide for exhaustive enumeration with the given ceiling."""


@dataclass(slots=True)
class OracleResult:
    """The minimal tests found by exhaustive enumeration, the dead-end
    tests when asked for, and the number of subsets checked."""

    min_length: int
    minimal_tests: tuple[ColumnSet, ...]
    deadend_tests: tuple[ColumnSet, ...] | None
    subsets_checked: int


def iter_subsets_colex(items: Sequence[int], k: int) -> Iterator[ColumnSet]:
    """k-subsets of items in colexicographic order (by largest element last)."""
    if k < 0 or k > len(items):
        return
    if k == 0:
        yield ()
        return
    for last in range(k - 1, len(items)):
        for rest in combinations(items[:last], k - 1):
            yield rest + (items[last],)


def _check_ceiling(matrix: BooleanMatrix, n_ceiling: int, what: str) -> None:
    if matrix.col_count > n_ceiling:
        raise OracleCeilingError(
            f"{matrix.col_count} columns exceed the {what} ceiling {n_ceiling}"
        )


def oracle_minimal_tests(
    matrix: BooleanMatrix, n_ceiling: int = 22
) -> OracleResult:
    """All minimal tests by ascending-size subset enumeration."""
    _check_ceiling(matrix, n_ceiling, "minimal-test")
    n = matrix.col_count
    m = matrix.row_count
    columns = tuple(range(1, n + 1))
    checked = 0
    for size in range(0 if m < 2 else 1, n + 1):
        tests = []
        for subset in iter_subsets_colex(columns, size):
            checked += 1
            mask = matrix.column_mask(subset)
            if len({r & mask for r in matrix.rows}) == m:
                tests.append(subset)
        if tests:
            return OracleResult(
                min_length=size,
                minimal_tests=tuple(sorted(tests)),
                deadend_tests=None,
                subsets_checked=checked,
            )
    raise AssertionError("the full column set is always a test")


def oracle_deadend_tests(
    matrix: BooleanMatrix, n_ceiling: int = 16
) -> OracleResult:
    """All dead-end tests: tests whose every one-smaller subset fails.

    Evaluates the test property for every column mask once, then reads
    dead-ends off the table.
    """
    _check_ceiling(matrix, n_ceiling, "dead-end")
    n = matrix.col_count
    m = matrix.row_count
    is_test_by_mask = bytearray(1 << n)
    for mask in range(1 << n):
        if len({r & mask for r in matrix.rows}) == m:
            is_test_by_mask[mask] = 1

    def to_columns(mask: int) -> ColumnSet:
        return tuple(c for c in range(1, n + 1) if mask & (1 << (n - c)))

    deadends = []
    for mask in range(1 << n):
        if not is_test_by_mask[mask]:
            continue
        bits = [1 << b for b in range(n) if mask & (1 << b)]
        if all(not is_test_by_mask[mask ^ b] for b in bits):
            deadends.append(to_columns(mask))
    deadends.sort(key=lambda t: (len(t), t))
    min_length = len(deadends[0]) if deadends else 0
    minimal = tuple(sorted(t for t in deadends if len(t) == min_length))
    return OracleResult(
        min_length=min_length,
        minimal_tests=minimal,
        deadend_tests=tuple(deadends),
        subsets_checked=1 << n,
    )
