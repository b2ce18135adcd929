"""Bit-packed Boolean matrices and the column-subset distinguishing predicate.

Each row is stored as one Python int with column 1 in the most significant
bit, so a row compared as an unsigned integer equals the row read as a
binary number left to right.  XOR and popcount over whole rows are single
int operations regardless of width.

A *test* is a set of columns whose projection leaves all rows pairwise
distinct; a test is *dead-end* (irredundant) when no proper subset is a
test, and *minimal* when no shorter test exists at all.  Rows carry stable
1-based labels that survive sorting, and columns are 1-based everywhere in
the public API.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, repeat
from typing import Iterable, Sequence

ColumnSet = tuple[int, ...]
RowPair = tuple[int, int]


class MatrixFormatError(ValueError):
    """Input text does not describe a valid Boolean matrix."""


class DuplicateColumnWarning(UserWarning):
    """Two columns are identical; no dead-end test will ever contain both."""


def pair_count(m: int) -> int:
    """Number of unordered row pairs, m*(m-1)/2."""
    return m * (m - 1) // 2


def _paired_positions(
    groups: Iterable[Sequence[int]], width: int
) -> list[tuple[int, int]]:
    """The pairs of bit positions (i < j, position 0 the highest of width
    bits) whose bits are equal or complementary across the rows of every
    group; the polarity may differ between groups.

    Two positions relate so in a group iff each row differs from the
    group's first row in both or in neither, so each row splits every
    block of positions by that difference (Paige & Tarjan, 1987), and a
    block of one position is dropped.  On random rows none is left after
    a few rows.
    """
    blocks = [(1 << width) - 1] if width >= 2 else []
    for group in groups:
        for row in group:
            diff = row ^ group[0]
            split = []
            for block in blocks:
                ones = block & diff
                for part in (ones, block ^ ones):
                    if part & part - 1:  # two or more positions
                        split.append(part)
            blocks = split
            if not blocks:
                return []
    pairs = []
    for block in blocks:
        positions = [p for p in range(width) if block >> (width - 1 - p) & 1]
        pairs.extend(combinations(positions, 2))
    return sorted(pairs)


def normalize_columns(columns: Iterable[int], col_count: int) -> ColumnSet:
    """Canonicalize a column collection: sorted, duplicate-free, range-checked."""
    cols = sorted({int(c) for c in columns})
    for c in cols:
        if not 1 <= c <= col_count:
            raise ValueError(f"column {c} out of range 1..{col_count}")
    return tuple(cols)


@dataclass(frozen=True)
class BooleanMatrix:
    """Immutable 0/1 matrix with pairwise-distinct rows and stable row labels."""

    col_count: int
    rows: tuple[int, ...]
    row_labels: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.col_count < 1:
            raise ValueError("matrix needs at least one column")
        if len(self.rows) != len(self.row_labels):
            raise ValueError("rows and row_labels differ in length")
        if sorted(self.row_labels) != list(range(1, len(self.rows) + 1)):
            raise ValueError("row_labels must be a permutation of 1..m")
        if len(set(self.rows)) != len(self.rows):
            raise ValueError("rows must be pairwise distinct")
        if self.rows and not 0 <= min(self.rows) <= max(self.rows) < 1 << self.col_count:
            raise ValueError("row value out of range for col_count")

    @classmethod
    def _unchecked(
        cls, col_count: int, rows: tuple[int, ...], row_labels: tuple[int, ...]
    ) -> "BooleanMatrix":
        """A matrix whose fields a caller has already checked, built
        without __post_init__, which sorts the labels and hashes every
        row again."""
        matrix = object.__new__(cls)
        matrix.__dict__.update(col_count=col_count, rows=rows, row_labels=row_labels)
        return matrix

    @classmethod
    def from_strings(cls, lines: Sequence[str]) -> "BooleanMatrix":
        """Build from '0'/'1' strings, labelling rows 1..m in the given order."""
        return parse_matrix("\n".join(lines))

    @property
    def row_count(self) -> int:
        return len(self.rows)

    @property
    def total_pairs(self) -> int:
        """Unordered row-pair count of the matrix."""
        return pair_count(self.row_count)

    @cached_property
    def position_of(self) -> dict[int, int]:
        """Row label -> its position in rows."""
        return {lab: i for i, lab in enumerate(self.row_labels)}

    def _index(self, label: int) -> int:
        try:
            return self.position_of[label]
        except KeyError:
            raise KeyError(f"unknown row label {label}") from None

    def bits(self, label: int) -> int:
        """Packed row for a label (column 1 = most significant bit)."""
        return self.rows[self._index(label)]

    def cell(self, label: int, column: int) -> int:
        if not 1 <= column <= self.col_count:
            raise ValueError(f"column {column} out of range 1..{self.col_count}")
        return (self.bits(label) >> (self.col_count - column)) & 1

    def row_string(self, label: int) -> str:
        return format(self.bits(label), f"0{self.col_count}b")

    def column_mask(self, columns: Iterable[int]) -> int:
        """Bit mask selecting the given 1-based columns in packed rows."""
        mask = 0
        for c in normalize_columns(columns, self.col_count):
            mask |= 1 << (self.col_count - c)
        return mask


_NOT_BINARY = str.maketrans("", "", "01")


def parse_matrix(text: str) -> BooleanMatrix:
    """Parse matrix text: one '0'/'1' row per line, '#' comments, blanks ignored.

    Rows are labelled 1..m in file order.  Raises MatrixFormatError for
    ragged lines, non-binary characters or duplicate rows; duplicate-row
    messages name the two offending 1-based line numbers.  Duplicate
    columns are legal input and only trigger a DuplicateColumnWarning.

    Valid text takes C-level passes only: the stripped non-comment lines
    come from map and filter, one translate of the joined lines checks the
    alphabet (before int(line, 2), which also accepts '_', signs and
    non-ASCII digits), one set each checks widths and duplicates, and map
    converts.  Only when a check fails does _format_error walk the lines
    to name the first bad one.
    """
    lines = list(filter(None, map(str.strip, text.splitlines())))
    if "#" in text:
        lines = [line for line in lines if line[0] != "#"]
    if (
        not lines
        or "".join(lines).translate(_NOT_BINARY)
        or len(set(map(len, lines))) != 1
        or len(set(lines)) != len(lines)
    ):
        raise _format_error(text)
    # from a list, for the reason given in pruning.ClassSet.positions
    rows = list(map(int, lines, repeat(2)))
    width = len(lines[0])
    matrix = BooleanMatrix._unchecked(width, tuple(rows), tuple(range(1, len(rows) + 1)))
    # Against an all-zero first row, paired columns are equal columns.
    first: dict[int, int] = {}
    for i, j in _paired_positions([(0, *rows)], width):
        first.setdefault(j, i)
    for j in sorted(first):
        warnings.warn(
            f"columns {first[j] + 1} and {j + 1} are identical",
            DuplicateColumnWarning,
            stacklevel=2,
        )
    return matrix


def _format_error(text: str) -> MatrixFormatError:
    """The error of the first bad row line of text, line by line: a
    character other than '0'/'1', a width unlike the first row's, or a
    repeated row; failing those, no rows at all."""
    seen_at: dict[str, int] = {}
    width = first_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if set(line) - {"0", "1"}:
            bad = next(ch for ch in line if ch not in "01")
            return MatrixFormatError(
                f"line {lineno}: invalid character {bad!r}; rows must be '0'/'1' only"
            )
        if not width:
            width, first_line = len(line), lineno
        elif len(line) != width:
            return MatrixFormatError(
                f"line {lineno}: row has {len(line)} columns, "
                f"but line {first_line} has {width}"
            )
        if line in seen_at:
            return MatrixFormatError(
                f"duplicate rows at lines {seen_at[line]} and {lineno}: {line}"
            )
        seen_at[line] = lineno
    return MatrixFormatError("no matrix rows found")


def load_matrix(path) -> BooleanMatrix:
    """Read a matrix file (UTF-8) in the parse_matrix format."""
    with open(path, encoding="utf-8") as fh:
        return parse_matrix(fh.read())


def sort_rows_by_binary_value(matrix: BooleanMatrix) -> BooleanMatrix:
    """Rows in ascending order of their value as binary numbers (col 1 = MSB).

    Labels travel with their rows, so this is a pure reordering: no test
    property of the matrix changes, and the result needs no new checks.
    Rows are distinct, so the pairs sort by row alone.
    """
    pairs = sorted(zip(matrix.rows, matrix.row_labels))
    rows, labels = zip(*pairs) if pairs else ((), ())
    return BooleanMatrix._unchecked(matrix.col_count, rows, labels)


def is_test(matrix: BooleanMatrix, columns: Iterable[int]) -> bool:
    """True iff projections of all rows onto the columns are pairwise distinct.

    The empty set is a test only for a single-row matrix.
    """
    cols = normalize_columns(columns, matrix.col_count)
    if not cols:
        return matrix.row_count < 2
    mask = matrix.column_mask(cols)
    return len({r & mask for r in matrix.rows}) == matrix.row_count
