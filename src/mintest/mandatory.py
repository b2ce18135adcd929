"""Mandatory columns and the row-class decomposition they induce.

A column is *mandatory* when some row pair differs in that column alone
(Hamming distance 1): no other column can separate that pair, so every
test must contain the column.  Rows sharing one value vector on the
mandatory columns form a *class*; any pair of rows from different classes
is already separated, so the remaining search only has to distinguish rows
inside each multi-row class using the non-mandatory columns.

A row r with column c clear has a distance-1 partner in c exactly when r
with c set is also a row.  find_mandatory reads these pairs off one
bitset of the row values, a shift and an AND per column, when the bitset
takes at most 128 bytes per row; otherwise, and always in is_deadend, a
bit-flip probe finds them with one dict lookup per row per column, in
O(m*n).  Two rows at distance 1 differ in popcount by exactly 1; the
pairs of adjacent popcount buckets are kept only as the statistic
`mintest analyze` prints (candidate_pair_count).
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable

from .matrix import (
    BooleanMatrix,
    ColumnSet,
    MatrixFormatError,
    RowPair,
    normalize_columns,
    pair_count,
)
from .pruning import ClassSet, ClassView


@dataclass(slots=True)
class MandatoryResult:
    """Mandatory columns and, per column, the distance-1 pairs proving it."""

    columns: ColumnSet
    witnesses: dict[int, tuple[RowPair, ...]] = field(default_factory=dict)


@dataclass(slots=True)
class PartitionClass:
    """Rows sharing one value vector on the mandatory columns."""

    key: tuple[int, ...]
    ordinal: int
    members: tuple[int, ...]

    @property
    def name(self) -> str:
        return f"Q{self.ordinal}"

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(slots=True)
class Partition:
    """Multi-row classes plus the singleton rows that need no further work.

    Classes are ordered by key read as a binary number; ordinals number all
    distinct keys in that order, singletons included, so class names stay
    stable whether or not singletons are dropped.
    """

    mandatory: ColumnSet
    classes: tuple[PartitionClass, ...]
    dropped_singletons: tuple[int, ...]
    singleton_keys: tuple[tuple[int, ...], ...] = ()

    @property
    def class_count(self) -> int:
        return len(self.classes)

    @property
    def within_pair_total(self) -> int:
        """Row pairs left to distinguish after the class decomposition."""
        return sum(pair_count(c.size) for c in self.classes)


def candidate_pair_count(matrix: BooleanMatrix) -> int:
    """The number of unordered row pairs whose popcounts differ by one,
    the only pairs that can be at Hamming distance 1.

    The sum over popcounts r of |B_r| * |B_(r+1)|, B_r being the rows
    with r ones.  O(m).
    """
    sizes = Counter(row.bit_count() for row in matrix.rows)
    return sum(size * sizes[r + 1] for r, size in sizes.items())


def find_mandatory(matrix: BooleanMatrix) -> MandatoryResult:
    """Complete mandatory-column scan.

    A column is mandatory iff some pair of rows is distinguished by it
    alone, i.e. one row is the other with that column's bit flipped.
    When a bitset over all 2^n row values takes at most 128 bytes per row
    (1 << n <= 1024 * m), the rows are one such int P, and the pairs of
    the column with bit b are the set bits x of P & P >> b with x & b
    clear, read highest first: a shift and an AND per column, in C.
    Otherwise each pair is probed once, from its row with the bit clear,
    by one dict lookup per row per column.  Witness pairs are (smaller
    label, larger label), sorted per column.
    """
    rows, n = matrix.rows, matrix.col_count
    index = dict(zip(rows, matrix.row_labels))
    witnesses: dict[int, tuple[RowPair, ...]] = {}
    present = 0  # the bitset of the row values, 0 above the bound
    if 1 << n <= 1024 * len(rows):
        flags = bytearray((1 << n) + 7 >> 3)
        for row in rows:
            flags[row >> 3] |= 1 << (row & 7)
        present = int.from_bytes(flags, "little")
    for column in range(1, n + 1):
        bit = 1 << (n - column)
        pairs = []
        if present:
            both = present & present >> bit
            while both:
                key = both.bit_length() - 1
                both ^= 1 << key
                if not key & bit:
                    label, partner = index[key], index[key | bit]
                    pairs.append((label, partner) if label < partner else (partner, label))
        else:
            for key, label in index.items():
                if not key & bit:
                    partner = index.get(key | bit)
                    if partner is not None:
                        pairs.append((label, partner) if label < partner else (partner, label))
        if pairs:
            witnesses[column] = tuple(sorted(pairs))
    return MandatoryResult(columns=tuple(witnesses), witnesses=witnesses)


def partition_by_mandatory(
    matrix: BooleanMatrix, mandatory: Iterable[int]
) -> Partition:
    """Group rows by their value vector on the mandatory columns.

    Single-member groups are dropped from further search (their rows are
    already separated from everything) but recorded for reporting.  With
    no mandatory columns the partition is one class holding every row.
    The rows are grouped in row order, and only each group's members are
    sorted by label.
    """
    n = matrix.col_count
    mand = normalize_columns(mandatory, n)
    shifts = [n - c for c in mand]
    mask = sum([1 << shift for shift in shifts])
    groups: dict[int, list[int]] = {}
    for value, label in zip(map(mask.__and__, matrix.rows), matrix.row_labels):
        groups.setdefault(value, []).append(label)
    classes = []
    singles: list[int] = []
    single_keys: list[tuple[int, ...]] = []
    # The mandatory columns ascend as their bits descend, so the masked
    # values sort as the keys do.
    for ordinal, value in enumerate(sorted(groups), start=1):
        members = groups[value]
        # from a list, for the reason given in ClassSet.positions
        key = tuple([value >> shift & 1 for shift in shifts])
        if len(members) > 1:
            members.sort()
            classes.append(PartitionClass(key, ordinal, tuple(members)))
        else:
            singles.append(members[0])
            single_keys.append(key)
    return Partition(
        mandatory=mand,
        classes=tuple(classes),
        dropped_singletons=tuple(singles),
        singleton_keys=tuple(single_keys),
    )


def class_views(
    matrix: BooleanMatrix,
    partition: Partition,
    columns: Iterable[int] | None = None,
) -> ClassSet:
    """Project the partition's multi-row classes onto the free columns.

    By default the view columns are all non-mandatory columns of the
    matrix, in ascending order.  View columns adjacent in the matrix form
    a run whose bits keep one distance to their view positions, so a row
    packs with one mask and shift per run.  Rows of at most 64 bits are
    packed all at once: the class rows, in class order, are the 64-bit
    fields of one int, which takes one AND and one shift per run and is
    read back through an array.
    """
    if columns is None:
        # from a list, for the reason given in ClassSet.positions
        cols = tuple(
            [c for c in range(1, matrix.col_count + 1) if c not in partition.mandatory]
        )
    else:
        cols = normalize_columns(columns, matrix.col_count)
    n, width = matrix.col_count, len(cols)
    drops: dict[int, int] = {}  # right shift of a run -> its row mask
    for pos, c in enumerate(cols):
        drop = (n - c) - (width - 1 - pos)
        drops[drop] = drops.get(drop, 0) | 1 << (n - c)
    members = chain.from_iterable([cls.members for cls in partition.classes])
    rows = list(map(dict(zip(matrix.row_labels, matrix.rows)).__getitem__, members))
    if n <= 64:
        # A run's masked bits lie at or above its shift, so shifting the
        # whole int keeps each in its own field.
        order = sys.byteorder
        fields = int.from_bytes(array("Q", rows).tobytes(), order)
        ones = int.from_bytes((array("Q", [1]) * len(rows)).tobytes(), order)
        packed = 0
        for drop, mask in drops.items():
            packed |= (fields & mask * ones) >> drop
        out = array("Q")
        out.frombytes(packed.to_bytes(8 * len(rows), order))
        rows = out.tolist()
    else:
        runs = list(drops.items())
        for i, row in enumerate(rows):
            v = 0
            for drop, mask in runs:
                v |= (row & mask) >> drop
            rows[i] = v
    views = []
    end = 0
    for cls in partition.classes:
        start, end = end, end + len(cls.members)
        views.append(ClassView(cls.name, cls.key, cls.members, tuple(rows[start:end])))
    return ClassSet(
        columns=cols,
        classes=tuple(views),
        mandatory=partition.mandatory,
        total_rows=matrix.row_count,
    )


# The header words of a class-set file, which may come in any order.
_COLUMNS, _MANDATORY, _PARENT_ROWS = CLASS_SET_HEADERS = (
    "columns:",
    "mandatory:",
    "parent-rows:",
)


def opens_class_set(line: str) -> bool:
    """Whether a file whose first stripped line, past blank and comment
    lines, is ``line`` is a class set: one opens with a header or a class
    line, and a matrix file with neither."""
    return line.startswith(CLASS_SET_HEADERS) or line.split()[0] == "class"


def parse_class_set(text: str) -> ClassSet:
    """Parse a class-set file.

    Format (UTF-8, '#' comments, blank lines ignored):

        columns: 1 5 8 9
        mandatory: 2 3 4 6 7 10
        parent-rows: 50
        class 101101
        33: 1111
        55: 1000
        class 101110
        ...

    ``columns`` gives the original 1-based labels of the view columns;
    a class starts at a line of the word ``class``, whitespace and its
    key bits (none without mandatory columns), and each of its row lines
    is ``<label>: <bits>`` over the view columns.  ``mandatory``
    and ``parent-rows`` are optional context about the parent matrix;
    with a ``mandatory`` header, each class key has one bit per label, and
    the labels are sorted with the key bits reordered to match.
    Labels in ``columns`` (at least one) and ``mandatory`` are distinct
    positive integers, and no mandatory label is also a view column.  Row
    labels and ``parent-rows`` are positive integers, and ``parent-rows``
    is at least the number of rows in the classes.  Each header appears
    at most once.  Class names are M1, M2, ... in file order.
    """
    headers: dict[str, int] = {}  # header word -> its line
    columns: ColumnSet | None = None
    mandatory: ColumnSet = ()
    total_rows: int | None = None
    # each class in file order: its line, its key and its (label, bits) rows
    blocks: list[tuple[int, tuple[int, ...], list[tuple[int, int]]]] = []
    seen_labels: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        header = next((h for h in CLASS_SET_HEADERS if line.startswith(h)), None)
        if header in headers:
            raise MatrixFormatError(
                f"line {lineno}: a second {header!r} header "
                f"(the first is on line {headers[header]})"
            )
        if header:
            headers[header] = lineno
        if header == _COLUMNS:
            columns = _header_labels(lineno, line)
            if not columns:
                raise MatrixFormatError(f"line {lineno}: 'columns:' lists no labels")
        elif header == _MANDATORY:
            mandatory = _header_labels(lineno, line)
        elif header == _PARENT_ROWS:
            total_rows = _positive_int(lineno, "'parent-rows:'", line.split(":", 1)[1])
        elif line.split()[0] == "class":
            key_text = line[len("class") :].lstrip()
            if set(key_text) - {"0", "1"}:
                raise MatrixFormatError(f"line {lineno}: bad class key {key_text!r}")
            blocks.append((lineno, tuple(int(b) for b in key_text), []))
        elif ":" in line:
            if columns is None:
                raise MatrixFormatError(f"line {lineno}: row before 'columns:' header")
            if not blocks:
                raise MatrixFormatError(f"line {lineno}: row outside any class")
            label_text, bits_text = (t.strip() for t in line.split(":", 1))
            bits_text = bits_text.replace(" ", "")
            if set(bits_text) - {"0", "1"} or len(bits_text) != len(columns):
                raise MatrixFormatError(
                    f"line {lineno}: expected {len(columns)} bits of '0'/'1'"
                )
            label = _positive_int(lineno, "row label", label_text)
            if label in seen_labels:
                raise MatrixFormatError(f"line {lineno}: duplicate row label {label}")
            seen_labels.add(label)
            blocks[-1][2].append((label, int(bits_text, 2)))
        else:
            raise MatrixFormatError(f"line {lineno}: unrecognized line {line!r}")
    if columns is None or not blocks:
        raise MatrixFormatError("class-set file needs a 'columns:' header and classes")
    shared = sorted(set(mandatory) & set(columns))
    if shared:
        raise MatrixFormatError(
            f"line {headers[_MANDATORY]}: 'mandatory:' label(s) "
            f"{' '.join(map(str, shared))} are also in 'columns:'"
        )
    # Every header is read now, so each class can be checked and built.
    order = sorted(range(len(mandatory)), key=mandatory.__getitem__)
    key_lines: dict[tuple[int, ...], int] = {}  # each key -> its class's line
    classes = []
    for number, (lineno, key, block_rows) in enumerate(blocks, start=1):
        if not block_rows:
            raise MatrixFormatError(f"line {lineno}: class with no rows")
        labels, rows = zip(*block_rows)
        if len(set(rows)) != len(rows):
            raise MatrixFormatError(
                f"line {lineno}: class {number}: duplicate rows cannot be separated"
            )
        if _MANDATORY in headers:
            if len(key) != len(mandatory):
                raise MatrixFormatError(
                    f"line {lineno}: class key {''.join(map(str, key))!r} must "
                    f"have length {len(mandatory)}, one bit per 'mandatory:' label"
                )
            if key in key_lines:  # as written: the reorder below is one permutation
                raise MatrixFormatError(
                    f"line {lineno}: a second class with key {''.join(map(str, key))!r} "
                    f"(the first is on line {key_lines[key]})"
                )
            key_lines[key] = lineno
            key = tuple([key[i] for i in order])  # the labels' sorted order
        classes.append(ClassView(name=f"M{number}", key=key, row_labels=labels, rows=rows))
    class_rows = sum(view.size for view in classes)
    if total_rows is not None and total_rows < class_rows:
        raise MatrixFormatError(
            f"line {headers[_PARENT_ROWS]}: 'parent-rows:' {total_rows} is below "
            f"the {class_rows} class rows"
        )
    return ClassSet(
        columns=columns,
        classes=tuple(classes),
        mandatory=tuple(sorted(mandatory)),
        total_rows=total_rows,
    )


def _positive_int(lineno: int, name: str, text: str) -> int:
    """A positive integer field of a class-set file."""
    try:
        value = int(text)
    except ValueError:
        raise MatrixFormatError(
            f"line {lineno}: {name} must be an integer, got {text.strip()!r}"
        ) from None
    if value < 1:
        raise MatrixFormatError(f"line {lineno}: {name} must be positive, got {value}")
    return value


def _header_labels(lineno: int, line: str) -> ColumnSet:
    """The labels of a 'columns:' or 'mandatory:' header line, which must
    be distinct positive integers."""
    name, text = line.split(":", 1)
    try:
        labels = tuple(int(t) for t in text.split())
    except ValueError:
        raise MatrixFormatError(f"line {lineno}: '{name}:' labels must be integers") from None
    bad = [c for c in labels if c < 1]
    if bad:
        raise MatrixFormatError(
            f"line {lineno}: '{name}:' labels must be positive, got {bad[0]}"
        )
    repeated = sorted(c for c, n in Counter(labels).items() if n > 1)
    if repeated:
        raise MatrixFormatError(
            f"line {lineno}: '{name}:' repeats label(s) {' '.join(map(str, repeated))}"
        )
    return labels


def load_class_set(path) -> ClassSet:
    """Read a class-set file (UTF-8) in the parse_class_set format."""
    with open(path, encoding="utf-8") as fh:
        return parse_class_set(fh.read())
