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
from functools import cached_property
from itertools import chain
from math import comb
from typing import Iterable, TypeVar

from .matrix import (
    BooleanMatrix,
    ColumnSet,
    MatrixFormatError,
    RowPair,
    normalize_columns,
    pair_count,
)

_Marks = TypeVar("_Marks", dict[int, int], bytearray)


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
    def key_string(self) -> str:
        return "".join(str(b) for b in self.key)

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


@dataclass(slots=True)
class ClassView:
    """One class projected onto the view columns, rows bit-packed."""

    name: str
    key: tuple[int, ...]
    row_labels: tuple[int, ...]
    rows: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class ClassSet:
    """A family of row classes over a common set of original column labels.

    This is the object the subset search actually runs on: a column set
    T (given by original labels) is a *local test* when inside every class
    the projections onto T are pairwise distinct.  When the classes come
    from a partition by mandatory columns, mandatory+local is a test of
    the whole matrix.
    """

    columns: ColumnSet
    classes: tuple[ClassView, ...]
    mandatory: ColumnSet = ()
    total_rows: int | None = None

    @cached_property
    def bit_of(self) -> dict[int, int]:
        """Original column label -> its bit in the packed view rows."""
        width = len(self.columns)
        return {c: 1 << (width - 1 - pos) for pos, c in enumerate(self.columns)}

    def _mark_differences(self, out: _Marks) -> _Marks:
        """Set out[a ^ b] = 1 for each row pair a, b inside a class, in a
        digit array of the subset lattice or a dict of mask candidates."""
        for view in self.classes:
            rows = view.rows
            for i, row in enumerate(rows, 1):
                for other in rows[i:]:
                    out[row ^ other] = 1
        return out

    @cached_property
    def difference_masks(self) -> tuple[int, ...]:
        """The inclusion-minimal row differences a ^ b inside the classes.

        Two rows of one class collide on a column set exactly when its
        mask misses their difference, and every difference contains a
        minimal one, so a column set is a local test iff its mask meets
        every mask here.  Masks are ordered fewest bits first, ties by
        value.  They are nonzero unless two rows of a class project
        identically onto the view (then the only mask is 0 and nothing is
        a test).  The build marks O(sum of C(p,2)) XORs over classes of p
        rows as dict keys, then runs the filter of _minimal_masks on them.
        """
        return _minimal_masks(self._mark_differences({}), len(self.columns))

    @cached_property
    def difference_positions(self) -> tuple[tuple[int, ...], ...]:
        """The view positions each difference mask holds, mask by mask."""
        return tuple(map(self.positions, self.difference_masks))

    @cached_property
    def triple_count(self) -> int:
        """Row triples inside the classes: sum of C(p,3) over classes of
        p rows, the size of the triple_masks build."""
        return sum(comb(view.size, 3) for view in self.classes)

    def _mark_triple_unions(self, out: _Marks) -> _Marks:
        """Set out[(a ^ b) | (a ^ c)] = 1 for each row triple a, b, c of a
        class in row order, as _mark_differences; the last two start none."""
        for view in self.classes:
            rows = view.rows
            for i, row in enumerate(rows[:-2], 1):
                diffs = [row ^ other for other in rows[i:]]
                for j, diff in enumerate(diffs[:-1], 1):
                    for other in diffs[j:]:
                        out[diff | other] = 1
        return out

    @cached_property
    def triple_masks(self) -> tuple[int, ...]:
        """The inclusion-minimal masks (a ^ b) | (a ^ c) over the row
        triples inside the classes, ordered as difference_masks.

        Three rows agree on a column set exactly when it misses their
        mask, so a set of k columns contains a (k-1)-subset projecting
        three rows of a class onto one value (a multiplicity seed) iff it
        meets some mask here at most once; a smaller mask is met no more
        often, so the minimal ones decide.  Empty when no class has three
        rows.  The build marks triple_count ORs as dict keys.
        """
        return _minimal_masks(self._mark_triple_unions({}), len(self.columns))

    @cached_property
    def triple_positions(self) -> tuple[tuple[int, ...], ...]:
        """The view positions each triple mask holds, mask by mask."""
        return tuple(map(self.positions, self.triple_masks))

    @cached_property
    def non_tests(self) -> int:
        """The column subsets that are not local tests, on the subset
        lattice of the view (see _lattice): bit x is set iff the subset
        with view mask x misses some within-class difference, that is
        lies inside its complement.  Each difference marks its byte of a
        digit array of 2^w bytes, read as the bit of its complement; then
        the downward closure, with no minimal-mask filter.
        """
        width = len(self.columns)
        digits = self._mark_differences(bytearray(1 << width))
        return _down_closure(_complemented(digits), width)

    @cached_property
    def non_test_bytes(self) -> bytes:
        """non_tests as little-endian bytes: bit x is bit x & 7 of byte
        x >> 3, read without the shift of 2^w bits that non_tests >> x
        takes."""
        return self.non_tests.to_bytes((1 << len(self.columns)) + 7 >> 3, "little")

    @cached_property
    def seed_up(self) -> int:
        """The column subsets that contain a multiplicity seed one column
        smaller, on the subset lattice of the view: the seeds are the
        downward closure of the complemented triple unions (three rows
        agree on a set iff it misses their union), and one up-step adds a
        column to each.  The unions mark a digit array as in non_tests.
        """
        width = len(self.columns)
        digits = self._mark_triple_unions(bytearray(1 << width))
        return _up_step(_down_closure(_complemented(digits), width), width)

    def positions(self, mask: int) -> tuple[int, ...]:
        """The view positions (0 for the first view column) of a mask, in
        order: one step per set bit, highest first."""
        width = len(self.columns)
        out = []
        while mask:
            top = mask.bit_length()
            out.append(width - top)
            mask ^= 1 << top - 1
        # From a list: tuple() of an iterator allocates ten slots and
        # shrinks, so each tuple freed later would land in the free list
        # of its final size and stay there, raising peak memory.
        return tuple(out)

    def mask(self, columns: Iterable[int]) -> int:
        """Bit mask of view positions for a set of original column labels."""
        bits = self.bit_of
        mask = 0
        for c in columns:
            bit = bits.get(c)
            if bit is None:
                raise ValueError(f"column {c} is not part of this view")
            mask |= bit
        return mask

    @property
    def within_pair_total(self) -> int:
        return sum(pair_count(c.size) for c in self.classes)

    @property
    def parent_pair_total(self) -> int | None:
        return pair_count(self.total_rows) if self.total_rows else None


def _minimal_masks(candidates: Iterable[int], width: int) -> tuple[int, ...]:
    """The inclusion-minimal masks among the width-bit candidates.

    Candidates are taken fewest bits first, ties by value, which is the
    order of the result.  A candidate is dropped iff some kept mask lies
    inside it, that is has no bit outside it.  For each bit, one int with
    a bit per kept mask marks the kept masks holding it; ORing those over
    the candidate's clear bits then misses that mask.  Each candidate
    costs one OR per clear bit, and each kept mask one step per set bit.
    """
    full = (1 << width) - 1
    hits = {1 << b: 0 for b in range(width)}
    kept: list[int] = []
    every = 0  # one bit per kept mask
    for cand in sorted(sorted(candidates), key=int.bit_count):
        outside = 0
        clear = full ^ cand
        while clear:
            low = clear & -clear
            outside |= hits[low]
            clear ^= low
        if outside != every:
            continue
        flag = 1 << len(kept)
        kept.append(cand)
        every |= flag
        rest = cand
        while rest:
            low = rest & -rest
            hits[low] |= flag
            rest ^= low
    return tuple(kept)


_LATTICES: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}


def _lattice(width: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The subset lattice of width bits as ints of 2^width bits, bit x
    standing for the subset with mask x: the pair (holding, layers), where
    holding[b] marks the subsets holding bit b and layers[k] the
    k-subsets.  Built once per width and kept: 2 * width + 1 ints.

    holding[b] repeats 2^b clear bits then 2^b set ones, built by
    doubling the pattern; layers[k] grows one bit at a time, the sets
    holding the new top bit being those of one size less shifted past the
    ones without it.
    """
    if width in _LATTICES:
        return _LATTICES[width]
    size = 1 << width
    holding = []
    for b in range(width):
        span = 1 << b
        pattern = ((1 << span) - 1) << span
        span <<= 1
        while span < size:
            pattern |= pattern << span
            span <<= 1
        holding.append(pattern)
    layers = [1]
    for b in range(width):
        layers = [
            low | high << (1 << b) for low, high in zip(layers + [0], [0] + layers)
        ]
    tables = _LATTICES[width] = (tuple(holding), tuple(layers))
    return tables


_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _complemented(digits: bytearray) -> int:
    """The lattice int of a digit array (digits[x] = 1 marks mask x): digit
    x of a binary numeral of 2^width digits is the bit of x's complement."""
    return int(digits.translate(_DIGITS), 2)


def _down_closure(sets: int, width: int) -> int:
    """Every subset of a set in sets: one shift-OR per bit, the fast zeta
    (subset-sum) transform of Yates (1937) done on bits."""
    for b, hold in enumerate(_lattice(width)[0]):
        sets |= (sets & hold) >> (1 << b)
    return sets


def _up_step(sets: int, width: int) -> int:
    """Every set made of a set in sets plus one bit it lacks."""
    up = 0
    for b, hold in enumerate(_lattice(width)[0]):
        up |= (sets & ~hold) << (1 << b)
    return up


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
    each row line is ``<label>: <bits>`` over those columns.  ``mandatory``
    and ``parent-rows`` are optional context about the parent matrix.
    Labels in ``columns`` (at least one) and ``mandatory`` are distinct
    positive integers, and no mandatory label is also a view column.  Row
    labels and ``parent-rows`` are positive integers, and ``parent-rows``
    is at least the number of rows in the classes.  Class names are M1,
    M2, ... in file order.
    """
    columns: ColumnSet | None = None
    mandatory: ColumnSet = ()
    mandatory_line = 0
    total_rows: int | None = None
    total_rows_line = 0
    classes: list[ClassView] = []
    current_key: tuple[int, ...] | None = None
    current_rows: list[tuple[int, int]] = []
    seen_labels: set[int] = set()

    def flush() -> None:
        nonlocal current_key, current_rows
        if current_key is None:
            return
        if not current_rows:
            raise MatrixFormatError("class with no rows")
        labels = tuple(lab for lab, _ in current_rows)
        rows = tuple(bits for _, bits in current_rows)
        if len(set(rows)) != len(rows):
            raise MatrixFormatError(
                f"class {len(classes) + 1}: duplicate rows cannot be separated"
            )
        classes.append(
            ClassView(
                name=f"M{len(classes) + 1}",
                key=current_key,
                row_labels=labels,
                rows=rows,
            )
        )
        current_key, current_rows = None, []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("columns:"):
            columns = _header_labels(lineno, line)
            if not columns:
                raise MatrixFormatError(f"line {lineno}: 'columns:' lists no labels")
        elif line.startswith("mandatory:"):
            mandatory, mandatory_line = _header_labels(lineno, line), lineno
        elif line.startswith("parent-rows:"):
            total_rows = _positive_int(lineno, "'parent-rows:'", line.split(":", 1)[1])
            total_rows_line = lineno
        elif line.startswith("class"):
            flush()
            key_text = line.split(None, 1)[1] if " " in line else ""
            if set(key_text) - {"0", "1"}:
                raise MatrixFormatError(f"line {lineno}: bad class key {key_text!r}")
            current_key = tuple(int(b) for b in key_text)
        elif ":" in line:
            if columns is None:
                raise MatrixFormatError("row before 'columns:' header")
            if current_key is None:
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
            current_rows.append((label, int(bits_text, 2)))
        else:
            raise MatrixFormatError(f"line {lineno}: unrecognized line {line!r}")
    flush()
    if columns is None or not classes:
        raise MatrixFormatError("class-set file needs a 'columns:' header and classes")
    shared = sorted(set(mandatory) & set(columns))
    if shared:
        raise MatrixFormatError(
            f"line {mandatory_line}: 'mandatory:' label(s) "
            f"{' '.join(map(str, shared))} are also in 'columns:'"
        )
    class_rows = sum(view.size for view in classes)
    if total_rows is not None and total_rows < class_rows:
        raise MatrixFormatError(
            f"line {total_rows_line}: 'parent-rows:' {total_rows} is below "
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
