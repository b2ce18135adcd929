"""Search-space reduction rules for the column-subset search.

Three independent facts shrink the search, all phrased over a ClassSet:

* Identical projections.  A column set that projects two rows of one class
  onto the same value is not a local test.  Two rows collide exactly when
  the set misses their difference a ^ b, and every difference contains an
  inclusion-minimal one, so a set is a local test iff it meets each of
  the class set's few minimal differences (ClassSet.difference_masks).
  The search decides a whole size against them at once, with no rows
  indexed (search._scan_size).

* Multiplicity seeds.  If k columns project p >= 3 rows of one class onto
  a single value, no single extra column can finish separating them: a
  Boolean column splits p rows into two groups of sizes summing to p, so
  at most floor(p^2/4) of the p*(p-1)/2 colliding pairs get separated and
  at least p*(p-1)/2 - floor(p^2/4) >= 1 survive.  Hence every
  (k+1)-subset containing such a seed is a non-test and can be skipped
  without checking.  Three rows a, b, c agree on a column set exactly
  when it misses (a^b)|(a^c), so a (k+1)-subset contains a k-seed iff it
  meets one of these triple masks at most once.  The search tests that
  for all candidates of a size at once (search._scan_size): on a narrow
  view with the closure of the complemented unions (ClassSet.seed_up),
  on a wide one over the minimal triple masks (ClassSet.triple_masks).
  seed_masks lists the seeds themselves by partition refinement: a
  depth-first search over the columns in view order keeps, per node, only
  the row blocks of >= 3 rows that agree on the columns chosen so far,
  and stops descending once no such block is left.  It serves
  multiplicity_seeds, and the search's seed test on a class set with too
  many row triples to build their masks.

* Paired columns.  Two columns that are equal or complementary separate
  exactly the same row pairs, so one of them is redundant in any test that
  contains both: no dead-end (and so no minimal) test uses both.  One
  partition refinement finds them, over the whole matrix or per class
  (matrix._paired_positions): each row splits every block of columns by
  where it differs from the first row of its group.

The cycle-cost helper compares the work of refuting all (t-1)-subsets
directly against scanning (t-2)-subsets for multiplicity seeds first.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, inf
from typing import Iterator, Sequence

from .matrix import BooleanMatrix, ColumnSet, _paired_positions
from .mandatory import ClassSet


@dataclass(frozen=True)
class IdenticalProjectionGroup:
    """Rows of one class that project identically onto a column set."""

    columns: ColumnSet
    class_name: str
    rows: tuple[int, ...]

    @property
    def multiplicity(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class CycleCost:
    """Work estimate of the two refutation strategies; smaller one wins."""

    z1: float
    z2: float

    @property
    def chosen(self) -> str:
        return "z1" if self.z1 <= self.z2 else "z2"


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


def seed_masks(class_set: ClassSet, k: int) -> set[int]:
    """View masks of the k-subsets that project >= 3 rows of some class
    onto one value (the multiplicity seeds of size k).

    Rows are handled as bit sets over a global row index: a block is the
    set of rows of one class that agree on the columns chosen so far, and
    adding a column splits every block in two with one AND.  The search
    walks the columns in view order and carries only blocks of >= 3 rows,
    so a subset none of whose extensions can be a seed is never expanded.
    """
    width = len(class_set.columns)
    found: set[int] = set()
    if not 0 <= k <= width:
        return found
    blocks: list[int] = []
    column_rows = [0] * width  # per view position: the global rows holding a 1
    index = 0
    for view in class_set.classes:
        if view.size < 3:
            continue
        blocks.append(((1 << view.size) - 1) << index)
        for row in view.rows:
            for pos in range(width):
                if row >> (width - 1 - pos) & 1:
                    column_rows[pos] |= 1 << index
            index += 1
    if blocks and k == 0:
        found.add(0)
    elif blocks:
        _refine_seeds(blocks, column_rows, 0, 0, k, found)
    return found


def _refine_seeds(
    blocks: list[int],
    column_rows: list[int],
    mask: int,
    start: int,
    need: int,
    found: set[int],
) -> None:
    """Add to found every seed mask extending mask by need >= 1 more
    columns taken from view positions start and later."""
    width = len(column_rows)
    for pos in range(start, width - need + 1):
        rows = column_rows[pos]
        bit = 1 << (width - 1 - pos)
        if need == 1:
            for block in blocks:
                ones = (block & rows).bit_count()
                if ones >= 3 or block.bit_count() - ones >= 3:
                    found.add(mask | bit)
                    break
            continue
        split: list[int] = []
        for block in blocks:
            ones = block & rows
            if ones.bit_count() >= 3:
                split.append(ones)
            zeros = block ^ ones
            if zeros.bit_count() >= 3:
                split.append(zeros)
        if split:
            _refine_seeds(split, column_rows, mask | bit, pos + 1, need - 1, found)


def multiplicity_seeds(
    class_set: ClassSet, k: int
) -> tuple[IdenticalProjectionGroup, ...]:
    """All k-subsets projecting >= 3 rows of some class onto one value.

    Each qualifying (subset, class) is reported once with the class's
    largest group (ties broken by smallest row labels), in colex subset
    order (by last view position, then lexicographically), then class
    order.  Any single-column extension of a seed is a non-test, so seeds
    of size k prune the size-(k+1) search.  Rows are grouped only for the
    subsets seed_masks reports.
    """
    mask_at = {class_set.positions(m): m for m in seed_masks(class_set, k)}
    seeds = []
    for positions in sorted(mask_at, key=lambda p: (p[-1:], p)):
        mask = mask_at[positions]
        subset = tuple([class_set.columns[p] for p in positions])
        for view in class_set.classes:
            if view.size < 3:
                continue
            groups: dict[int, list[int]] = {}
            for lab, row in zip(view.row_labels, view.rows):
                groups.setdefault(row & mask, []).append(lab)
            best = max(groups.values(), key=lambda g: (len(g), [-x for x in g]))
            if len(best) >= 3:
                seeds.append(
                    IdenticalProjectionGroup(
                        columns=subset, class_name=view.name, rows=tuple(best)
                    )
                )
    return tuple(seeds)


def bijective_column_pairs(
    matrix: BooleanMatrix,
) -> tuple[tuple[int, int], ...]:
    """Column pairs that are equal or complementary over the whole matrix.

    Such columns separate identical sets of row pairs, so no dead-end test
    contains both members of a returned pair.
    """
    pairs = _paired_positions([matrix.rows], matrix.col_count)
    return tuple((i + 1, j + 1) for i, j in pairs)


def cycle_costs(k: int, p: int, n: int, t_ob: int, t0: int) -> CycleCost:
    """Work estimates for the two (t0-1)-refutation strategies.

    z1 counts direct checks of all (t0-t_ob-1)-subsets of the free
    columns; z2 counts the (t0-t_ob-2)-subset seed scan.  k*p is the
    per-subset pair work of the strategy shape.  A strategy whose subset
    size is undefined (negative) costs infinity.
    """
    if min(k, p, n, t_ob, t0) < 0:
        raise ValueError("cycle cost arguments cannot be negative")
    if n < t_ob:
        raise ValueError("more mandatory columns than columns")
    free = n - t_ob

    def cost(size: int) -> float:
        if size < 0:
            return inf
        return k * p * comb(free, size)

    return CycleCost(z1=cost(t0 - t_ob - 1), z2=cost(t0 - t_ob - 2))
