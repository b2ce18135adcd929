"""Row-level references the tests check the library against.

The library decides every subset in bulk (pruning._scan_size) and names a
colliding row pair only where it certifies a test (is_deadend).  The
plain forms here scan rows one subset at a time, so that those decisions
can be compared with their definitions.  The scan and the local dead-end
verdict speak view masks; labels turns one back into column labels.
"""

from dataclasses import dataclass

from mintest import ClassSet, ColumnSet, is_deadend, iter_subsets_colex


def labels(class_set: ClassSet, mask: int) -> ColumnSet:
    """The column labels of a view mask, in view order."""
    return tuple(class_set.columns[p] for p in class_set.positions(mask))


def deadend_reduce(matrix, columns) -> ColumnSet:
    """Strip the redundant column is_deadend names, the highest-indexed
    one, until it names none."""
    while (column := is_deadend(matrix, columns).redundant) is not None:
        columns = tuple(c for c in columns if c != column)
    return columns


def first_collision(class_set: ClassSet, columns) -> tuple[str, tuple[int, int]] | None:
    """First identical-projection pair, scanning largest classes first.

    Returns None exactly when the column set is a local test.
    """
    mask = class_set.mask(columns)
    for view in sorted(class_set.classes, key=lambda c: -c.size):
        seen: dict[int, int] = {}
        for lab, row in zip(view.row_labels, view.rows):
            v = row & mask
            if v in seen:
                return view.name, (seen[v], lab)
            seen[v] = lab
    return None


def is_local_test(class_set: ClassSet, columns) -> bool:
    """True iff the columns meet every minimal within-class row difference."""
    mask = class_set.mask(columns)
    return all(mask & d for d in class_set.difference_masks)


@dataclass(frozen=True)
class SweepResult:
    """Outcome of refuting every k-subset of a candidate column pool."""

    all_fail: bool
    witnesses: dict[ColumnSet, tuple[str, tuple[int, int]]]
    counterexample: ColumnSet | None
    checked: int


def all_k_subsets_fail(class_set: ClassSet, candidates, k: int) -> SweepResult:
    """Check every k-subset of the candidates in colex order, with a
    witness (class name, colliding row pair) for each one that fails; the
    first k-subset that is a local test stops the sweep."""
    witnesses = {}
    checked = 0
    for subset in iter_subsets_colex(tuple(candidates), k):
        checked += 1
        collision = first_collision(class_set, subset)
        if collision is None:
            return SweepResult(False, witnesses, subset, checked)
        witnesses[subset] = collision
    return SweepResult(True, witnesses, None, checked)


def residual_pairs_lower_bound(p: int) -> int:
    """Colliding pairs of p identical projections that survive one added
    column: p*(p-1)/2 in all, at most floor(p^2/4) of them separated."""
    return p * (p - 1) // 2 - p * p // 4


def candidate_pairs(matrix) -> list[tuple[int, int]]:
    """Every row pair whose popcounts differ by one, sorted."""
    pops = {lab: matrix.bits(lab).bit_count() for lab in matrix.row_labels}
    return sorted(
        (min(a, b), max(a, b))
        for i, a in enumerate(matrix.row_labels)
        for b in matrix.row_labels[i + 1 :]
        if abs(pops[a] - pops[b]) == 1
    )
