"""End-to-end minimal-test enumeration with exact length correction.

The pipeline: find the mandatory columns, partition the rows into
classes, solve the class set of the multi-row classes (estimate the local
test length, then enumerate local column subsets of that size), and
certify each minimal test, the mandatory columns plus one local test, on
the full matrix.  A class set with no class of two rows has nothing left
to separate; its one local test is the empty set.  The estimate only
picks the starting size; the loop holds a certificate before it ever
accepts:

* a size L is accepted only when at least one local test of size L exists
  and an exhaustive sweep shows no local test of size L-1 exists (sizes
  below an already-refuted watermark are not re-swept);
* any test found that is not dead-end proves a shorter test exists; its
  dead-end reduction tells the loop where to jump.

Every downward jump goes to the dead-end reduction of one target test,
picked by one rule: with no paired-column skip at this size, the first
non-dead-end test found; otherwise the first non-dead-end test of an
unpruned rescan of the size; failing both, the (L-1) sweep's test.

Pruning never changes the outcome.  Multiplicity seeds only skip subsets
that are provably non-tests.  Subsets skipped for containing a paired
column can be tests, but only non-dead-end ones, and whenever such a skip
happened the jump target comes from the unpruned rescan, so every pruning
configuration walks the same sequence of sizes and reports identical
results.  Each dead-end verdict is computed once per search.

Every subset scan is one call of pruning._scan_size, which decides all
candidates of a size at once, and every local dead-end verdict is one
call of pruning._local_verdict; pruning describes both scan kernels.
Both work on view masks, as does the correction loop, whose reduction
XORs out the bit the verdict names (the redundant column last in view
order, the highest-indexed on a view of a matrix) until it names none;
masks become column labels once, when the search returns its tests.  No
rows are indexed during the scan or the correction loop.  Witness pairs
are found only on the full matrix: is_deadend certifies every reported
test with one.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cache, partial
from typing import Iterable

from .heuristic import (
    HeuristicEstimate,
    column_pair_stats,
    estimate_length,
    integral_length,
    union_pair_stats,
)
from .mandatory import Partition, class_views, find_mandatory, partition_by_mandatory
from .matrix import (
    BooleanMatrix,
    ColumnSet,
    RowPair,
    _paired_positions,
    is_test,
    normalize_columns,
)
from .pruning import ClassSet, CycleCost, _local_verdict, _scan_size, cycle_costs


class SearchCeilingError(RuntimeError):
    """Exhaustive search refused: without the heuristic or a named initial
    length, a class set with a pair to separate and more free columns
    (those left after the mandatory ones) than the ceiling.  A negative
    start is refused earlier, by SearchConfig, as a ValueError."""


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the enumeration; defaults give the full pruned search."""

    use_heuristic: bool = True
    seed_prune: bool = True
    pair_prune: bool = True
    first_only: bool = False
    initial_length: int | None = None

    def __post_init__(self) -> None:
        if self.initial_length is not None and self.initial_length < 0:
            raise ValueError(f"initial_length cannot be negative: {self.initial_length}")


@dataclass(slots=True)
class Correction:
    """One change of the search length, from old to new, and its reason."""

    old_length: int
    new_length: int
    reason: str


@dataclass(slots=True)
class SearchStats:
    """Work counters of one search and the lengths it visited."""

    class_count: int = 0
    free_columns: int = 0
    candidates_checked: int = 0
    sweep_checked: int = 0
    pruned_by_seeds: int = 0
    pruned_by_pairs: int = 0
    lengths_visited: tuple[int, ...] = ()
    cycle_cost: CycleCost | None = None

    @property
    def subsets_checked(self) -> int:
        return self.candidates_checked + self.sweep_checked


@dataclass(slots=True)
class DeadendCheck:
    """Dead-end verdict: per-column witness pairs, or a removable column."""

    ok: bool
    witnesses: tuple[tuple[int, RowPair], ...]
    redundant: int | None = None


@dataclass(slots=True)
class LocalReport:
    """Result of the local search on a class set."""

    local_length: int
    local_tests: tuple[ColumnSet, ...]
    mandatory: ColumnSet
    integral_length: int | None
    integral_tests: tuple[ColumnSet, ...]
    estimate: HeuristicEstimate | None
    stats: SearchStats
    corrections: tuple[Correction, ...]
    within_pair_total: int
    parent_pair_total: int | None


@dataclass(slots=True)
class TestReport:
    """Full pipeline result: every minimal test, verified dead-end."""

    minimal_length: int
    mandatory: ColumnSet
    minimal_tests: tuple[ColumnSet, ...]
    deadend_verified: tuple[bool, ...]
    witnesses: tuple[tuple[tuple[int, RowPair], ...], ...]
    heuristic: HeuristicEstimate | None
    local_heuristic: HeuristicEstimate | None
    estimate_initial: int | None
    partition: Partition
    stats: SearchStats
    corrections: tuple[Correction, ...]

    def to_json(self) -> str:
        import json  # here, so that importing the package does not load it

        return json.dumps(asdict(self), sort_keys=True)


@dataclass(slots=True)
class TestVerdict:
    """Whether a column set is a test, a dead-end one, and a minimal one
    ("yes" or "no"), with the matrix's minimal length for a test."""

    columns: ColumnSet
    test: bool
    deadend: bool | None
    minimal: str
    min_length: int | None


# ---------------------------------------------------------------------------
# dead-end checks on the full matrix


def is_deadend(matrix: BooleanMatrix, columns: Iterable[int]) -> DeadendCheck:
    """Check irredundancy: every column must separate some pair alone.

    Rows are keyed by their projection onto the test; column c separates
    a pair alone when one key is the other with c's bit flipped, which
    takes one dict lookup per row to find.  A column with no such pair is
    redundant and the set minus that column is still a test; the
    highest-indexed redundant column is reported.  Witness choice is
    deterministic: the keys are sorted once, so the first pair the probe
    loop finds is the one with the smallest projection value.
    """
    cols = normalize_columns(columns, matrix.col_count)
    n = matrix.col_count
    mask = sum(1 << (n - c) for c in cols)
    index = {row & mask: lab for row, lab in zip(matrix.rows, matrix.row_labels)}
    if len(index) != matrix.row_count:  # is_test: projections all distinct
        raise ValueError("dead-end check requires a test")
    keys = sorted(index)
    witnesses: list[tuple[int, RowPair]] = []
    redundant: int | None = None
    for c in cols:  # ascending, so the last redundant one is the highest
        bit = 1 << (n - c)
        for key in keys:
            if not key & bit:
                partner = index.get(key | bit)
                if partner is not None:
                    label = index[key]
                    pair = (label, partner) if label < partner else (partner, label)
                    witnesses.append((c, pair))
                    break
        else:
            redundant = c
    return DeadendCheck(ok=redundant is None, witnesses=tuple(witnesses), redundant=redundant)


# The search verify_test runs for the minimal length.  Pruning never
# changes the length, and the seed test costs most on wide views with
# many rows, where the row triples exceed pruning._TRIPLE_MASK_CAP.
_VERIFY = SearchConfig(first_only=True, seed_prune=False, pair_prune=False)


def verify_test(matrix: BooleanMatrix, columns: Iterable[int]) -> TestVerdict:
    """Structured verdict: test? dead-end? minimal?

    A test is minimal when its size is the minimal length, which the
    first-only search decides at any width; the search runs only for a
    test, so a non-test has no minimal length.
    """
    cols = normalize_columns(columns, matrix.col_count)
    if not is_test(matrix, cols):
        return TestVerdict(
            columns=cols, test=False, deadend=None, minimal="no", min_length=None
        )
    length = enumerate_minimal_tests(matrix, _VERIFY).minimal_length
    return TestVerdict(
        columns=cols,
        test=True,
        deadend=is_deadend(matrix, cols).ok,
        minimal="yes" if len(cols) == length else "no",
        min_length=length,
    )


# ---------------------------------------------------------------------------
# local machinery on class sets


def _search_local(
    class_set: ClassSet, start: int, config: SearchConfig
) -> tuple[int, tuple[ColumnSet, ...], SearchStats, tuple[Correction, ...]]:
    """The correction loop.  Returns the exact local length and all local
    tests of that length (just the colex-first one under first_only), as
    ascending label tuples in sorted order, with the search's counters.

    Every downward correction jumps to the dead-end reduction of one
    target test: with no paired-column skip at this size, the first
    non-dead-end test found; otherwise the first non-dead-end test of an
    unpruned rescan; failing both, the (L-1) sweep's test.  With no target
    no test of this size exists, and the loop steps up one size.  Every
    correction is recorded at one site.
    """
    n_free = len(class_set.columns)
    t_ob = len(class_set.mandatory)
    # View positions of locally-paired column pairs; candidates holding
    # both columns of one are skipped.  A free column paired with a
    # mandatory column is useless inside classes (the mandatory column is
    # constant there), which the per-class pairing already captures, so
    # only view columns appear here.
    pairs = None
    if config.pair_prune:
        pairs = _paired_positions([view.rows for view in class_set.classes], n_free)
    redundant = cache(partial(_local_verdict, class_set))  # each verdict once

    def not_deadend(mask: int) -> bool:
        return redundant(mask) is not None

    stats = SearchStats(class_count=len(class_set.classes), free_columns=n_free)
    corrections: list[Correction] = []
    visited: list[int] = []
    refuted = 0  # no local test of any size <= refuted exists
    length = max(1, min(start, n_free))

    while True:
        visited.append(length)
        if len(visited) > n_free + 2:
            raise RuntimeError("length correction failed to terminate")
        # found: the tests up to the first non-dead-end one, else all of
        # them (just the first under first_only); the counters cover the
        # whole size unless first_only.
        scan = _scan_size(
            class_set,
            length,
            config.seed_prune,
            pairs,
            (lambda test: True) if config.first_only else not_deadend,
            count_all=not config.first_only,
        )
        stats.candidates_checked += scan.checked
        stats.pruned_by_seeds += scan.seed_skips
        stats.pruned_by_pairs += scan.pair_skips
        found = scan.tests
        target = scan.hit  # the first non-dead-end test, or the first test
        if config.first_only and found and redundant(target) is None:
            target = None
        if found and target is None:
            if length - 1 <= refuted:
                break
            stats.cycle_cost = cycle_costs(
                k=length - 1, p=2, n=n_free + t_ob, t_ob=t_ob, t0=t_ob + length
            )
            seeded = config.seed_prune and stats.cycle_cost.chosen == "z2"
            sweep = _scan_size(class_set, length - 1, seeded, None, lambda test: True)
            stats.sweep_checked += sweep.checked
            if sweep.hit is None:
                refuted = max(refuted, length - 1)
                break
            reason = "a shorter test exists below the accepted size"
            target = sweep.hit
        elif found:
            reason = "found test was not dead-end"
        else:
            reason = "skipped subset hid a non-dead-end test"
        # A paired-column skip may hide an earlier non-dead-end test.
        if scan.pair_skips:
            rescan = _scan_size(class_set, length, False, None, not_deadend)
            stats.sweep_checked += rescan.checked
            if rescan.hit is not None:
                target = rescan.hit
        if target is None:
            assert not found, "a found test always yields a jump target"
            refuted = max(refuted, length)
            reason, new_length = "no test of this length exists", length + 1
            if new_length > n_free:
                raise RuntimeError("no local test up to the full column set")
        else:
            while (bit := redundant(target)) is not None:
                target ^= bit
            new_length = target.bit_count()
        corrections.append(Correction(t_ob + length, t_ob + new_length, reason))
        length = new_length

    stats.lengths_visited = tuple(visited)
    columns = class_set.columns
    tests = [tuple(sorted(columns[p] for p in class_set.positions(x))) for x in found]
    return length, tuple(sorted(tests)), stats, tuple(corrections)


# A search that starts at 1 for want of an estimate refuses a view of more
# columns than this.
_NO_HEURISTIC_CEILING = 22


def enumerate_local_minimal_tests(
    class_set: ClassSet, config: SearchConfig = SearchConfig()
) -> LocalReport:
    """Minimal local tests of a class set (no parent matrix required).

    The search starts at the configured initial length, else at the
    heuristic estimate over the two largest classes, else at 1.  A class
    set with no class of two rows has no pair to separate: its one
    minimal local test is the empty set, under every configuration, with
    no estimate and no size scanned.  A search with neither the heuristic
    nor a named initial length starts at 1, and refuses a view of more
    columns than the ceiling before any scan.
    """
    mand = class_set.mandatory
    estimate = None
    if not class_set.within_pair_total:
        length, tests = 0, ((),)
        stats, corrections = SearchStats(class_count=len(class_set.classes)), ()
    else:
        if config.initial_length is not None:
            start = config.initial_length
        elif config.use_heuristic:
            estimate = estimate_length(union_pair_stats(class_set))
            start = estimate.t0
        else:
            n_free = len(class_set.columns)
            if n_free > _NO_HEURISTIC_CEILING:
                raise SearchCeilingError(
                    f"{n_free} columns exceed the ceiling of "
                    f"{_NO_HEURISTIC_CEILING} for heuristic-free search"
                )
            start = 1
        length, tests, stats, corrections = _search_local(class_set, start, config)
    return LocalReport(
        local_length=length,
        local_tests=tests,
        mandatory=mand,
        integral_length=integral_length(len(mand), length),
        # from lists, for the reason given in ClassSet.positions
        integral_tests=tuple([tuple(sorted(mand + t)) for t in tests]),
        estimate=estimate,
        stats=stats,
        corrections=corrections,
        within_pair_total=class_set.within_pair_total,
        parent_pair_total=class_set.parent_pair_total,
    )


def enumerate_minimal_tests(
    matrix: BooleanMatrix, config: SearchConfig = SearchConfig()
) -> TestReport:
    """All minimal tests of a matrix (or the first, under first_only).

    The mandatory columns partition the rows into classes; the local
    search on the multi-row classes gives the minimal tests, each the
    mandatory columns plus one local test, and every one is certified
    dead-end on the full matrix.  The report carries the estimates,
    corrections and search statistics that produced them.  A matrix of
    fewer than two rows has the empty test alone, and no whole-matrix
    estimate, since that needs a row pair.
    """
    mandatory = find_mandatory(matrix)
    partition = partition_by_mandatory(matrix, mandatory.columns)
    local = enumerate_local_minimal_tests(class_views(matrix, partition), config)
    checks = [is_deadend(matrix, t) for t in local.integral_tests]
    start = config.initial_length
    if start is None and local.estimate is not None:
        start = local.estimate.t0
    return TestReport(
        minimal_length=local.integral_length,
        mandatory=mandatory.columns,
        minimal_tests=local.integral_tests,
        # from lists, for the reason given in ClassSet.positions
        deadend_verified=tuple([c.ok for c in checks]),
        witnesses=tuple([c.witnesses for c in checks]),
        heuristic=(
            estimate_length(column_pair_stats(matrix)) if matrix.row_count > 1 else None
        ),
        local_heuristic=local.estimate,
        estimate_initial=(
            integral_length(len(mandatory.columns), start)
            if start is not None and local.stats.lengths_visited
            else None
        ),
        partition=partition,
        stats=local.stats,
        corrections=local.corrections,
    )
