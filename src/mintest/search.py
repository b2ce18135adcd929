"""End-to-end minimal-test enumeration with exact length correction.

The pipeline: sort rows, find the mandatory columns, partition the rows
into classes, estimate the local test length, then enumerate local column
subsets of that size.  The estimate only picks the starting size; the loop
holds a certificate before it ever accepts:

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

Every local decision reads off the class set's minimal within-class row
differences (ClassSet.difference_masks): a subset is a local test iff its
columns' hit sets (ClassSet.column_hits) cover every mask, and a column
of a test is redundant iff no mask meets the test in that column alone
(_local_verdict, the one local dead-end verdict).  The seed test reads
off the minimal row-triple masks the same way: a subset contains a
multiplicity seed iff its columns meet some triple mask at most once, a
ones/twos cover over ClassSet.triple_hits; above _TRIPLE_MASK_CAP row
triples the masks are the complements of the seeds of the scanned size
(_seed_cover).  Every subset scan is one depth-first kernel (_scan_size,
_extend) that visits the subsets in iter_subsets_colex order and carries
the covers along each prefix, so a candidate costs O(1) int operations.
No rows are indexed during the scan or the correction loop.  Witness
pairs are found only on the full matrix: is_deadend certifies every
reported test with one.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from functools import partial
from math import comb
from typing import Callable, Iterable

from .heuristic import (
    HeuristicEstimate,
    column_pair_stats,
    estimate_length,
    integral_length,
    union_pair_stats,
)
from .mandatory import (
    ClassSet,
    Partition,
    class_views,
    find_mandatory,
    partition_by_mandatory,
)
from .matrix import (
    BooleanMatrix,
    ColumnSet,
    RowPair,
    flip_pairs,
    is_test,
    normalize_columns,
    sort_rows_by_binary_value,
)
from .oracle import OracleCeilingError, oracle_minimal_tests
from .pruning import (
    CycleCost,
    cycle_costs,
    paired_view_columns,
    seed_masks,
)


class SearchCeilingError(RuntimeError):
    """Exhaustive search refused: too many columns without the heuristic."""


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the enumeration; defaults give the full pruned search."""

    use_heuristic: bool = True
    seed_prune: bool = True
    pair_prune: bool = True
    first_only: bool = False
    initial_length: int | None = None
    no_heuristic_ceiling: int = 22


@dataclass(frozen=True)
class Correction:
    old_length: int
    new_length: int
    reason: str


@dataclass(frozen=True)
class SearchStats:
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


@dataclass(frozen=True)
class DeadendCheck:
    """Dead-end verdict: per-column witness pairs, or a removable column."""

    ok: bool
    witnesses: tuple[tuple[int, RowPair], ...]
    redundant: int | None = None

    def witness_for(self, column: int) -> RowPair | None:
        for c, pair in self.witnesses:
            if c == column:
                return pair
        return None


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
        return json.dumps(asdict(self), sort_keys=True, default=_json_default)


@dataclass(frozen=True)
class TestVerdict:
    columns: ColumnSet
    test: bool
    deadend: bool | None
    minimal: str
    min_length: int | None
    note: str = ""


def _json_default(obj):
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


# ---------------------------------------------------------------------------
# dead-end checks on the full matrix


def is_deadend(matrix: BooleanMatrix, columns: Iterable[int]) -> DeadendCheck:
    """Check irredundancy: every column must separate some pair alone.

    Rows are keyed by their projection onto the test; column c separates
    a pair alone when one key is the other with c's bit flipped, which
    takes one dict lookup per row to find.  A column with no such pair is
    redundant and the set minus that column is still a test; the
    highest-indexed redundant column is reported.  Witness choice is
    deterministic: the keys are sorted once, so the first pair flip_pairs
    yields is the one with the smallest projection value.
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
    for c in cols:
        pair = next(flip_pairs(index, 1 << (n - c), keys), None)
        if pair is not None:
            witnesses.append((c, pair))
        elif redundant is None or c > redundant:
            redundant = c
    return DeadendCheck(ok=redundant is None, witnesses=tuple(witnesses), redundant=redundant)


def _reduce(
    check: Callable[[ColumnSet], DeadendCheck], columns: ColumnSet
) -> ColumnSet:
    """Strip redundant columns (highest index first) until dead-end."""
    while True:
        verdict = check(columns)
        if verdict.ok:
            return columns
        columns = tuple(c for c in columns if c != verdict.redundant)


def deadend_reduce(matrix: BooleanMatrix, columns: Iterable[int]) -> ColumnSet:
    """Strip redundant columns (highest index first) until dead-end."""
    cols = normalize_columns(columns, matrix.col_count)
    return _reduce(partial(is_deadend, matrix), cols)


def verify_test(
    matrix: BooleanMatrix,
    columns: Iterable[int],
    oracle_ceiling: int = 22,
) -> TestVerdict:
    """Structured verdict: test? dead-end? minimal?

    Minimality is decided by the exhaustive oracle when the matrix is
    small enough; otherwise it is reported unknown with the heuristic
    estimate as context.
    """
    cols = normalize_columns(columns, matrix.col_count)
    if not is_test(matrix, cols):
        return TestVerdict(
            columns=cols, test=False, deadend=None, minimal="no", min_length=None
        )
    deadend = is_deadend(matrix, cols).ok
    try:
        oracle = oracle_minimal_tests(matrix, n_ceiling=oracle_ceiling)
    except OracleCeilingError:
        est = estimate_length(column_pair_stats(matrix))
        return TestVerdict(
            columns=cols,
            test=True,
            deadend=deadend,
            minimal="unknown",
            min_length=None,
            note=f"matrix too wide for the oracle; heuristic estimate {est.t0}",
        )
    minimal = "yes" if len(cols) == oracle.min_length else "no"
    return TestVerdict(
        columns=cols,
        test=True,
        deadend=deadend,
        minimal=minimal,
        min_length=oracle.min_length,
    )


# ---------------------------------------------------------------------------
# local machinery on class sets


def _local_verdict(class_set: ClassSet, columns: ColumnSet) -> DeadendCheck:
    """Dead-end verdict of a local test inside the class structure: ok,
    or the highest-indexed redundant column, without witnesses.

    Column c separates a pair alone iff the pair's difference meets the
    test in c only.  A minimal difference inside it meets the test in a
    nonempty part of that, so c separates some pair alone iff c's bit is
    one of the test's intersections with the minimal differences.  The
    columns must already be a local test.
    """
    mask = class_set.mask(columns)
    private = set(map(mask.__and__, class_set.difference_masks))
    bit_of = class_set.bit_of
    redundant = max((c for c in columns if bit_of[c] not in private), default=None)
    return DeadendCheck(ok=redundant is None, witnesses=(), redundant=redundant)


# Above this many row triples in a class set, the seed test reads its
# masks off the multiplicity seeds of each scanned size instead of the
# class set's triple masks (one 500-row class has 2*10^7 triples).
_TRIPLE_MASK_CAP = 100_000


@dataclass(slots=True)
class _Scan:
    tests: list[ColumnSet]
    hit: ColumnSet | None = None
    checked: int = 0
    seed_skips: int = 0
    pair_skips: int = 0


def _seed_cover(class_set: ClassSet, size: int) -> tuple[list[int], int]:
    """Masks of the seed test of one scanned size: per view column the
    bit set of the masks it meets, and the set of all of them.

    A size-k subset contains a (k-1)-seed iff it meets some mask at most
    once.  The masks are the class set's triple masks, or, above
    _TRIPLE_MASK_CAP triples, the view complements of the (k-1)-seeds
    themselves: a k-set M contains a (k-1)-set S iff M meets ~S at most
    once.
    """
    columns = class_set.columns
    if class_set.triple_count <= _TRIPLE_MASK_CAP:
        hits = class_set.triple_hits
        return [hits[c] for c in columns], (1 << len(class_set.triple_masks)) - 1
    seeds = seed_masks(class_set, size - 1)
    # one bit per seed, set where the seed lacks the column
    return [
        int("0" + "".join("0" if s & class_set.bit_of[c] else "1" for s in seeds), 2)
        for c in columns
    ], (1 << len(seeds)) - 1


def _partner_masks(class_set: ClassSet) -> list[int]:
    """Per view column, the view bits of the columns paired with it."""
    partners = dict.fromkeys(class_set.columns, 0)
    for a, b in paired_view_columns(class_set):
        partners[a] |= class_set.bit_of[b]
        partners[b] |= class_set.bit_of[a]
    return list(partners.values())


def _scan_size(
    class_set: ClassSet,
    size: int,
    seeds: bool,
    partners: list[int] | None,
    stop: Callable[[ColumnSet], bool] | None = None,
) -> _Scan:
    """Local tests of the given size, in the order of iter_subsets_colex,
    under pruning.

    A candidate holding a column and one of its partners (partners: per
    view column, the bits of its paired columns) is skipped; with seeds
    and size >= 2 one containing a multiplicity seed is a proven non-test
    and skipped (_seed_cover); every other candidate is checked.  Only the
    paired-column skips may hide tests, and only non-dead-end ones.  The
    scan ends at the first test for which stop is true and returns it as
    hit.  The size-L enumeration, the (L-1) refutation sweep and the
    unpruned rescan for a jump target all run here.

    The scan is a depth-first walk that fixes the last column, then
    extends a prefix from the left (_extend), carrying the view mask, the
    difference-mask cover and the seed test's ones/twos cover, so each
    candidate costs O(1) int operations.  A prefix holding a paired
    column pair skips all its completions in one step.
    """
    columns = class_set.columns
    width = len(columns)
    scan = _Scan([])
    if not 0 <= size <= width:
        return scan
    every = (1 << len(class_set.difference_masks)) - 1
    if size == 0:  # the empty set: a test only when no class has two rows
        scan.checked = 1
        if every == 0:
            scan.tests.append(())
            scan.hit = () if stop is not None and stop(()) else None
        return scan
    hits = [class_set.column_hits[c] for c in columns]
    seed_hits, seed_all = (
        _seed_cover(class_set, size) if seeds and size >= 2 else ([0] * width, 0)
    )
    bits = [class_set.bit_of[c] for c in columns]
    context = (
        columns, bits, hits, every, seed_hits, seed_all,
        partners or [0] * width, stop, scan,
    )
    if size == 1:
        _extend(context, 0, width, 1, (), (), 0, 0, 0, 0)
        return scan
    for last in range(size - 1, width):
        if _extend(
            context, 0, last, size - 1, (), (columns[last],),
            bits[last], hits[last], seed_hits[last], 0,
        ):
            break
    return scan


def _extend(
    context: tuple,
    start: int,
    end: int,
    need: int,
    prefix: ColumnSet,
    suffix: ColumnSet,
    mask: int,
    cover: int,
    ones: int,
    twos: int,
) -> bool:
    """Scan the completions of a partial subset by need more view
    positions from start to end - 1, in lexicographic order.  prefix and
    suffix are its labels before start and from end on; mask, cover and
    ones/twos are its view mask, difference cover and seed covers (the
    seed-test masks met at least once, and at least twice).  True when
    the scan's stop fired."""
    columns, bits, hits, every, seed_hits, seed_all, partners, stop, scan = context
    if need > 1:
        for pos in range(start, end - need + 1):
            if partners[pos] & mask:
                scan.pair_skips += comb(end - pos - 1, need - 1)
                continue
            h = seed_hits[pos]
            if _extend(
                context, pos + 1, end, need - 1, prefix + (columns[pos],), suffix,
                mask | bits[pos], cover | hits[pos], ones | h, twos | ones & h,
            ):
                return True
        return False
    checked = seed_skips = pair_skips = 0
    stopped = False
    for pos in range(start, end):
        if partners[pos] & mask:
            pair_skips += 1
        elif (twos | ones & seed_hits[pos]) != seed_all:
            seed_skips += 1
        else:
            checked += 1
            if cover | hits[pos] == every:
                subset = prefix + (columns[pos],) + suffix
                scan.tests.append(subset)
                if stop is not None and stop(subset):
                    scan.hit, stopped = subset, True
                    break
    scan.checked += checked
    scan.seed_skips += seed_skips
    scan.pair_skips += pair_skips
    return stopped


def _search_local(
    class_set: ClassSet, start: int, config: SearchConfig
) -> tuple[int, tuple[ColumnSet, ...], SearchStats, tuple[Correction, ...]]:
    """The correction loop.  Returns the exact local length and all local
    tests of that length (just the colex-first one under first_only).

    Every downward correction jumps to the dead-end reduction of one
    target test: with no paired-column skip at this size, the first
    non-dead-end test found; otherwise the first non-dead-end test of an
    unpruned rescan; failing both, the (L-1) sweep's test.  With no target
    no test of this size exists, and the loop steps up one size.  Every
    correction is recorded at one site.
    """
    n_free = len(class_set.columns)
    t_ob = len(class_set.mandatory)
    # Masks of locally-paired column pairs; candidates covering one are
    # skipped.  A free column paired with a mandatory column is useless
    # inside classes (the mandatory column is constant there), which the
    # per-class pairing already captures, so only view columns appear here.
    partners = _partner_masks(class_set) if config.pair_prune else None
    verdicts: dict[ColumnSet, DeadendCheck] = {}

    def deadend(columns: ColumnSet) -> DeadendCheck:
        check = verdicts.get(columns)
        if check is None:
            check = verdicts[columns] = _local_verdict(class_set, columns)
        return check

    def not_deadend(columns: ColumnSet) -> bool:
        return not deadend(columns).ok

    candidates = sweep_checked = pruned_by_seeds = pruned_by_pairs = 0
    cycle_cost: CycleCost | None = None
    corrections: list[Correction] = []
    visited: list[int] = []
    refuted = 0  # no local test of any size <= refuted exists
    length = max(1, min(start, n_free))

    while True:
        visited.append(length)
        if len(visited) > n_free + 2:
            raise RuntimeError("length correction failed to terminate")
        scan = _scan_size(
            class_set,
            length,
            config.seed_prune,
            partners,
            (lambda test: True) if config.first_only else None,
        )
        candidates += scan.checked
        pruned_by_seeds += scan.seed_skips
        pruned_by_pairs += scan.pair_skips
        found = scan.tests
        target = next(filter(not_deadend, found), None)  # first non-dead-end
        if found and target is None:
            if length - 1 <= refuted:
                break
            cycle_cost = cycle_costs(
                k=length - 1, p=2, n=n_free + t_ob, t_ob=t_ob, t0=t_ob + length
            )
            seeded = config.seed_prune and cycle_cost.chosen == "z2"
            sweep = _scan_size(class_set, length - 1, seeded, None, lambda test: True)
            sweep_checked += sweep.checked
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
            sweep_checked += rescan.checked
            if rescan.hit is not None:
                target = rescan.hit
        if target is None:
            assert not found, "a found test always yields a jump target"
            refuted = max(refuted, length)
            reason, new_length = "no test of this length exists", length + 1
            if new_length > n_free:
                raise RuntimeError("no local test up to the full column set")
        else:
            new_length = len(_reduce(deadend, target))
        corrections.append(Correction(t_ob + length, t_ob + new_length, reason))
        length = new_length

    stats = SearchStats(
        class_count=len(class_set.classes),
        free_columns=n_free,
        candidates_checked=candidates,
        sweep_checked=sweep_checked,
        pruned_by_seeds=pruned_by_seeds,
        pruned_by_pairs=pruned_by_pairs,
        lengths_visited=tuple(visited),
        cycle_cost=cycle_cost,
    )
    return length, tuple(sorted(found)), stats, tuple(corrections)


def _start_length(
    class_set: ClassSet, config: SearchConfig
) -> tuple[int, HeuristicEstimate | None]:
    """Starting local size and the estimate behind it: the configured
    initial length, else the heuristic over the two largest classes,
    else 1."""
    if config.initial_length is not None:
        return config.initial_length, None
    if config.use_heuristic:
        estimate = estimate_length(union_pair_stats(class_set))
        return estimate.t0, estimate
    return 1, None


def _check_ceiling(columns: int, config: SearchConfig) -> None:
    """Refuse a heuristic-free search over more columns than the ceiling."""
    if not config.use_heuristic and columns > config.no_heuristic_ceiling:
        raise SearchCeilingError(
            f"{columns} columns exceed the ceiling of "
            f"{config.no_heuristic_ceiling} for heuristic-free search"
        )


def enumerate_local_minimal_tests(
    class_set: ClassSet, config: SearchConfig = SearchConfig()
) -> LocalReport:
    """Minimal local tests of a class set (no parent matrix required)."""
    if not class_set.classes:
        raise ValueError("class set has no multi-row classes to separate")
    _check_ceiling(len(class_set.columns), config)
    start, estimate = _start_length(class_set, config)
    length, tests, stats, corrections = _search_local(class_set, start, config)
    mand = class_set.mandatory
    integral = tuple(tuple(sorted(mand + t)) for t in tests)
    return LocalReport(
        local_length=length,
        local_tests=tests,
        mandatory=mand,
        integral_length=integral_length(len(mand), length) if mand else length,
        integral_tests=integral,
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

    Every reported set is a verified dead-end test containing every
    mandatory column; the report carries the estimates, corrections and
    search statistics that produced it.
    """
    if matrix.row_count < 2:
        raise ValueError("minimal tests need at least two rows")
    _check_ceiling(matrix.col_count, config)
    sorted_matrix = sort_rows_by_binary_value(matrix)
    mandatory = find_mandatory(sorted_matrix)
    partition = partition_by_mandatory(sorted_matrix, mandatory.columns)
    global_estimate = estimate_length(column_pair_stats(sorted_matrix))

    if not partition.classes:
        # The mandatory columns alone separate every pair.
        cols = mandatory.columns
        check = is_deadend(sorted_matrix, cols)
        return TestReport(
            minimal_length=len(cols),
            mandatory=cols,
            minimal_tests=(cols,),
            deadend_verified=(check.ok,),
            witnesses=(check.witnesses,),
            heuristic=global_estimate,
            local_heuristic=None,
            estimate_initial=None,
            partition=partition,
            stats=SearchStats(class_count=0, free_columns=0),
            corrections=(),
        )

    class_set = class_views(sorted_matrix, partition)
    start, local_estimate = _start_length(class_set, config)
    length, local_tests, stats, corrections = _search_local(class_set, start, config)
    integral = tuple(
        tuple(sorted(mandatory.columns + t)) for t in local_tests
    )
    checks = [is_deadend(sorted_matrix, t) for t in integral]
    return TestReport(
        minimal_length=len(mandatory.columns) + length,
        mandatory=mandatory.columns,
        minimal_tests=integral,
        deadend_verified=tuple(c.ok for c in checks),
        witnesses=tuple(c.witnesses for c in checks),
        heuristic=global_estimate,
        local_heuristic=local_estimate,
        estimate_initial=(
            integral_length(len(mandatory.columns), start)
            if (config.use_heuristic or config.initial_length is not None)
            else None
        ),
        partition=partition,
        stats=stats,
        corrections=corrections,
    )
