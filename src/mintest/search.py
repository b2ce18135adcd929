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

Every local decision reads off two facts.  A subset is a local test iff
it meets every within-class row difference, and a column of a test is
redundant iff the test without it is still a test (_local_verdict, the
one local dead-end verdict).  A subset contains a multiplicity seed iff
it meets some row-triple union at most once; above _TRIPLE_MASK_CAP row
triples the seeds of the scanned size are listed instead.  Every subset
scan is one call of _scan_size, which decides all candidates of a size
at once with big-int operations, on one of two kernels:

* On a view of at most _LATTICE_WIDTH columns, the subset lattice: bit x
  of a 2^w-bit int stands for the subset with view mask x.  The non-tests
  (ClassSet.non_tests) and the sets holding a seed one column smaller
  (ClassSet.seed_up) are each one such int, so a size is its layer ANDed
  with them and every counter is a popcount.  Scan order is by least
  set bit, highest first, then by mask, larger first: the tests decode
  by bit_length, and a stop at mask x of least bit j cuts the counters
  at the subsets with no bit below j, less those holding bit j below x.
  A verdict is one bit test per column.
* On a wider view, rank sets: the candidates are numbered in scan order,
  each view position keeps the ranks of those holding it as one big int
  (_rank_sets), in blocks of at most _BLOCK ranks (_blocks), and each
  inclusion-minimal difference and triple mask (ClassSet.difference_masks,
  ClassSet.triple_masks) costs a fixed number of operations; a stop cuts
  the counters at the rank of its test.

No rows are indexed during the scan or the correction loop.  Witness
pairs are found only on the full matrix: is_deadend certifies every
reported test with one.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cache, lru_cache, partial
from math import comb
from typing import Callable, Iterable, Iterator, Sequence

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
    _complemented,
    _lattice,
    _up_step,
    class_views,
    find_mandatory,
    partition_by_mandatory,
)
from .matrix import (
    BooleanMatrix,
    ColumnSet,
    RowPair,
    _paired_positions,
    is_test,
    normalize_columns,
)
from .oracle import OracleCeilingError, oracle_minimal_tests
from .pruning import CycleCost, cycle_costs, seed_masks


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
        import json  # here, so that importing the package does not load it

        return json.dumps(asdict(self), sort_keys=True)


@dataclass(frozen=True)
class TestVerdict:
    columns: ColumnSet
    test: bool
    deadend: bool | None
    minimal: str
    min_length: int | None
    note: str = ""


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


def _reduce(
    redundant: Callable[[ColumnSet], int | None], columns: ColumnSet
) -> ColumnSet:
    """Strip the column redundant(columns) names until it names none."""
    while (column := redundant(columns)) is not None:
        # from a list, for the reason given in ClassSet.positions
        columns = tuple([c for c in columns if c != column])
    return columns


def verify_test(
    matrix: BooleanMatrix,
    columns: Iterable[int],
    oracle_ceiling: int = 22,
) -> TestVerdict:
    """Structured verdict: test? dead-end? minimal?

    Minimality is decided by the exhaustive oracle when the matrix is
    small enough; otherwise it is reported unknown with the heuristic
    estimate as context.  A matrix of fewer than two rows has one minimal
    test, the empty set, and needs neither.
    """
    cols = normalize_columns(columns, matrix.col_count)
    if not is_test(matrix, cols):
        return TestVerdict(
            columns=cols, test=False, deadend=None, minimal="no", min_length=None
        )
    deadend = is_deadend(matrix, cols).ok
    length = 0  # fewer than two rows: the empty set
    if matrix.row_count >= 2:
        try:
            length = oracle_minimal_tests(matrix, n_ceiling=oracle_ceiling).min_length
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
    minimal = "yes" if len(cols) == length else "no"
    return TestVerdict(
        columns=cols, test=True, deadend=deadend, minimal=minimal, min_length=length
    )


# ---------------------------------------------------------------------------
# local machinery on class sets


def _local_verdict(class_set: ClassSet, columns: ColumnSet) -> int | None:
    """Dead-end verdict of a local test inside the class structure: its
    highest-indexed redundant column, or None when it is dead-end.

    Column c separates a pair alone iff the pair's difference meets the
    test in c only.  A minimal difference inside it meets the test in a
    nonempty part of that, so c separates some pair alone iff c's bit is
    one of the test's intersections with the minimal differences.  On a
    view of at most _LATTICE_WIDTH columns it is one bit test per
    column: c is redundant iff the test without c is still a test, that
    is no bit of ClassSet.non_tests, read in ClassSet.non_test_bytes.
    The columns must already be a local test.
    """
    mask = class_set.mask(columns)
    bit_of = class_set.bit_of
    if len(class_set.columns) <= _LATTICE_WIDTH:
        non_tests = class_set.non_test_bytes
        redundant = None
        for c in columns:
            x = mask ^ bit_of[c]
            if not non_tests[x >> 3] >> (x & 7) & 1:
                redundant = c if redundant is None else max(redundant, c)
    else:
        private = set(map(mask.__and__, class_set.difference_masks))
        redundant = max((c for c in columns if bit_of[c] not in private), default=None)
    return redundant


# Above this many row triples in a class set, the seed test reads its
# masks off the multiplicity seeds of each scanned size instead of the
# class set's triple masks.  One class of 230 rows passes it; below that
# the triple masks are the faster seed source on both kernels, and one
# 500-row class (2*10^7 triples) still falls back.
_TRIPLE_MASK_CAP = 2_000_000

# A class set of at most this many view columns is scanned on its subset
# lattice, one int of 2^width bits per set family (128 KB at the cap).
_LATTICE_WIDTH = 20


@dataclass(slots=True)
class _Scan:
    tests: list[ColumnSet]
    hit: ColumnSet | None = None
    checked: int = 0
    seed_skips: int = 0
    pair_skips: int = 0


# A scan over more subsets than this splits into contiguous rank blocks, so
# no rank set holds more than _BLOCK bits.
_BLOCK = 1 << 15


@lru_cache(maxsize=256)
def _rank_sets(width: int, size: int, lex: bool) -> tuple[int, ...]:
    """Per position of range(width), the ranks of the size-subsets that
    hold it, as a bit set: the subsets numbered in scan order (that of
    iter_subsets_colex: by largest position, then lexicographically), or in
    lexicographic order (that of combinations) with lex.

    In scan order the subsets of range(width - 1) come first, then those
    holding the last position, their other positions in lexicographic
    order; in lexicographic order those holding position 0 come first.
    So both build on width - 1.  The cache holds at most 256 tables of
    width ints of at most _BLOCK bits each.
    """
    if not 0 < size <= width:
        return (0,) * width
    if lex:
        head = comb(width - 1, size - 1)
        with_first = _rank_sets(width - 1, size - 1, True)
        without = _rank_sets(width - 1, size, True)
        return ((1 << head) - 1,) + tuple(
            a | b << head for a, b in zip(with_first, without)
        )
    below = comb(width - 1, size)
    with_last = (1 << comb(width - 1, size - 1)) - 1
    return tuple(
        a | b << below
        for a, b in zip(
            _rank_sets(width - 1, size, False), _rank_sets(width - 1, size - 1, True)
        )
    ) + (with_last << below,)


def _blocks(width: int, size: int) -> Iterator[tuple[Sequence[int], int]]:
    """The size-subsets of range(width) in scan order, as contiguous
    blocks of at most _BLOCK ranks: per block the rank set of each
    position, ranks counted from the block's start, and the set of all
    its ranks.  A larger scan splits by largest position, then by
    smallest position, and a position every subset of a block holds has
    every rank of it."""
    count = comb(width, size)
    if count <= _BLOCK:
        yield _rank_sets(width, size, False), (1 << count) - 1
        return
    for last in range(size - 1, width):
        yield from _lex_blocks(width, (last,), 0, last, size - 1)


def _lex_blocks(
    width: int, fixed: tuple[int, ...], start: int, end: int, need: int
) -> Iterator[tuple[Sequence[int], int]]:
    """Blocks of the subsets made of the fixed positions and need more
    positions from start to end - 1, the latter in lexicographic order."""
    count = comb(end - start, need)
    if count > _BLOCK:
        yield from _lex_blocks(width, fixed + (start,), start + 1, end, need - 1)
        yield from _lex_blocks(width, fixed, start + 1, end, need)
        return
    every = (1 << count) - 1
    sets = [0] * width
    for pos in fixed:
        sets[pos] = every
    sets[start:end] = _rank_sets(end - start, need, True)
    yield sets, every


def _scan_size(
    class_set: ClassSet,
    size: int,
    seeds: bool,
    pairs: Sequence[tuple[int, int]] | None,
    stop: Callable[[ColumnSet], bool] | None = None,
    *,
    count_all: bool = False,
) -> _Scan:
    """Local tests of the given size, in the order of iter_subsets_colex,
    under pruning.

    A candidate holding both columns of a paired pair (pairs: the view
    positions of the paired columns, pair by pair) is skipped; with seeds
    and size >= 2 one containing a multiplicity seed is a proven non-test
    and skipped; every other candidate is checked.  Only the paired-column
    skips may hide tests, and only non-dead-end ones.  The scan ends at
    the first test for which stop is true and returns it as hit.  The
    size-L enumeration, the (L-1) refutation sweep and the unpruned rescan
    for a jump target all run here.  The counters are popcounts, cut at
    the test the stop fired on; with count_all they cover the whole size,
    and only the list of tests ends at the hit.

    A view of at most _LATTICE_WIDTH columns is scanned on its subset
    lattice (_lattice_scan), a wider one over rank sets (_rank_scan);
    both give the same tests, hit and counters.  The cut follows scan
    order.  Over rank sets it is the ranks up to the hit.  On the
    lattice the subsets come by least set bit, highest first, then by
    mask, larger first; so a hit at mask x of least bit j cuts at the
    subsets with no bit below j, less those holding bit j below x.
    """
    width = len(class_set.columns)
    if not 0 <= size <= width:
        return _Scan([])
    scan = _lattice_scan if width <= _LATTICE_WIDTH else _rank_scan
    return scan(class_set, size, seeds, pairs, stop, count_all)


def _lattice_scan(
    class_set: ClassSet,
    size: int,
    seeds: bool,
    pairs: Sequence[tuple[int, int]] | None,
    stop: Callable[[ColumnSet], bool] | None,
    count_all: bool,
) -> _Scan:
    """_scan_size on the subset lattice (mandatory._lattice): the
    candidates are the size layer, the paired ones hold both bits of a
    pair, the seeded ones lie in ClassSet.seed_up (above _TRIPLE_MASK_CAP
    triples, one up-step from the (k-1)-seeds) and the tests lie outside
    ClassSet.non_tests.  The tests decode by _colex_masks, and the cut
    is read off holding at the hit."""
    columns = class_set.columns
    width = len(columns)
    holding, layers = _lattice(width)
    every = layers[size]
    paired = 0
    for a, b in pairs or ():
        paired |= holding[width - 1 - a] & holding[width - 1 - b]
    paired &= every
    free = clean = every ^ paired
    if seeds and size >= 2:
        if class_set.triple_count <= _TRIPLE_MASK_CAP:
            clean &= ~class_set.seed_up
        else:
            full = (1 << width) - 1  # complemented twice: a bit per seed
            digits = bytearray(1 << width)
            for seed in seed_masks(class_set, size - 1):
                digits[full ^ seed] = 1
            clean &= ~_up_step(_complemented(digits), width)
    tests = clean & ~class_set.non_tests
    scan = _Scan([])
    cut = every
    bit_of = class_set.bit_of
    for x in _colex_masks(tests, holding):
        # from a list, for the reason given in ClassSet.positions
        subset = tuple([c for c in columns if x & bit_of[c]])
        scan.tests.append(subset)
        if stop is not None and stop(subset):
            scan.hit = subset
            if x and not count_all:  # the empty set is its whole size
                j = (x & -x).bit_length() - 1
                for hold in holding[:j]:
                    cut &= ~hold
                cut ^= cut & holding[j] & (1 << x) - 1
            break
    scan.checked = (clean & cut).bit_count()
    scan.seed_skips = ((free ^ clean) & cut).bit_count()
    scan.pair_skips = (paired & cut).bit_count()
    return scan


def _colex_masks(sets: int, holding: Sequence[int]) -> Iterator[int]:
    """The masks of a lattice int of one size in the order of
    iter_subsets_colex: by least set bit, highest first, then larger
    masks first; the empty set, the only subset of size 0, last.  The
    sets split by least set bit: the members holding bit 0, then those
    left holding bit 1, and so on, each group XORed out of sets."""
    groups = []
    for hold in holding:
        groups.append(sets & hold)
        sets ^= groups[-1]
    for group in reversed(groups):
        while group:
            x = group.bit_length() - 1
            yield x
            group ^= 1 << x
    if sets:
        yield 0


def _rank_scan(
    class_set: ClassSet,
    size: int,
    seeds: bool,
    pairs: Sequence[tuple[int, int]] | None,
    stop: Callable[[ColumnSet], bool] | None,
    count_all: bool,
) -> _Scan:
    """_scan_size over the rank sets of the view positions (_blocks), a
    fixed number of big-int operations per mask rather than per candidate.

    The paired candidates are those holding both columns of a pair, the
    seed-free ones meet every seed-test mask twice (the triple masks, or
    above _TRIPLE_MASK_CAP triples the view complements of the
    (k-1)-seeds: a k-set contains a (k-1)-set S iff it meets ~S at most
    once), and the tests meet every difference mask.  A k-subset of w
    positions meets every mask of more than w-k positions, and twice every
    one of more than w-k+1, so those masks are skipped.
    """
    columns = class_set.columns
    width = len(columns)
    scan = _Scan([])
    triples: Iterable[tuple[int, ...]] = ()
    if seeds and size >= 2:
        if class_set.triple_count <= _TRIPLE_MASK_CAP:
            triples = class_set.triple_positions
        else:
            full = (1 << width) - 1
            triples = [
                class_set.positions(full ^ seed)
                for seed in seed_masks(class_set, size - 1)
            ]
    differences = class_set.difference_positions
    for sets, every in _blocks(width, size):
        paired = 0
        for a, b in pairs or ():
            paired |= sets[a] & sets[b]
        free = clean = every ^ paired
        for positions in triples:
            if len(positions) > width - size + 1 or not clean:
                break
            once = twice = 0
            for pos in positions:
                twice |= once & sets[pos]
                once |= sets[pos]
            clean &= twice
        tests = clean if scan.hit is None else 0
        for positions in differences:
            if len(positions) > width - size or not tests:
                break
            hit = 0
            for pos in positions:
                hit |= sets[pos]
            tests &= hit
        cut = every
        while tests:
            low = tests & -tests
            # from a list, for the reason given in ClassSet.positions
            subset = tuple([c for c, s in zip(columns, sets) if s & low])
            scan.tests.append(subset)
            if stop is not None and stop(subset):
                scan.hit = subset
                if not count_all:
                    cut = (low << 1) - 1
                break
            tests ^= low
        scan.checked += (clean & cut).bit_count()
        scan.seed_skips += ((free ^ clean) & cut).bit_count()
        scan.pair_skips += (paired & cut).bit_count()
        if scan.hit is not None and not count_all:
            break
    return scan


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
    # View positions of locally-paired column pairs; candidates holding
    # both columns of one are skipped.  A free column paired with a
    # mandatory column is useless inside classes (the mandatory column is
    # constant there), which the per-class pairing already captures, so
    # only view columns appear here.
    pairs = None
    if config.pair_prune:
        pairs = _paired_positions([view.rows for view in class_set.classes], n_free)
    redundant = cache(partial(_local_verdict, class_set))  # each verdict once

    def not_deadend(columns: ColumnSet) -> bool:
        return redundant(columns) is not None

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
        candidates += scan.checked
        pruned_by_seeds += scan.seed_skips
        pruned_by_pairs += scan.pair_skips
        found = scan.tests
        target = scan.hit  # the first non-dead-end test, or the first test
        if config.first_only and found and redundant(target) is None:
            target = None
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
            new_length = len(_reduce(redundant, target))
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


# A search without the heuristic refuses more columns than this.
_NO_HEURISTIC_CEILING = 22


def _check_ceiling(columns: int, config: SearchConfig) -> None:
    """Refuse a heuristic-free search over more columns than the ceiling."""
    if not config.use_heuristic and columns > _NO_HEURISTIC_CEILING:
        raise SearchCeilingError(
            f"{columns} columns exceed the ceiling of "
            f"{_NO_HEURISTIC_CEILING} for heuristic-free search"
        )


def enumerate_local_minimal_tests(
    class_set: ClassSet, config: SearchConfig = SearchConfig()
) -> LocalReport:
    """Minimal local tests of a class set (no parent matrix required).

    The search starts at the configured initial length, else at the
    heuristic estimate over the two largest classes, else at 1.  A class
    set with no class of two rows has no pair to separate: its one
    minimal local test is the empty set, under every configuration, with
    no estimate and no size scanned.
    """
    _check_ceiling(len(class_set.columns), config)
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
    _check_ceiling(matrix.col_count, config)
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
