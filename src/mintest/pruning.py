"""The subset scan of the column-subset search, and the facts that prune it.

The search runs on a ClassSet: row classes over common view columns,
where a column set is a *local test* when it keeps the rows of every
class pairwise distinct.  Every subset scan of the search (the size-L
enumeration, the (L-1) refutation sweep, the unpruned rescan for a jump
target) is one call of _scan_size, which decides all candidates of a
size at once with big-int operations and indexes no rows, and every
local dead-end verdict is one call of _local_verdict.  Both speak view
masks, as every fact below does; the search builds column labels only
for its result.  Three independent facts shrink the scan:

* Identical projections.  A column set that projects two rows of one class
  onto the same value is not a local test.  Two rows collide exactly when
  the set misses their difference a ^ b, and every difference contains an
  inclusion-minimal one, so a set is a local test iff it meets each of
  the class set's few minimal differences (ClassSet.difference_masks).
  A column of a test is redundant iff the test without it is still a
  test.

* Multiplicity seeds.  If k columns project p >= 3 rows of one class onto
  a single value, no single extra column can finish separating them: a
  Boolean column splits p rows into two groups of sizes summing to p, so
  at most floor(p^2/4) of the p*(p-1)/2 colliding pairs get separated and
  at least p*(p-1)/2 - floor(p^2/4) >= 1 survive.  Hence every
  (k+1)-subset containing such a seed is a non-test and can be skipped
  without checking.  Three rows a, b, c agree on a column set exactly
  when it misses (a^b)|(a^c), so a (k+1)-subset contains a k-seed iff it
  meets one of these triple masks at most once.  seed_masks lists the
  seeds themselves by partition refinement: a depth-first search over
  the columns in view order keeps, per node, only the row blocks of >= 3
  rows that agree on the columns chosen so far, and stops descending
  once no such block is left.  It serves multiplicity_seeds, and the
  scan's seed test above _TRIPLE_MASK_CAP row triples, too many to build
  their masks: a k-set contains a (k-1)-set S iff it meets the view
  complement of S at most once (_seed_complements).

* Paired columns.  Two columns that are equal or complementary separate
  exactly the same row pairs, so one of them is redundant in any test that
  contains both: no dead-end (and so no minimal) test uses both.  One
  partition refinement finds them, over the whole matrix or per class
  (matrix._paired_positions): each row splits every block of columns by
  where it differs from the first row of its group.

The scan runs on one of two kernels, which give the same tests, hit and
counters:

* On a view of at most _LATTICE_WIDTH columns, the subset lattice
  (_lattice): bit x of a 2^w-bit int stands for the subset with view mask
  x.  The non-tests (ClassSet.non_tests) and the sets holding a seed one
  column smaller (ClassSet.seed_up) are each one such int, so a size is
  its layer ANDed with them and every counter is a popcount.  Scan order
  is by least set bit, highest first, then by mask, larger first: the
  tests come out by bit_length (_colex_masks), and a stop at mask x of
  least bit j cuts the counters at the subsets with no bit below j, less
  those holding bit j below x.  A verdict is one bit test per column.
* On a wider view, rank sets: the candidates are numbered in scan order,
  each view position keeps the ranks of those holding it as one big int
  (_rank_sets), in blocks of at most _BLOCK ranks (_blocks), and each
  minimal difference and minimal triple mask (ClassSet.triple_masks)
  costs a fixed number of operations; a stop cuts the counters at the
  rank of its test.  A verdict intersects the test with the minimal
  differences.

The cycle-cost helper compares the work of refuting all (t-1)-subsets
directly against scanning (t-2)-subsets for multiplicity seeds first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb, inf
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .matrix import BooleanMatrix, ColumnSet, _paired_positions, pair_count

_Marks = TypeVar("_Marks", dict[int, int], bytearray)


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


@dataclass(slots=True)
class IdenticalProjectionGroup:
    """Rows of one class that project identically onto a column set."""

    columns: ColumnSet
    class_name: str
    rows: tuple[int, ...]

    @property
    def multiplicity(self) -> int:
        return len(self.rows)


@dataclass(slots=True)
class CycleCost:
    """Work estimate of the two refutation strategies; smaller one wins."""

    z1: float
    z2: float

    @property
    def chosen(self) -> str:
        return "z1" if self.z1 <= self.z2 else "z2"


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
    order, each subset's labels ascending.  Any single-column extension
    of a seed is a non-test, so seeds of size k prune the size-(k+1)
    search.  Rows are grouped only for the subsets seed_masks reports.
    """
    mask_at = {class_set.positions(m): m for m in seed_masks(class_set, k)}
    seeds = []
    for positions in sorted(mask_at, key=lambda p: (p[-1:], p)):
        mask = mask_at[positions]
        subset = tuple(sorted(class_set.columns[p] for p in positions))
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


# ---------------------------------------------------------------------------
# the subset scan and the local dead-end verdict


# Above this many row triples in a class set, the seed test reads its
# masks off the multiplicity seeds of each scanned size instead of the
# class set's triple masks.  One class of 230 rows passes it; below that
# the triple masks are the faster seed source on both kernels, and one
# 500-row class (2*10^7 triples) still falls back.
_TRIPLE_MASK_CAP = 2_000_000

# A class set of at most this many view columns is scanned on its subset
# lattice, one int of 2^width bits per set family (128 KB at the cap).
_LATTICE_WIDTH = 20

# A scan over more subsets than this splits into contiguous rank blocks, so
# no rank set holds more than _BLOCK bits.
_BLOCK = 1 << 15


@dataclass(slots=True)
class _Scan:
    """One size's scan: the view masks of the tests found in scan order,
    the one that met the stop predicate, and the work counters."""

    tests: list[int]
    hit: int | None = None
    checked: int = 0
    seed_skips: int = 0
    pair_skips: int = 0

    def count(self, cut: int, paired: int, free: int, clean: int) -> None:
        """Add the candidates within cut: the clean ones are checked, the
        rest of the free ones seed-skipped and the paired ones pair-skipped."""
        self.checked += (clean & cut).bit_count()
        self.seed_skips += ((free ^ clean) & cut).bit_count()
        self.pair_skips += (paired & cut).bit_count()


def _scan_size(
    class_set: ClassSet,
    size: int,
    seeds: bool,
    pairs: Sequence[tuple[int, int]] | None,
    stop: Callable[[int], bool] | None = None,
    *,
    count_all: bool = False,
) -> _Scan:
    """The view masks of the local tests of the given size, in the order
    of iter_subsets_colex, under pruning.

    A candidate holding both columns of a paired pair (pairs: the view
    positions of the paired columns, pair by pair) is skipped; with seeds
    and size >= 2 one containing a multiplicity seed is a proven non-test
    and skipped; every other candidate is checked.  Only the paired-column
    skips may hide tests, and only non-dead-end ones.  The scan ends at
    the first test mask for which stop is true and returns it as hit.  The
    counters are popcounts, cut at the test the stop fired on; with
    count_all they cover the whole size, and only the list of tests ends
    at the hit.  A view of at most _LATTICE_WIDTH columns is scanned on
    its subset lattice (_lattice_scan), a wider one over rank sets
    (_rank_scan).
    """
    width = len(class_set.columns)
    if not 0 <= size <= width:
        return _Scan([])
    scan = _lattice_scan if width <= _LATTICE_WIDTH else _rank_scan
    return scan(class_set, size, seeds, pairs, stop, count_all)


def _seed_complements(class_set: ClassSet, size: int) -> list[int]:
    """The view complements of the (size-1)-seeds of seed_masks, the seed
    test of both kernels above _TRIPLE_MASK_CAP row triples."""
    full = (1 << len(class_set.columns)) - 1
    return [full ^ seed for seed in seed_masks(class_set, size - 1)]


def _lattice_scan(
    class_set: ClassSet,
    size: int,
    seeds: bool,
    pairs: Sequence[tuple[int, int]] | None,
    stop: Callable[[int], bool] | None,
    count_all: bool,
) -> _Scan:
    """_scan_size on the subset lattice (_lattice): the candidates are the
    size layer, the paired ones hold both bits of a pair, the seeded ones
    lie in ClassSet.seed_up (above _TRIPLE_MASK_CAP triples, one up-step
    from the (k-1)-seeds) and the tests lie outside ClassSet.non_tests.
    The tests come out of _colex_masks, and the cut is read off holding
    at the hit."""
    width = len(class_set.columns)
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
            digits = bytearray(1 << width)  # complemented twice: a bit per seed
            for mask in _seed_complements(class_set, size):
                digits[mask] = 1
            clean &= ~_up_step(_complemented(digits), width)
    tests = clean & ~class_set.non_tests
    scan = _Scan([])
    cut = every
    for x in _colex_masks(tests, holding):
        scan.tests.append(x)
        if stop is not None and stop(x):
            scan.hit = x
            if x and not count_all:  # the empty set is its whole size
                j = (x & -x).bit_length() - 1
                for hold in holding[:j]:
                    cut &= ~hold
                cut ^= cut & holding[j] & (1 << x) - 1
            break
    scan.count(cut, paired, free, clean)
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


def _rank_scan(
    class_set: ClassSet,
    size: int,
    seeds: bool,
    pairs: Sequence[tuple[int, int]] | None,
    stop: Callable[[int], bool] | None,
    count_all: bool,
) -> _Scan:
    """_scan_size over the rank sets of the view positions (_blocks), a
    fixed number of big-int operations per mask rather than per candidate.

    The paired candidates are those holding both columns of a pair, the
    seed-free ones meet every seed-test mask twice (the triple masks, or
    above _TRIPLE_MASK_CAP triples the seed complements), and the tests
    meet every difference mask.  A k-subset of w positions meets every
    mask of more than w-k positions, and twice every one of more than
    w-k+1, so those masks are skipped.
    """
    width = len(class_set.columns)
    bits = [1 << width - 1 - pos for pos in range(width)]
    scan = _Scan([])
    triples: Iterable[tuple[int, ...]] = ()
    if seeds and size >= 2:
        if class_set.triple_count <= _TRIPLE_MASK_CAP:
            triples = class_set.triple_positions
        else:
            triples = list(map(class_set.positions, _seed_complements(class_set, size)))
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
            x = sum([bit for bit, ranks in zip(bits, sets) if ranks & low])
            scan.tests.append(x)
            if stop is not None and stop(x):
                scan.hit = x
                if not count_all:
                    cut = (low << 1) - 1
                break
            tests ^= low
        scan.count(cut, paired, free, clean)
        if scan.hit is not None and not count_all:
            break
    return scan


def _local_verdict(class_set: ClassSet, mask: int) -> int | None:
    """Dead-end verdict of a local test's view mask inside the class
    structure: the bit of its redundant column last in view order (on a
    matrix's view, the highest-indexed), or None when it is dead-end.

    Column c separates a pair alone iff the pair's difference meets the
    test in c only.  A minimal difference inside it meets the test in a
    nonempty part of that, so c separates some pair alone iff c's bit is
    one of the test's intersections with the minimal differences.  On a
    view of at most _LATTICE_WIDTH columns it is one bit test per
    column: c is redundant iff the test without c is still a test, that
    is no bit of ClassSet.non_tests, read in ClassSet.non_test_bytes.
    The mask must already be a local test.
    """
    rest = mask
    if len(class_set.columns) <= _LATTICE_WIDTH:
        non_tests = class_set.non_test_bytes
        while rest:
            bit = rest & -rest
            x = mask ^ bit
            if not non_tests[x >> 3] >> (x & 7) & 1:
                return bit
            rest ^= bit
        return None
    private = set(map(mask.__and__, class_set.difference_masks))
    while rest:
        bit = rest & -rest
        if bit not in private:
            return bit
        rest ^= bit
    return None
