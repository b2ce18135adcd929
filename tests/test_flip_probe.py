"""The distance-1 scans against plain reference algorithms.

find_mandatory reads distance-1 pairs off a bitset of the row values when
that takes at most 128 bytes per row (1 << n <= 1024 * m), else off a
hash probe; is_deadend always probes.  These tests pin their output,
order included, to straightforward all-pairs and group-and-sort
references written out here, on both sides of the bitset bound.
The search's local dead-end verdict is pinned to a group-by reference too,
in both its forms: on the subset lattice and on the minimal differences.
"""

import random
from collections import Counter
from itertools import combinations

from hypothesis import given, settings, strategies as st

from conftest import kernel_caps, random_matrix

from mintest import (
    BooleanMatrix,
    ClassSet,
    ClassView,
    DeadendCheck,
    candidate_pair_count,
    class_views,
    find_mandatory,
    is_deadend,
    is_test,
    parse_matrix,
    partition_by_mandatory,
    sort_rows_by_binary_value,
)
from mintest.pruning import _local_verdict
from reference import candidate_pairs, is_local_test, labels


def reference_mandatory(matrix):
    """Every row pair at Hamming distance 1, grouped by its column."""
    n = matrix.col_count
    witnesses = {}
    for a, b in combinations(sorted(matrix.row_labels), 2):
        diff = matrix.bits(a) ^ matrix.bits(b)
        if diff.bit_count() == 1:
            witnesses.setdefault(n - diff.bit_length() + 1, []).append((a, b))
    return {c: tuple(witnesses[c]) for c in sorted(witnesses)}


def reference_is_deadend(matrix, cols):
    """Group rows by their projection onto the other columns, sort the keys."""
    witnesses = []
    redundant = None
    for c in cols:
        rest_mask = matrix.column_mask(x for x in cols if x != c)
        groups = {}
        for lab, row in zip(matrix.row_labels, matrix.rows):
            groups.setdefault(row & rest_mask, []).append(lab)
        pair = None
        for key in sorted(groups):
            labs = groups[key]
            if len(labs) == 2:
                pair = (min(labs), max(labs))
                break
        if pair is None:
            if redundant is None or c > redundant:
                redundant = c
        else:
            witnesses.append((c, pair))
    return DeadendCheck(
        ok=redundant is None, witnesses=tuple(witnesses), redundant=redundant
    )


def reference_local_deadend(class_set, columns):
    """Group each class's rows by the other columns of the local test: a
    column with no two-row group separates no pair alone and is redundant;
    the highest-indexed one is returned, None when there is none."""
    redundant = None
    for c in columns:
        rest_mask = class_set.mask(x for x in columns if x != c)
        alone = any(
            max(Counter(row & rest_mask for row in view.rows).values()) >= 2
            for view in class_set.classes
        )
        if not alone and (redundant is None or c > redundant):
            redundant = c
    return redundant


def local_verdicts(class_set, columns):
    """_local_verdict on the subset lattice, then with the lattice cap
    forced to 0 (the minimal-difference form), each bit as its label."""
    mask = class_set.mask(columns)
    verdicts = [_local_verdict(class_set, mask)]
    with kernel_caps(_LATTICE_WIDTH=0):
        verdicts.append(_local_verdict(class_set, mask))
    return [None if bit is None else labels(class_set, bit)[0] for bit in verdicts]


def bitset_side(matrix):
    """Whether find_mandatory takes the bitset, by the bound it documents."""
    return 1 << matrix.col_count <= 1024 * matrix.row_count


@st.composite
def matrices(draw, max_cols=7, max_rows=12):
    """Distinct rows under a shuffled labelling, so labels and row order
    differ; some rows are others with one bit flipped, so distance-1 pairs
    turn up on wide matrices too."""
    n = draw(st.integers(1, max_cols))
    values = draw(
        st.lists(
            st.integers(0, (1 << n) - 1),
            min_size=2,
            max_size=min(max_rows, 1 << n),
            unique=True,
        )
    )
    flips = st.tuples(st.integers(0, len(values) - 1), st.integers(0, n - 1))
    for i, b in draw(st.lists(flips)):
        flipped = values[i] ^ 1 << b
        if len(values) < max_rows and flipped not in values:
            values.append(flipped)
    labels = draw(st.permutations(range(1, len(values) + 1)))
    return BooleanMatrix(col_count=n, rows=tuple(values), row_labels=tuple(labels))


@st.composite
def class_sets(draw, max_width=6):
    """Classes of distinct rows over a common view, labels unique overall."""
    width = draw(st.integers(1, max_width))
    columns = tuple(sorted(draw(st.sets(st.integers(1, 12), min_size=width, max_size=width))))
    sizes = draw(st.lists(st.integers(2, min(6, 1 << width)), min_size=1, max_size=4))
    label_pool = draw(st.permutations(range(1, sum(sizes) + 1)))
    views = []
    start = 0
    for i, size in enumerate(sizes):
        rows = draw(
            st.lists(
                st.integers(0, (1 << width) - 1),
                min_size=size,
                max_size=size,
                unique=True,
            )
        )
        views.append(
            ClassView(
                name=f"M{i + 1}",
                key=(),
                row_labels=tuple(label_pool[start : start + size]),
                rows=tuple(rows),
            )
        )
        start += size
    return ClassSet(columns=columns, classes=tuple(views))


def all_tests(matrix):
    n = matrix.col_count
    for k in range(1, n + 1):
        for cols in combinations(range(1, n + 1), k):
            if is_test(matrix, cols):
                yield cols


def all_local_tests(class_set):
    for k in range(len(class_set.columns) + 1):
        for cols in combinations(class_set.columns, k):
            if is_local_test(class_set, cols):
                yield cols


class TestFindMandatoryReference:
    @staticmethod
    def assert_matches(matrix):
        res = find_mandatory(matrix)
        ref = reference_mandatory(matrix)
        assert res.columns == tuple(ref)
        assert list(res.witnesses.items()) == list(ref.items())

    @settings(max_examples=300, deadline=None)
    @given(matrices(max_cols=16))
    def test_random_labelled_matrices(self, matrix):
        # up to 11 columns always on the bitset, from 14 always probed
        self.assert_matches(matrix)

    def test_both_sides_of_the_bitset_bound(self):
        # 13 columns: 8 rows fit the bitset exactly, 7 rows are probed
        rng = random.Random(13)
        base = rng.sample(range(1 << 12), 4)
        values = base + [v | 1 << 12 for v in base]  # four column-1 pairs
        for rows, bitset in ((values, True), (values[:7], False)):
            m = BooleanMatrix(
                col_count=13, rows=tuple(rows), row_labels=tuple(range(len(rows), 0, -1))
            )
            assert bitset_side(m) == bitset
            self.assert_matches(m)
            assert 1 in find_mandatory(m).columns

    def test_tall_matrix_with_many_pairs_in_one_column(self):
        # 500x18 on the bitset side, column 1 carrying 250 distance-1 pairs
        rng = random.Random(18)
        low = rng.sample(range(1 << 17), 250)
        rows = low + [v | 1 << 17 for v in low]
        rng.shuffle(rows)
        m = BooleanMatrix(col_count=18, rows=tuple(rows), row_labels=tuple(range(1, 501)))
        assert bitset_side(m)
        self.assert_matches(m)
        assert len(find_mandatory(m).witnesses[1]) == 250

    def test_seeded_random_stream(self):
        for seed in range(60):
            m = random_matrix(
                seed, rows=6 + seed % 10, cols=4 + seed % 5,
                density=(0.3, 0.5, 0.7)[seed % 3],
            )
            self.assert_matches(m)
            self.assert_matches(sort_rows_by_binary_value(m))

    def test_two_rows(self):
        self.assert_matches(parse_matrix("00\n01\n"))
        assert find_mandatory(parse_matrix("00\n01\n")).witnesses == {2: ((1, 2),)}

    def test_one_column(self):
        m = parse_matrix("1\n0\n")
        self.assert_matches(m)
        assert find_mandatory(m).witnesses == {1: ((1, 2),)}

    def test_no_mandatory_column(self):
        m = parse_matrix("000\n011\n101\n110\n")
        self.assert_matches(m)
        assert find_mandatory(m).columns == ()

    def test_every_column_mandatory(self):
        m = parse_matrix("1111\n0111\n1011\n1101\n1110\n0000\n")
        self.assert_matches(m)
        res = find_mandatory(m)
        assert res.columns == (1, 2, 3, 4)
        assert res.witnesses[3] == ((1, 4),)


class TestCandidatePairCount:
    @settings(max_examples=80, deadline=None)
    @given(matrices())
    def test_equals_pair_list_length(self, matrix):
        assert candidate_pair_count(matrix) == len(candidate_pairs(matrix))


class TestIsDeadendReference:
    @settings(max_examples=80, deadline=None)
    @given(matrices(max_cols=6, max_rows=10))
    def test_every_test_of_random_matrices(self, matrix):
        # every test of the matrix, dead-end or not
        for cols in all_tests(matrix):
            assert is_deadend(matrix, cols) == reference_is_deadend(matrix, cols)

    def test_seeded_dead_end_and_non_dead_end_tests(self):
        rng = random.Random(7)
        kinds = set()
        for seed in range(40):
            m = random_matrix(seed, rows=10, cols=7, density=(0.3, 0.5, 0.7)[seed % 3])
            m = sort_rows_by_binary_value(m)
            tests = list(all_tests(m))
            for cols in rng.sample(tests, min(12, len(tests))):
                check = is_deadend(m, cols)
                assert check == reference_is_deadend(m, cols)
                kinds.add(check.ok)
        assert kinds == {True, False}

    def test_fixture(self, q25):
        for cols in ((1, 2, 4, 5, 6, 8, 10), tuple(range(1, 11))):
            assert is_deadend(q25, cols) == reference_is_deadend(q25, cols)


class TestLocalDeadendReference:
    @settings(max_examples=100, deadline=None)
    @given(class_sets())
    def test_every_local_test_of_random_class_sets(self, class_set):
        for cols in all_local_tests(class_set):
            assert local_verdicts(class_set, cols) == [
                reference_local_deadend(class_set, cols)
            ] * 2

    def test_seeded_partitioned_matrices(self):
        kinds = set()
        for seed in range(40):
            m = random_matrix(seed, rows=14, cols=7, density=(0.3, 0.5, 0.7)[seed % 3])
            m = sort_rows_by_binary_value(m)
            partition = partition_by_mandatory(m, find_mandatory(m).columns)
            if not partition.classes:
                continue
            cs = class_views(m, partition)
            for cols in all_local_tests(cs):
                check = reference_local_deadend(cs, cols)
                assert local_verdicts(cs, cols) == [check] * 2
                kinds.add(check is None)
        assert kinds == {True, False}

    def test_fixture(self, m8):
        for cols in all_local_tests(m8):
            assert local_verdicts(m8, cols) == [reference_local_deadend(m8, cols)] * 2
