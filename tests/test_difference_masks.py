"""The minimal within-class row differences against the row-level checks.

A column set is a local test iff it meets every within-class difference
a ^ b, and a column of a local test separates some pair alone iff the
test meets some minimal difference in that column only.  These tests pin
ClassSet.difference_masks to its definition, and the decisions read off
them (reference.is_local_test, the search's dead-end verdict in both its
forms) to reference.first_collision and the group-by reference of
test_flip_probe on every column subset.
"""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from mintest import (
    ClassSet,
    ClassView,
    class_views,
    parse_class_set,
    partition_by_mandatory,
)
from reference import first_collision, is_local_test
from test_flip_probe import local_verdicts, reference_local_deadend


def make_class_set(rng, width, sizes):
    """Classes of distinct random rows over view columns 1..width."""
    views = []
    label = 1
    for i, size in enumerate(sizes):
        rows = rng.sample(range(1 << width), size)
        views.append(
            ClassView(
                name=f"M{i + 1}",
                key=(),
                row_labels=tuple(range(label, label + size)),
                rows=tuple(rows),
            )
        )
        label += size
    return ClassSet(columns=tuple(range(1, width + 1)), classes=tuple(views))


def seeded_class_sets():
    """One large class, many 3-6-row classes and many 2-row classes."""
    out = []
    for seed in range(8):
        rng = random.Random(seed)
        out.append(make_class_set(rng, 7, [rng.randint(20, 40)]))
        out.append(make_class_set(rng, 7, [rng.randint(3, 6) for _ in range(10)]))
        out.append(make_class_set(rng, 6, [2] * rng.randint(5, 12)))
    return out


SEEDED = seeded_class_sets()


CLASS_SET_FILE = """\
columns: 2 4 7 9 11
mandatory: 1 3
parent-rows: 30
class 00
1: 10110
2: 01101
3: 11100
4: 00011
class 01
5: 10110
6: 10111
class 11
7: 00000
8: 11111
9: 01010
"""


def pair_differences(class_set):
    return {
        a ^ b
        for view in class_set.classes
        for a, b in combinations(view.rows, 2)
    }


def all_subsets(class_set):
    for k in range(len(class_set.columns) + 1):
        yield from combinations(class_set.columns, k)


def assert_masks_are_minimal_differences(class_set):
    masks = class_set.difference_masks
    diffs = pair_differences(class_set)
    assert list(masks) == sorted(masks, key=lambda m: (m.bit_count(), m))
    for a, b in combinations(masks, 2):
        assert a & b != a and a & b != b  # an antichain
    assert set(masks) <= diffs
    for d in diffs:
        assert any(m & d == m for m in masks)


def assert_decisions_agree(class_set):
    """Returns the dead-end verdicts seen (True, False or both)."""
    kinds = set()
    for cols in all_subsets(class_set):
        test = is_local_test(class_set, cols)
        assert test == (first_collision(class_set, cols) is None), cols
        if test:
            verdict = reference_local_deadend(class_set, cols)
            assert local_verdicts(class_set, cols) == [verdict] * 2, cols
            kinds.add(verdict is None)
    return kinds


@pytest.fixture(scope="module")
def class_set_file():
    return parse_class_set(CLASS_SET_FILE)


class TestDifferenceMasks:
    @pytest.mark.parametrize("index", range(len(SEEDED)))
    def test_seeded_class_sets(self, index):
        assert_masks_are_minimal_differences(SEEDED[index])

    def test_class_set_files(self, class_set_file, m8):
        for cs in (class_set_file, m8):
            assert_masks_are_minimal_differences(cs)

    def test_single_pair_is_its_own_mask(self):
        cs = make_class_set(random.Random(0), 4, [2])
        (view,) = cs.classes
        assert cs.difference_masks == (view.rows[0] ^ view.rows[1],)

    def test_identical_projection_leaves_only_zero(self, q25):
        # q25's classes projected onto two columns: some rows coincide
        partition = partition_by_mandatory(q25, (5, 8, 10))
        cs = class_views(q25, partition, columns=(1, 2))
        assert cs.difference_masks == (0,)
        assert not any(is_local_test(cs, cols) for cols in all_subsets(cs))
        assert all(first_collision(cs, cols) for cols in all_subsets(cs))


class TestDecisionsAgree:
    def test_seeded_class_sets(self):
        kinds = set()
        for cs in SEEDED:
            kinds |= assert_decisions_agree(cs)
        assert kinds == {True, False}

    def test_class_set_files(self, class_set_file, m8):
        kinds = assert_decisions_agree(class_set_file) | assert_decisions_agree(m8)
        assert kinds == {True, False}

    def test_partitioned_fixture(self, q25):
        cs = class_views(q25, partition_by_mandatory(q25, (5, 8, 10)))
        assert assert_decisions_agree(cs) == {True, False}


@st.composite
def class_sets(draw, max_width=6):
    """Classes of distinct rows over a shared view, labels unique overall."""
    width = draw(st.integers(1, max_width))
    columns = tuple(
        sorted(draw(st.sets(st.integers(1, 12), min_size=width, max_size=width)))
    )
    sizes = draw(st.lists(st.integers(2, min(8, 1 << width)), min_size=1, max_size=5))
    views = []
    label = 1
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
                row_labels=tuple(range(label, label + size)),
                rows=tuple(rows),
            )
        )
        label += size
    return ClassSet(columns=columns, classes=tuple(views))


class TestHypothesis:
    @settings(max_examples=150, deadline=None)
    @given(class_sets())
    def test_masks_and_decisions(self, class_set):
        assert_masks_are_minimal_differences(class_set)
        assert_decisions_agree(class_set)
