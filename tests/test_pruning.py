import math
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_matrix

from mintest import (
    BooleanMatrix,
    ClassSet,
    ClassView,
    bijective_column_pairs,
    class_views,
    cycle_costs,
    is_test,
    iter_subsets_colex,
    multiplicity_seeds,
    oracle_deadend_tests,
    parse_matrix,
    partition_by_mandatory,
    seed_masks,
    sort_rows_by_binary_value,
)
from reference import (
    all_k_subsets_fail,
    first_collision,
    is_local_test,
    residual_pairs_lower_bound,
)
from test_scan_kernel import paired_positions

KNOWN_SEED_TRIPLES = {
    (1, 2): (10, 14, 25),
    (1, 3): (3, 9, 13),
    (1, 6): (2, 19, 20),
    (2, 3): (6, 10, 25),
    (2, 6): (2, 7, 19),
    (2, 9): (2, 7, 21),
    (4, 6): (7, 19, 20),
    (4, 7): (7, 19, 20),
    (6, 7): (7, 19, 20),
}


@pytest.fixture(scope="module")
def q25_views(q25):
    s = sort_rows_by_binary_value(q25)
    return class_views(s, partition_by_mandatory(s, (5, 8, 10)))


def whole_matrix_views(matrix):
    part = partition_by_mandatory(matrix, ())
    return class_views(matrix, part, columns=range(1, matrix.col_count + 1))


class TestSubsetOrder:
    def test_colex_order(self):
        got = list(iter_subsets_colex((1, 2, 3, 4), 2))
        assert got == [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)]

    def test_edge_sizes(self):
        assert list(iter_subsets_colex((1, 2), 0)) == [()]
        assert list(iter_subsets_colex((1, 2), 3)) == []


def projects_identically(class_set, columns, class_name, rows):
    """True iff the given rows of the named class agree on the columns."""
    mask = class_set.mask(columns)
    view = next(v for v in class_set.classes if v.name == class_name)
    values = {row & mask for lab, row in zip(view.row_labels, view.rows) if lab in rows}
    return len(values) == 1


class TestIdenticalProjectionGroups:
    """The identical-projection rule: a set is a local test iff no two rows
    of one class project identically onto it."""

    def test_full_columns_no_groups(self, q25_views):
        assert first_collision(q25_views, q25_views.columns) is None

    def test_empty_iff_local_test(self, q25_views):
        for subset in iter_subsets_colex(q25_views.columns, 4):
            collision = first_collision(q25_views, subset)
            assert (collision is None) == is_local_test(q25_views, subset)
            if collision is not None:
                assert projects_identically(q25_views, subset, *collision)

    def test_matches_is_test_on_whole_matrix(self):
        for seed in range(15):
            m = random_matrix(seed, rows=7, cols=5)
            cs = whole_matrix_views(m)
            for subset in iter_subsets_colex(cs.columns, 2):
                assert is_local_test(cs, subset) == is_test(m, subset)
                assert (first_collision(cs, subset) is None) == is_test(m, subset)


class TestAllKSubsetsFail:
    def test_fixture_triples(self, q25_views):
        sweep = all_k_subsets_fail(q25_views, q25_views.columns, 3)
        assert sweep.all_fail
        assert len(sweep.witnesses) == math.comb(7, 3) == 35
        assert sweep.checked == 35
        # every witness really collides
        for subset, (cls_name, pair) in sweep.witnesses.items():
            assert projects_identically(q25_views, subset, cls_name, pair), subset

    def test_counterexample_when_test_exists(self, q25_views):
        sweep = all_k_subsets_fail(q25_views, q25_views.columns, 4)
        assert not sweep.all_fail
        assert sweep.counterexample == (1, 2, 4, 6)  # colex-first local test
        assert (sweep.checked, len(sweep.witnesses)) == (3, 2)

    def test_single_column_tests(self):
        m = parse_matrix("01\n10\n")
        cs = whole_matrix_views(m)
        sweep = all_k_subsets_fail(cs, cs.columns, 1)
        assert not sweep.all_fail

    def test_k_zero(self, q25_views):
        sweep = all_k_subsets_fail(q25_views, q25_views.columns, 0)
        assert sweep.all_fail
        assert () in sweep.witnesses


class TestMultiplicitySeeds:
    def test_known_entries_present_with_exact_triples(self, q25_views):
        seeds = multiplicity_seeds(q25_views, 2)
        found = {(g.columns, g.rows) for g in seeds}
        for pair, rows in KNOWN_SEED_TRIPLES.items():
            assert (pair, rows) in found, pair

    def test_all_entries_sound(self, q25_views):
        for g in multiplicity_seeds(q25_views, 2):
            mask = q25_views.mask(g.columns)
            view = next(v for v in q25_views.classes if v.name == g.class_name)
            values = {
                row & mask
                for lab, row in zip(view.row_labels, view.rows)
                if lab in g.rows
            }
            assert len(values) == 1
            assert g.multiplicity >= 3

    def test_residual_collisions_survive_any_extension(self, q25_views):
        # one extra column can separate at most floor(p^2/4) of the
        # p(p-1)/2 colliding pairs of a seed group
        for g in multiplicity_seeds(q25_views, 2):
            view = next(v for v in q25_views.classes if v.name == g.class_name)
            rows = {
                lab: row
                for lab, row in zip(view.row_labels, view.rows)
                if lab in g.rows
            }
            bound = residual_pairs_lower_bound(g.multiplicity)
            for extra in q25_views.columns:
                if extra in g.columns:
                    continue
                mask = q25_views.mask(g.columns + (extra,))
                values = [row & mask for row in rows.values()]
                colliding = sum(
                    1
                    for i in range(len(values))
                    for j in range(i + 1, len(values))
                    if values[i] == values[j]
                )
                assert colliding >= bound >= 1

    def test_two_row_classes_never_seed(self, m8):
        assert multiplicity_seeds(m8, 1) == ()
        assert multiplicity_seeds(m8, 2) == ()

    def test_groups_rows_for_the_seeds_alone(self, monkeypatch, q25_views):
        """The seeds come out in colex order without a walk over every
        k-subset."""
        import mintest.oracle as oracle
        import mintest.pruning as pruning
        from test_acceptance import SEED_TABLE
        from test_cli import Q25_SEEDS

        def refuse(items, k):
            raise AssertionError("walked every k-subset")

        assert not hasattr(pruning, "iter_subsets_colex")
        monkeypatch.setattr(oracle, "iter_subsets_colex", refuse)
        for size, pinned in Q25_SEEDS.items():
            seeds = multiplicity_seeds(q25_views, size)
            assert [(g.columns, g.class_name, g.rows) for g in seeds] == pinned
        found = {(g.columns, g.rows) for g in multiplicity_seeds(q25_views, 2)}
        assert set(SEED_TABLE.items()) <= found

    def test_largest_group_ties_go_to_smallest_labels(self):
        # column 1 splits the class into two groups of three; rows keep
        # their class order inside a group
        view = ClassView(
            name="M1",
            key=(),
            row_labels=(4, 5, 6, 1, 2, 3),
            rows=(0b000, 0b001, 0b010, 0b100, 0b101, 0b110),
        )
        cs = ClassSet(columns=(1, 2, 3), classes=(view,))
        assert [(g.columns, g.rows) for g in multiplicity_seeds(cs, 1)] == [
            ((1,), (1, 2, 3)),
            ((2,), (4, 5, 1, 2)),
            ((3,), (4, 6, 1, 3)),
        ]


def random_class_set(seed):
    """Rows of a seeded random matrix, classed by their first 0-2 columns."""
    m = sort_rows_by_binary_value(
        random_matrix(
            seed,
            rows=8 + seed % 13,
            cols=5 + seed % 4,
            density=(0.3, 0.5, 0.7)[seed % 3],
        )
    )
    return class_views(m, partition_by_mandatory(m, range(1, 1 + seed % 3)))


def reference_seed_masks(class_set, k):
    """Masks of the k-subsets leaving >= 3 equal projections in a class."""
    out = set()
    for subset in iter_subsets_colex(class_set.columns, k):
        mask = class_set.mask(subset)
        for view in class_set.classes:
            if max(Counter(row & mask for row in view.rows).values()) >= 3:
                out.add(mask)
                break
    return out


class TestSeedMasks:
    def test_matches_reference_on_random_class_sets(self):
        for seed in range(30):
            cs = random_class_set(seed)
            for k in range(len(cs.columns) + 1):
                assert seed_masks(cs, k) == reference_seed_masks(cs, k), (
                    seed,
                    k,
                )

    def test_fixture_matches_reference_and_seed_table(self, q25_views):
        for k in range(len(q25_views.columns) + 1):
            masks = seed_masks(q25_views, k)
            assert masks == reference_seed_masks(q25_views, k)
            assert masks == {
                q25_views.mask(g.columns) for g in multiplicity_seeds(q25_views, k)
            }

    def test_k_zero(self, q25_views, m8):
        assert seed_masks(q25_views, 0) == {0}
        assert seed_masks(m8, 0) == set()

    def test_k_width_and_beyond(self, q25_views):
        width = len(q25_views.columns)
        assert seed_masks(q25_views, width) == set()
        assert seed_masks(q25_views, width + 1) == set()
        assert seed_masks(q25_views, -1) == set()

    def test_no_class_of_three_rows(self, m8):
        assert max(v.size for v in m8.classes) < 3
        for k in range(len(m8.columns) + 1):
            assert seed_masks(m8, k) == set()


class TestResidualBound:
    @pytest.mark.parametrize("p,expected", [(2, 0), (3, 1), (4, 2), (5, 4), (6, 6)])
    def test_values(self, p, expected):
        assert residual_pairs_lower_bound(p) == expected


class TestBijectiveColumns:
    def test_complement_pair(self):
        m = parse_matrix("010\n101\n011\n")  # col2 = complement of col1
        assert (1, 2) in bijective_column_pairs(m)
        assert (1, 3) not in bijective_column_pairs(m)

    def test_equal_columns_detected(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            m = parse_matrix("00\n11\n")
        assert bijective_column_pairs(m) == ((1, 2),)

    def test_fixture_has_none(self, q25):
        assert bijective_column_pairs(q25) == ()

    def test_never_both_in_oracle_deadends(self):
        import warnings

        for seed in range(15):
            base = random_matrix(seed, rows=7, cols=5)
            # append the complement of column 2
            rows = []
            for lab in base.row_labels:
                bit = base.cell(lab, 2) ^ 1
                rows.append((base.bits(lab) << 1) | bit)
            if len(set(rows)) < len(rows):
                continue
            from mintest import BooleanMatrix

            m = BooleanMatrix(
                col_count=6, rows=tuple(rows), row_labels=base.row_labels
            )
            pairs = bijective_column_pairs(m)
            assert (2, 6) in pairs
            result = oracle_deadend_tests(m)
            for test in result.deadend_tests:
                for a, b in pairs:
                    assert not (a in test and b in test)

    def test_paired_view_columns_local_form(self, m8):
        # per-class pairing over the m8 views, as the search takes it
        w = len(m8.columns)
        pairs = paired_positions(m8)
        for ia, ib in pairs:
            for view in m8.classes:
                rel = {
                    ((r >> (w - 1 - ia)) & 1) ^ ((r >> (w - 1 - ib)) & 1)
                    for r in view.rows
                }
                assert len(rel) == 1


def draw_plant(draw, width):
    """None, or two distinct positions of width bits to pair."""
    if width < 2 or not draw(st.booleans()):
        return None
    return draw(st.lists(st.integers(0, width - 1), min_size=2, max_size=2, unique=True))


def plant(draw, rows, width, positions):
    """The rows with the bit at the second position set equal or
    complementary (polarity drawn) to the bit at the first; repeats are
    dropped, first kept."""
    if positions is None:
        return rows
    si, sj = (width - 1 - p for p in positions)
    flip = draw(st.integers(0, 1))
    planted = [row & ~(1 << sj) | ((row >> si & 1) ^ flip) << sj for row in rows]
    return list(dict.fromkeys(planted))


def distinct_rows(draw, width, max_size):
    return draw(
        st.lists(
            st.integers(0, (1 << width) - 1),
            min_size=1,
            max_size=min(max_size, 1 << width),
            unique=True,
        )
    )


@st.composite
def pairing_class_sets(draw):
    """Class sets of 0-4 classes of 1-6 distinct rows over 0-7 view
    columns in any label order; in some, one column pair is planted in
    every class, each class drawing its own polarity."""
    width = draw(st.integers(0, 7))
    labels = st.lists(st.integers(1, 12), min_size=width, max_size=width, unique=True)
    columns = tuple(draw(labels))
    positions = draw_plant(draw, width)
    views = []
    label = 1
    for i in range(draw(st.integers(0, 4))):
        rows = plant(draw, distinct_rows(draw, width, 6), width, positions)
        labels = tuple(range(label, label + len(rows)))
        views.append(ClassView(f"M{i + 1}", (), labels, tuple(rows)))
        label += len(rows)
    return ClassSet(columns=columns, classes=tuple(views))


@st.composite
def pairing_matrices(draw):
    """Matrices of 1-8 distinct rows over 1-7 columns, some with a
    planted equal or complementary column pair."""
    width = draw(st.integers(1, 7))
    rows = distinct_rows(draw, width, 8)
    rows = plant(draw, rows, width, draw_plant(draw, width))
    return BooleanMatrix(
        col_count=width, rows=tuple(rows), row_labels=tuple(range(1, len(rows) + 1))
    )


class TestPairedColumnsDefinition:
    """The paired columns of a class set, as the search takes them, and of
    a whole matrix against their definitions."""

    @settings(max_examples=300, deadline=None)
    @given(pairing_class_sets())
    def test_paired_view_columns(self, class_set):
        width = len(class_set.columns)

        def relations(view, i, j):
            return {(r >> (width - 1 - i) ^ r >> (width - 1 - j)) & 1 for r in view.rows}

        want = [
            (i, j)
            for i, j in combinations(range(width), 2)
            if all(len(relations(view, i, j)) == 1 for view in class_set.classes)
        ]
        assert paired_positions(class_set) == want

    @settings(max_examples=300, deadline=None)
    @given(pairing_matrices())
    def test_bijective_column_pairs(self, matrix):
        n = matrix.col_count
        columns = [[r >> (n - c) & 1 for r in matrix.rows] for c in range(1, n + 1)]
        want = tuple(
            (a + 1, b + 1)
            for a, b in combinations(range(n), 2)
            if columns[a] == columns[b] or columns[a] == [1 - x for x in columns[b]]
        )
        assert bijective_column_pairs(matrix) == want


class TestCycleCosts:
    def test_direct_strategy_example(self):
        cost = cycle_costs(k=3, p=2, n=10, t_ob=3, t0=7)
        assert cost.z1 == 6 * math.comb(7, 3) == 210

    def test_seed_strategy_example(self):
        cost = cycle_costs(k=2, p=3, n=10, t_ob=3, t0=7)
        assert cost.z2 == 6 * math.comb(7, 2) == 126
        assert cost.chosen == "z2"

    def test_undefined_second_strategy_is_infinite(self):
        cost = cycle_costs(k=1, p=2, n=8, t_ob=3, t0=4)  # t0 - t_ob = 1
        assert cost.z2 == math.inf
        assert cost.chosen == "z1"

    def test_tie_prefers_direct(self):
        cost = cycle_costs(k=1, p=1, n=4, t_ob=0, t0=0)
        assert cost.z1 == cost.z2 == math.inf
        assert cost.chosen == "z1"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            cycle_costs(k=-1, p=2, n=10, t_ob=3, t0=7)
        with pytest.raises(ValueError):
            cycle_costs(k=1, p=2, n=2, t_ob=3, t0=7)
