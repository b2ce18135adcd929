import pytest
from hypothesis import given, settings, strategies as st

from conftest import Q25_UNDISTINGUISHED, random_matrix

from mintest import (
    BooleanMatrix,
    ClassSet,
    ClassView,
    ColumnPairStats,
    class_views,
    column_pair_stats,
    estimate_length,
    integral_length,
    parse_class_set,
    parse_matrix,
    partition_by_mandatory,
    sort_rows_by_binary_value,
    union_pair_stats,
)


class TestColumnPairStats:
    def test_fixture_values(self, q25):
        stats = column_pair_stats(q25)
        assert stats.total_pairs == 300
        assert stats.undistinguished == Q25_UNDISTINGUISHED
        assert stats.ones[0] == 10  # column 1
        assert stats.ones[9] == 15  # column 10

    def test_constant_column_distinguishes_nothing(self):
        m = parse_matrix("00\n01\n10\n")
        stats = column_pair_stats(m)
        assert stats.total_pairs == 3
        # neither column is constant here; append a constant one
        m2 = parse_matrix("000\n010\n100\n")
        stats2 = column_pair_stats(m2)
        assert stats2.undistinguished[2] == stats2.total_pairs

    def test_union_stats_for_two_largest_classes(self, q25):
        s = sort_rows_by_binary_value(q25)
        cs = class_views(s, partition_by_mandatory(s, (5, 8, 10)))
        stats = union_pair_stats(cs)  # default: two largest = Q2, Q3
        assert stats.row_count == 10
        assert stats.total_pairs == 45
        by_col = dict(zip(stats.columns, stats.undistinguished))
        assert by_col == {1: 20, 2: 29, 3: 20, 4: 20, 6: 24, 7: 21, 9: 20}

    def test_single_row_rejected(self):
        m = BooleanMatrix(col_count=2, rows=(0b01,), row_labels=(1,))
        with pytest.raises(ValueError):
            column_pair_stats(m)

    def test_union_of_one_row_rejected(self):
        cs = parse_class_set("columns: 1 2\nclass\n1: 01\n")
        with pytest.raises(ValueError, match="^class union needs at least two rows$"):
            union_pair_stats(cs)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 70), st.data())
    def test_analytic_equals_brute_force(self, n, data):
        # The first `zeros` columns are all zero, so every row needs
        # padding to its width; rows number 2 and up.
        zeros = data.draw(st.integers(0, n - 1))
        count = data.draw(st.integers(2, min(20, 1 << (n - zeros))))
        values = data.draw(
            st.lists(
                st.integers(0, (1 << (n - zeros)) - 1),
                min_size=count,
                max_size=count,
                unique=True,
            )
        )
        m = BooleanMatrix(
            col_count=n, rows=tuple(values), row_labels=tuple(range(1, len(values) + 1))
        )
        brute = [
            sum(
                1
                for i, a in enumerate(m.row_labels)
                for b in m.row_labels[i + 1 :]
                if m.cell(a, col) == m.cell(b, col)
            )
            for col in range(1, n + 1)
        ]
        assert column_pair_stats(m).undistinguished == tuple(brute)
        # The same rows as the union of two classes of a class set.
        split = data.draw(st.integers(1, count - 1))
        halves = (tuple(values[:split]), tuple(values[split:]))
        cs = ClassSet(
            columns=tuple(range(1, n + 1)),
            classes=tuple(
                ClassView(name=f"M{i}", key=(), row_labels=(), rows=rows)
                for i, rows in enumerate(halves, 1)
            ),
        )
        union = union_pair_stats(cs)
        assert union.undistinguished == tuple(brute)
        ones = tuple(sum(v >> (n - c) & 1 for v in values) for c in union.columns)
        assert union.ones == ones


class TestEstimateLength:
    def test_fixture_global(self, q25):
        est = estimate_length(column_pair_stats(q25))
        assert est.t0 == 7
        assert not est.degenerate
        assert est.beta_t == pytest.approx(0.0068211, abs=1e-6)
        assert est.beta_next == pytest.approx(0.0032741, abs=1e-6)
        assert est.sorted_columns == (7, 9, 4, 5, 1, 8, 10, 6, 2, 3)

    def test_fixture_local(self, q25):
        s = sort_rows_by_binary_value(q25)
        cs = class_views(s, partition_by_mandatory(s, (5, 8, 10)))
        est = estimate_length(union_pair_stats(cs))
        assert est.t0 == 4
        assert est.beta_t == pytest.approx(0.0390, abs=1e-4)
        assert est.beta_next == pytest.approx(0.01734, abs=1e-4)
        assert est.threshold == pytest.approx(1 / 45)

    def test_two_row_matrix_degenerate(self):
        est = estimate_length(column_pair_stats(parse_matrix("0\n1\n")))
        assert est.t0 == 1
        assert est.degenerate

    @pytest.mark.parametrize(
        "columns,total_pairs,undistinguished,message",
        [
            ((1,), 0, (0,), "need at least one row pair"),
            ((), 1, (), "no column distinguishes any pair"),
            ((1, 2), 3, (3, 3), "no column distinguishes any pair"),
        ],
    )
    def test_refuses_stats_without_a_bracket(
        self, columns, total_pairs, undistinguished, message
    ):
        stats = ColumnPairStats(
            columns=columns,
            row_count=3,
            total_pairs=total_pairs,
            ones=(0,) * len(columns),
            zeros=(3,) * len(columns),
            distinguished=(0,) * len(columns),
            undistinguished=undistinguished,
        )
        with pytest.raises(ValueError, match=f"^{message}$"):
            estimate_length(stats)

    def test_beta_strictly_decreasing(self, q25):
        est = estimate_length(column_pair_stats(q25))
        assert list(est.beta_sequence) == sorted(est.beta_sequence, reverse=True)
        assert all(0 < b <= 1 for b in est.beta_sequence)

    def test_bracket_invariant(self, q25):
        est = estimate_length(column_pair_stats(q25))
        assert est.beta_t > est.threshold >= est.beta_next
        assert 0 < est.beta_next < est.beta_t <= 1

    def test_row_permutation_invariance(self):
        for seed in range(10):
            m = random_matrix(seed, rows=10, cols=8)
            s = sort_rows_by_binary_value(m)
            a = estimate_length(column_pair_stats(m))
            b = estimate_length(column_pair_stats(s))
            assert (a.t0, a.beta_t) == (b.t0, b.beta_t)

    def test_column_permutation_invariance(self):
        m = parse_matrix("0011\n0101\n1001\n1110\n")
        perm = parse_matrix("1100\n1010\n1001\n0111\n")  # columns reversed
        a = estimate_length(column_pair_stats(m))
        b = estimate_length(column_pair_stats(perm))
        assert (a.t0, a.beta_t, a.ratio_list) == (b.t0, b.beta_t, b.ratio_list)


class TestIntegralLength:
    @pytest.mark.parametrize(
        "mand,local,expected", [(6, 2, 8), (3, 4, 7), (0, 5, 5), (4, 0, 4)]
    )
    def test_table(self, mand, local, expected):
        assert integral_length(mand, local) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            integral_length(-1, 2)
