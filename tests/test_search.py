import json
import random
from collections import Counter
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from conftest import Q25_MINIMAL_TESTS, random_matrix, wide_matrix_lines
from reference import deadend_reduce, labels
from test_search_pins import PINS, TOGGLES

import mintest.search
from mintest import (
    BooleanMatrix,
    ClassSet,
    ClassView,
    SearchCeilingError,
    SearchConfig,
    SearchStats,
    enumerate_local_minimal_tests,
    enumerate_minimal_tests,
    find_mandatory,
    is_deadend,
    is_test,
    oracle_deadend_tests,
    oracle_minimal_tests,
    parse_matrix,
    verify_test,
)

Q25_FULL_TEST = (1, 2, 4, 5, 6, 8, 10)


class TestIsDeadend:
    def test_fixture_witnesses(self, q25):
        check = is_deadend(q25, Q25_FULL_TEST)
        assert check.ok
        assert check.redundant is None
        witnesses = dict(check.witnesses)
        assert witnesses[6] == (10, 25)
        assert witnesses[1] == (7, 19)
        assert len(check.witnesses) == 7

    def test_witness_property(self, q25):
        # each witness pair is separated by its column and nothing else in T
        mask = q25.column_mask(Q25_FULL_TEST)
        check = is_deadend(q25, Q25_FULL_TEST)
        for col, (a, b) in check.witnesses:
            diff = q25.bits(a) ^ q25.bits(b)
            assert diff & mask == q25.column_mask((col,))

    def test_trivial_matrix(self, tiny3x2):
        check = is_deadend(tiny3x2, (1, 2))
        assert check.ok

    def test_extra_column_detected(self, q25):
        check = is_deadend(q25, tuple(range(1, 11)))
        assert not check.ok
        assert check.redundant is not None
        assert is_test(q25, tuple(c for c in range(1, 11) if c != check.redundant))

    def test_requires_a_test(self, q25):
        with pytest.raises(ValueError):
            is_deadend(q25, (5, 8, 10))

    def test_oracle_deadends_pass(self):
        for seed in range(10):
            m = random_matrix(seed, rows=8, cols=6)
            result = oracle_deadend_tests(m)
            for t in result.deadend_tests:
                assert is_deadend(m, t).ok
            # padding any dead-end test with a new column breaks irredundancy
            for t in result.deadend_tests[:3]:
                others = [c for c in range(1, 7) if c not in t]
                if others:
                    assert not is_deadend(m, t + (others[0],)).ok


class TestDeadendReduce:
    def test_full_columns_fixture(self, q25):
        reduced = deadend_reduce(q25, tuple(range(1, 11)))
        assert set((5, 8, 10)) <= set(reduced)
        assert is_deadend(q25, reduced).ok

    def test_minimal_unchanged(self, q25):
        assert deadend_reduce(q25, Q25_FULL_TEST) == Q25_FULL_TEST

    def test_tiny_unchanged(self, tiny3x2):
        assert deadend_reduce(tiny3x2, (1, 2)) == (1, 2)

    def test_reduction_yields_oracle_deadend(self):
        for seed in range(10):
            m = random_matrix(seed, rows=8, cols=6)
            reduced = deadend_reduce(m, tuple(range(1, 7)))
            oracle = oracle_deadend_tests(m)
            assert reduced in oracle.deadend_tests


class TestEnumerate:
    def test_fixture_complete(self, q25):
        report = enumerate_minimal_tests(q25)
        assert report.minimal_length == 7
        assert list(report.minimal_tests) == Q25_MINIMAL_TESTS
        assert all(report.deadend_verified)
        assert report.mandatory == (5, 8, 10)
        assert report.local_heuristic.t0 == 4
        assert report.heuristic.t0 == 7
        assert report.estimate_initial == 7
        assert report.corrections == ()

    def test_fixture_witnesses_match(self, q25):
        report = enumerate_minimal_tests(q25)
        first = report.minimal_tests[0]
        assert first == (1, 2, 4, 5, 6, 8, 10)
        witnesses = dict(report.witnesses[0])
        assert witnesses[6] == (10, 25)

    def test_unpruned_candidate_count(self, q25):
        config = SearchConfig(seed_prune=False, pair_prune=False)
        report = enumerate_minimal_tests(q25, config)
        # 35 quadruples checked, 26 rejected, 9 accepted
        assert report.stats.candidates_checked == 35
        assert len(report.minimal_tests) == 9

    def test_two_by_one(self):
        report = enumerate_minimal_tests(parse_matrix("0\n1\n"))
        assert report.minimal_length == 1
        assert report.minimal_tests == ((1,),)

    def test_mandatory_only_matrix(self):
        # rows pairwise separated by mandatory columns alone
        m = parse_matrix("00\n01\n10\n11\n")
        report = enumerate_minimal_tests(m)
        assert report.minimal_tests == ((1, 2),)
        assert report.stats.class_count == 0

    def test_single_row_is_the_oracle_answer(self):
        """One row: the empty test of length 0, with no whole-matrix
        estimate, as the oracle answers."""
        for text in ("01", "0", "10" * 11):
            matrix = parse_matrix(text)
            report = enumerate_minimal_tests(matrix)
            oracle = oracle_minimal_tests(matrix)
            assert (report.minimal_length, report.minimal_tests) == (
                oracle.min_length, oracle.minimal_tests
            ) == (0, ((),))
            assert report.deadend_verified == (True,)
            assert (report.heuristic, report.local_heuristic) == (None, None)

    def test_first_only(self, q25):
        report = enumerate_minimal_tests(q25, SearchConfig(first_only=True))
        assert report.minimal_length == 7
        assert report.minimal_tests == (Q25_MINIMAL_TESTS[0],)

    def test_no_heuristic_same_result(self, q25):
        report = enumerate_minimal_tests(q25, SearchConfig(use_heuristic=False))
        assert list(report.minimal_tests) == Q25_MINIMAL_TESTS
        assert report.estimate_initial is None

    @pytest.fixture
    def no_scan(self, monkeypatch):
        def scan(*args, **kwargs):
            raise AssertionError("scanned past the ceiling")

        monkeypatch.setattr(mintest.search, "_scan_size", scan)

    def test_ceiling_without_heuristic(self, no_scan):
        m = random_matrix(3, rows=3, cols=23)
        with pytest.raises(SearchCeilingError, match="23 columns exceed the ceiling of 22"):
            enumerate_minimal_tests(m, SearchConfig(use_heuristic=False))

    def test_class_set_ceiling_without_heuristic(self, no_scan):
        view = ClassView(name="M1", key=(), row_labels=(1, 2), rows=(0, 1))
        wide = ClassSet(columns=tuple(range(1, 24)), classes=(view,))
        with pytest.raises(SearchCeilingError, match="23 columns exceed"):
            enumerate_local_minimal_tests(wide, SearchConfig(use_heuristic=False))

    def test_ceiling_counts_free_columns(self):
        """The heuristic-free ceiling applies to the columns left after the
        mandatory ones: 24 columns, 2 mandatory, 22 free, is searched."""
        m = BooleanMatrix.from_strings(wide_matrix_lines())
        default = enumerate_minimal_tests(m)
        bare = enumerate_minimal_tests(m, SearchConfig(use_heuristic=False))
        assert default.mandatory == (1, 2)
        assert len(default.minimal_tests) == 91
        assert bare.minimal_length == default.minimal_length == 5
        assert bare.minimal_tests == default.minimal_tests

    def test_no_heuristic_class_set_without_pairs(self, no_scan):
        """Two one-row classes over 23 columns leave nothing to separate:
        the empty local test, with no search and so no ceiling."""
        singles = tuple(
            ClassView(name=f"M{i}", key=(i - 1,), row_labels=(i,), rows=(i,))
            for i in (1, 2)
        )
        wide = ClassSet(columns=tuple(range(1, 24)), classes=singles)
        report = enumerate_local_minimal_tests(wide, SearchConfig(use_heuristic=False))
        assert (report.local_length, report.local_tests) == (0, ((),))

    def test_no_heuristic_named_start_is_searched(self):
        """The ceiling guards the start at 1 for want of an estimate, not
        a named start: 23 free columns from length 5 give the answer the
        heuristic run from length 5 gives."""
        m = random_matrix(3, rows=12, cols=23)
        named = enumerate_minimal_tests(m, SearchConfig(initial_length=5))
        bare = enumerate_minimal_tests(
            m, SearchConfig(use_heuristic=False, initial_length=5)
        )
        assert (named.minimal_length, len(named.minimal_tests)) == (4, 41)
        assert bare.minimal_tests == named.minimal_tests

    def test_negative_initial_length_refused(self):
        with pytest.raises(ValueError, match="initial_length"):
            SearchConfig(initial_length=-1)
        assert SearchConfig(initial_length=0).initial_length == 0

    def test_narrow_class_set_without_heuristic(self, m8):
        report = enumerate_local_minimal_tests(m8, SearchConfig(use_heuristic=False))
        assert report.local_length == 2

    @pytest.mark.parametrize("seed_prune", [True, False])
    @pytest.mark.parametrize("pair_prune", [True, False])
    def test_pruning_toggles_equivalent(self, q25, seed_prune, pair_prune):
        config = SearchConfig(seed_prune=seed_prune, pair_prune=pair_prune)
        report = enumerate_minimal_tests(q25, config)
        assert list(report.minimal_tests) == Q25_MINIMAL_TESTS

    def test_byte_identical_reports(self, q25):
        a = enumerate_minimal_tests(q25).to_json()
        b = enumerate_minimal_tests(q25).to_json()
        assert a == b
        json.loads(a)  # valid JSON

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_report_ignores_row_order(self, seed):
        matrix = random_matrix(seed, rows=14, cols=8)
        order = list(range(matrix.row_count))
        random.Random(seed).shuffle(order)
        shuffled = BooleanMatrix(
            col_count=matrix.col_count,
            rows=tuple(matrix.rows[i] for i in order),
            row_labels=tuple(matrix.row_labels[i] for i in order),
        )
        assert shuffled.rows != matrix.rows
        report = enumerate_minimal_tests(matrix)
        assert report.partition.classes
        assert enumerate_minimal_tests(shuffled).to_json() == report.to_json()


class TestCorrections:
    def test_overshoot_corrects_down(self, q25):
        report = enumerate_minimal_tests(q25, SearchConfig(initial_length=6))
        assert report.minimal_length == 7
        assert list(report.minimal_tests) == Q25_MINIMAL_TESTS
        assert report.corrections
        assert report.corrections[0].old_length == 9  # 3 mandatory + 6 local
        assert report.corrections[-1].new_length == 7

    def test_undershoot_corrects_up(self, q25):
        report = enumerate_minimal_tests(q25, SearchConfig(initial_length=2))
        assert report.minimal_length == 7
        assert list(report.minimal_tests) == Q25_MINIMAL_TESTS
        lengths = [c.new_length for c in report.corrections]
        assert lengths == [6, 7]  # integral sizes 5 -> 6 -> 7

    def test_lengths_visited_recorded(self, q25):
        report = enumerate_minimal_tests(q25, SearchConfig(initial_length=2))
        assert report.stats.lengths_visited == (2, 3, 4)

    def test_termination_bound(self):
        for seed in range(25):
            m = random_matrix(seed, rows=10, cols=8)
            for start in (1, 4, 8):
                report = enumerate_minimal_tests(
                    m, SearchConfig(initial_length=start)
                )
                assert len(report.stats.lengths_visited) <= 10
                assert (
                    oracle_minimal_tests(m).minimal_tests == report.minimal_tests
                )


class TestDeadendChecksOnce:
    @pytest.mark.parametrize("case", list(PINS), ids=str)
    def test_no_columns_checked_twice(self, case, monkeypatch):
        seed, rows, cols, density, initial_length, first_only = case
        matrix = random_matrix(seed, rows=rows, cols=cols, density=density)
        real = mintest.search._local_verdict
        calls = Counter()

        def counting(class_set, mask):
            calls[mask] += 1
            return real(class_set, mask)

        monkeypatch.setattr(mintest.search, "_local_verdict", counting)
        for seed_prune, pair_prune in TOGGLES:
            calls.clear()
            config = SearchConfig(
                seed_prune=seed_prune,
                pair_prune=pair_prune,
                initial_length=initial_length,
                first_only=first_only,
            )
            enumerate_minimal_tests(matrix, config)
            repeated = {c: n for c, n in calls.items() if n > 1}
            assert not repeated, (seed_prune, pair_prune, repeated)


class TestLocalEnumeration:
    def test_m8_fixture(self, m8):
        report = enumerate_local_minimal_tests(m8)
        assert report.local_length == 2
        assert report.local_tests == ((1, 5), (1, 9), (5, 8), (8, 9))
        assert report.integral_length == 8
        assert report.integral_tests == (
            (1, 2, 3, 4, 5, 6, 7, 10),
            (1, 2, 3, 4, 6, 7, 9, 10),
            (2, 3, 4, 5, 6, 7, 8, 10),
            (2, 3, 4, 6, 7, 8, 9, 10),
        )
        assert report.within_pair_total == 8
        assert report.parent_pair_total == 1225

    def test_m8_failing_pairs(self, m8):
        from mintest import iter_subsets_colex
        from reference import is_local_test

        failing = [
            p for p in iter_subsets_colex(m8.columns, 2) if not is_local_test(m8, p)
        ]
        assert sorted(failing) == [(1, 8), (5, 9)]

    @pytest.mark.parametrize(
        "config",
        [
            SearchConfig(),
            SearchConfig(use_heuristic=False),
            SearchConfig(initial_length=3),
            SearchConfig(first_only=True),
            SearchConfig(seed_prune=False, pair_prune=False),
        ],
        ids=["default", "no-heuristic", "initial-3", "first-only", "unpruned"],
    )
    @pytest.mark.parametrize(
        "rows",
        [((0b01,),), ((0b01,), (0b01,)), ((0b01,), (0b10,)), ()],
        ids=["one-row", "same-row-twice", "two-rows", "no-classes"],
    )
    def test_nothing_to_separate(self, rows, config):
        """Without a class of two rows the empty local test is the answer,
        the same under every configuration."""
        classes = tuple(
            ClassView(name=f"Q{i}", key=(i,), row_labels=(i,), rows=r)
            for i, r in enumerate(rows, start=1)
        )
        class_set = ClassSet(columns=(1, 2), classes=classes, mandatory=(3,))
        report = enumerate_local_minimal_tests(class_set, config)
        assert report.local_length == 0
        assert report.local_tests == ((),)
        assert report.integral_length == 1
        assert report.integral_tests == ((3,),)
        assert report.estimate is None
        assert report.corrections == ()
        assert report.stats == SearchStats(class_count=len(classes))

    def test_local_deadend_reduce(self, m8):
        # the reduction the correction loop applies to a jump target
        verdict = partial(mintest.search._local_verdict, m8)
        target = m8.mask((1, 5, 8, 9))
        while (bit := verdict(target)) is not None:
            target ^= bit
        assert labels(m8, target) == (1, 5)
        assert verdict(m8.mask((1, 5))) is None


@st.composite
def verify_cases(draw):
    """A matrix of distinct rows over up to 10 columns, one of its minimal
    tests and, unless that test is every column, the test with one more
    column."""
    n = draw(st.integers(1, 10))
    rows = draw(
        st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=16, unique=True)
    )
    matrix = BooleanMatrix(
        col_count=n, rows=tuple(rows), row_labels=tuple(range(1, len(rows) + 1))
    )
    minimal = draw(st.sampled_from(oracle_minimal_tests(matrix).minimal_tests))
    rest = [c for c in range(1, n + 1) if c not in minimal]
    longer = tuple(sorted(minimal + (draw(st.sampled_from(rest)),))) if rest else None
    return matrix, minimal, longer


class TestVerify:
    def test_minimal_test(self, q25):
        v = verify_test(q25, Q25_FULL_TEST)
        assert (v.test, v.deadend, v.minimal) == (True, True, "yes")
        assert v.min_length == 7

    def test_non_test(self, q25):
        v = verify_test(q25, (5, 8, 10))
        assert not v.test
        assert v.minimal == "no"

    def test_full_columns(self, q25):
        v = verify_test(q25, range(1, 11))
        assert v.test
        assert v.deadend is False
        assert v.minimal == "no"

    def test_one_row_above_the_oracle_ceiling(self, monkeypatch):
        """One row: the empty set is the one minimal test, answered with
        no estimate."""

        def refuse(*args, **kwargs):
            raise AssertionError("called for a one-row matrix")

        monkeypatch.setattr(mintest.search, "column_pair_stats", refuse)
        one = parse_matrix("01" * 11 + "0")
        assert one.col_count == 23
        v = verify_test(one, (1,))
        assert (v.test, v.deadend, v.minimal, v.min_length) == (True, False, "no", 0)
        v = verify_test(one, ())
        assert (v.test, v.deadend, v.minimal, v.min_length) == (True, True, "yes", 0)

    def test_wide_matrix_is_decided(self):
        """24 columns, past the oracle's ceiling: the search decides."""
        m = BooleanMatrix.from_strings(wide_matrix_lines())
        listed = enumerate_minimal_tests(m).minimal_tests
        assert len(listed) == 91
        for test in (listed[0], listed[-1]):
            v = verify_test(m, test)
            assert (v.test, v.deadend, v.minimal, v.min_length) == (True, True, "yes", 5)
        v = verify_test(m, range(1, 25))
        assert (v.test, v.deadend, v.minimal, v.min_length) == (True, False, "no", 5)

    @settings(max_examples=120, deadline=None)
    @given(verify_cases())
    def test_min_length_is_the_oracle_length(self, case):
        matrix, minimal, longer = case
        length = oracle_minimal_tests(matrix).min_length
        v = verify_test(matrix, minimal)
        assert (v.test, v.minimal, v.min_length) == (True, "yes", length)
        if longer is not None:
            v = verify_test(matrix, longer)
            assert (v.test, v.minimal, v.min_length) == (True, "no", length)


class TestExactnessStream:
    def test_search_equals_oracle_with_every_toggle(self):
        configs = [
            SearchConfig(seed_prune=s, pair_prune=p)
            for s in (True, False)
            for p in (True, False)
        ]
        for seed in range(40):
            m = random_matrix(seed, rows=9, cols=7, density=(0.3, 0.5, 0.7)[seed % 3])
            oracle = oracle_minimal_tests(m)
            for config in configs:
                report = enumerate_minimal_tests(m, config)
                assert report.minimal_tests == oracle.minimal_tests
                assert report.minimal_length == oracle.min_length
                mand = set(find_mandatory(m).columns)
                for t, ok in zip(report.minimal_tests, report.deadend_verified):
                    assert ok
                    assert mand <= set(t)
