"""The subset-lattice path of the search against its definitions and
against the rank-set kernel.

On a view of w <= pruning._LATTICE_WIDTH columns, bit x of a 2^w-bit int
stands for the column subset with view mask x.  pruning._lattice holds
the per-width tables; ClassSet.non_tests and ClassSet.seed_up are the
set families the scan and the dead-end verdict read.  Forcing
pruning._LATTICE_WIDTH = 0 sends every class set to the rank-set kernel,
which must give byte-identical reports.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_matrix

import mintest.pruning as pruning
from mintest import (
    ClassSet,
    ClassView,
    SearchConfig,
    enumerate_local_minimal_tests,
    enumerate_minimal_tests,
    iter_subsets_colex,
)
from mintest.pruning import _colex_masks, _lattice, _local_verdict

from reference import is_local_test
from test_difference_masks import class_sets
from test_scan_kernel import SEEDED, contains_seed

CONFIGS = {
    "default": SearchConfig(),
    "first_only": SearchConfig(first_only=True),
    "no_seed": SearchConfig(seed_prune=False),
    "no_pair": SearchConfig(pair_prune=False),
    "both_off": SearchConfig(seed_prune=False, pair_prune=False),
    "no_heuristic": SearchConfig(use_heuristic=False),
    "initial_1": SearchConfig(initial_length=1),
    "initial_3": SearchConfig(initial_length=3),
}


def bits(width, keep):
    return sum(1 << x for x in range(1 << width) if keep(x))


@pytest.mark.parametrize("width", range(9))
def test_tables_mark_their_subsets(width):
    holding, layers = _lattice(width)
    assert holding == tuple(bits(width, lambda x: x >> b & 1) for b in range(width))
    assert layers == tuple(
        bits(width, lambda x: x.bit_count() == k) for k in range(width + 1)
    )


@pytest.mark.parametrize("width", range(9))
def test_masks_decode_in_scan_order(width):
    """Whole layers, and a random part of each, decode in the order of
    iter_subsets_colex."""
    rng = random.Random(width)
    holding, layers = _lattice(width)
    for size in range(width + 1):
        subsets = iter_subsets_colex(range(width), size)
        want = [sum(1 << (width - 1 - p) for p in s) for s in subsets]
        assert list(_colex_masks(layers[size], holding)) == want
        part = [x for x in want if rng.random() < 0.3]
        sets = sum(1 << x for x in part)
        assert list(_colex_masks(sets, holding)) == part


def assert_families(class_set):
    """non_tests and seed_up against is_local_test and contains_seed, on
    every view mask."""
    width = len(class_set.columns)
    for size in range(width + 1):
        for subset in iter_subsets_colex(class_set.columns, size):
            x = class_set.mask(subset)
            test = is_local_test(class_set, subset)
            assert class_set.non_tests >> x & 1 == (not test)
            assert class_set.seed_up >> x & 1 == contains_seed(class_set, subset)


class TestSetFamilies:
    def test_seeded_class_sets(self):
        for cs in SEEDED:
            assert_families(cs)

    @settings(max_examples=100, deadline=None)
    @given(class_sets())
    def test_hypothesis(self, class_set):
        assert_families(class_set)


@st.composite
def verdict_cases(draw):
    """A class set of 1-4 classes of 2-10 distinct rows over up to 16
    view columns, and the local tests to judge among the whole view, the
    view less each one column and a few drawn subsets."""
    width = draw(st.integers(1, 16))
    classes = []
    label = 1
    for i in range(draw(st.integers(1, 4))):
        rows = draw(
            st.lists(
                st.integers(0, (1 << width) - 1),
                min_size=2,
                max_size=min(10, 1 << width),
                unique=True,
            )
        )
        labels = tuple(range(label, label + len(rows)))
        classes.append(ClassView(f"M{i + 1}", (), labels, tuple(rows)))
        label += len(rows)
    class_set = ClassSet(columns=tuple(range(1, width + 1)), classes=tuple(classes))
    full = (1 << width) - 1
    masks = [full] + [full ^ 1 << b for b in range(width)]
    masks += draw(st.lists(st.integers(0, full), max_size=8))
    bit_of = class_set.bit_of
    subsets = [tuple(c for c in class_set.columns if x & bit_of[c]) for x in masks]
    return class_set, [s for s in subsets if is_local_test(class_set, s)]


@settings(max_examples=150, deadline=None)
@given(verdict_cases())
def test_lattice_verdict_equals_the_rank_set_verdict(case):
    class_set, tests = case
    masks = [class_set.mask(t) for t in tests]
    on_lattice = [_local_verdict(class_set, x) for x in masks]
    with mock.patch.object(pruning, "_LATTICE_WIDTH", 0):
        assert [_local_verdict(class_set, x) for x in masks] == on_lattice


def one_class(width, rows, seed):
    rng = random.Random(seed)
    values = tuple(rng.sample(range(1 << width), rows))
    view = ClassView("M1", (), tuple(range(1, rows + 1)), values)
    return ClassSet(columns=tuple(range(1, width + 1)), classes=(view,))


@pytest.mark.parametrize("above", [False, True])
def test_tables_stay_within_the_cap(monkeypatch, above):
    """A view at the cap is scanned on the lattice, one past it over rank
    sets; either way the report is the rank-set kernel's, and no table
    wider than the cap is built."""
    monkeypatch.setattr(pruning, "_LATTICES", {})
    width = pruning._LATTICE_WIDTH + above
    class_set = one_class(width, 16, width)
    report = enumerate_local_minimal_tests(class_set)
    assert max(pruning._LATTICES, default=0) <= pruning._LATTICE_WIDTH
    assert (width in pruning._LATTICES) == (not above)
    monkeypatch.setattr(pruning, "_LATTICE_WIDTH", 0)
    assert enumerate_local_minimal_tests(one_class(width, 16, width)) == report


@pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS.keys())
def test_reports_equal_the_rank_set_kernel(monkeypatch, config):
    matrices = [
        random_matrix(
            seed,
            rows=(12, 16, 24)[seed % 3],
            cols=(8, 10, 12)[seed // 3 % 3],
            density=(0.3, 0.5, 0.7)[seed // 9 % 3],
        )
        for seed in range(60)
    ]
    lattice = [enumerate_minimal_tests(m, config).to_json() for m in matrices]
    monkeypatch.setattr(pruning, "_LATTICE_WIDTH", 0)
    assert [enumerate_minimal_tests(m, config).to_json() for m in matrices] == lattice
