"""The rank sets and rank blocks behind the bit-sliced subset scan.

pruning._rank_sets(w, k, lex) holds, per position of range(w), the ranks
of the k-subsets that contain it, numbered in scan order (that of
iter_subsets_colex) or in lexicographic order.  pruning._blocks cuts one
scan into contiguous rank blocks of at most pruning._BLOCK ranks.  The
scan must give the same tests, hit and counters whatever the block size.
The scan tests here force the rank-set kernel (pruning._LATTICE_WIDTH = 0),
which otherwise serves only views wider than the lattice cap.
"""

import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from conftest import kernel_caps

import mintest.pruning as pruning
from mintest import iter_subsets_colex
from mintest.pruning import _blocks, _rank_sets, _scan_size

from test_difference_masks import class_sets
from test_scan_kernel import (
    SEEDED,
    assert_scans_agree,
    forced_caps,
    labelled,
    mask_stop,
    paired_positions,
    random_class_set,
    reference_scan,
    stops,
)


def assert_rank_sets(sets, subsets, width):
    assert len(sets) == width
    for p, ranks in enumerate(sets):
        assert ranks == sum(1 << r for r, s in enumerate(subsets) if p in s), p


@pytest.mark.parametrize("width", range(10))
def test_rank_sets_number_the_subsets(width):
    for size in range(width + 2):
        assert_rank_sets(
            _rank_sets(width, size, False),
            list(iter_subsets_colex(range(width), size)),
            width,
        )
        assert_rank_sets(
            _rank_sets(width, size, True), list(combinations(range(width), size)), width
        )


@pytest.mark.parametrize("block", [1, 3, 7, 40])
def test_blocks_cut_the_scan_order_into_runs(monkeypatch, block):
    monkeypatch.setattr(pruning, "_BLOCK", block)
    for width in range(10):
        for size in range(width + 1):
            subsets = list(iter_subsets_colex(range(width), size))
            done = 0
            for sets, every in _blocks(width, size):
                count = every.bit_length()
                assert 1 <= count <= block
                assert all(0 <= s <= every for s in sets)
                assert_rank_sets(sets, subsets[done : done + count], width)
                done += count
            assert done == len(subsets)


@pytest.fixture
def rank_sets(monkeypatch):
    monkeypatch.setattr(pruning, "_LATTICE_WIDTH", 0)


@pytest.fixture(params=[1, 3, 7])
def small_block(request, monkeypatch):
    monkeypatch.setattr(pruning, "_BLOCK", request.param)
    return request.param


@pytest.mark.parametrize("fallback", [False, True])
def test_small_blocks_agree_with_the_reference(
    monkeypatch, rank_sets, small_block, fallback
):
    if fallback:
        monkeypatch.setattr(pruning, "_TRIPLE_MASK_CAP", 0)
    totals = {"seed": 0, "pair": 0, "hit": 0}
    for cs in SEEDED:
        for key, value in assert_scans_agree(cs).items():
            totals[key] += value
    assert all(totals.values()), totals


@settings(max_examples=40, deadline=None)
@given(class_sets(), st.sampled_from([1, 3, 7]), st.booleans())
def test_small_blocks_hypothesis(class_set, block, fallback):
    with kernel_caps(_BLOCK=block, **forced_caps(True, fallback)):
        assert_scans_agree(class_set)


def assert_count_all_counts_past_the_hit():
    hits = 0
    for cs in SEEDED:
        pairs = paired_positions(cs)
        for size in range(len(cs.columns) + 1):
            for name, stop in stops(cs).items():
                masks = _scan_size(cs, size, True, pairs, mask_stop(cs, stop), count_all=True)
                scan = labelled(cs, masks)
                tests, hit, *_ = reference_scan(cs, size, True, True, stop)
                assert scan[:2] == (tests, hit), (size, name)
                *_, checked, seed_skips, pair_skips = reference_scan(
                    cs, size, True, True
                )
                assert scan[2:] == (checked, seed_skips, pair_skips), (size, name)
                hits += hit is not None
    assert hits


@pytest.mark.parametrize("block", [3, pruning._BLOCK])
def test_count_all_counts_past_the_hit(monkeypatch, rank_sets, block):
    """With count_all the tests end at the hit and the counters cover the
    whole size, as in the scan without a stop."""
    monkeypatch.setattr(pruning, "_BLOCK", block)
    assert_count_all_counts_past_the_hit()


def test_count_all_counts_past_the_hit_on_the_lattice():
    assert max(len(cs.columns) for cs in SEEDED) <= pruning._LATTICE_WIDTH
    assert_count_all_counts_past_the_hit()


def test_no_rank_set_is_wider_than_a_block(monkeypatch, rank_sets):
    built = []
    build = pruning._rank_sets

    def recording(width, size, lex):
        sets = build(width, size, lex)
        built.append(max(sets, default=0).bit_length())
        return sets

    monkeypatch.setattr(pruning, "_BLOCK", 64)
    monkeypatch.setattr(pruning, "_rank_sets", recording)
    build.cache_clear()
    cs = random_class_set(random.Random(12), 12, [24])
    for size in range(13):
        scan = _scan_size(cs, size, True, None)
        assert scan.checked + scan.seed_skips == comb(12, size)
    assert built and max(built) <= 64


def test_mask_positions_are_the_set_bits_in_view_order():
    for cs in SEEDED:
        width = len(cs.columns)
        for masks, positions in (
            (cs.difference_masks, cs.difference_positions),
            (cs.triple_masks, cs.triple_positions),
        ):
            assert positions == tuple(
                tuple(p for p in range(width) if m >> (width - 1 - p) & 1)
                for m in masks
            )
        assert cs.positions(0) == ()
