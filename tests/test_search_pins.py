"""Pinned search counters and corrections on a fixed set of random matrices.

Every SearchStats field and every Correction of these cases is frozen under
all four seed_prune/pair_prune combinations.  Pruning and enumeration
speed-ups must leave all of them unchanged; only wall-clock time may move.
Each entry is (seed, rows, cols, density, initial_length, first_only) ->
one row per toggle, in the order of TOGGLES, of
(class_count, free_columns, candidates_checked, sweep_checked,
pruned_by_seeds, pruned_by_pairs, lengths_visited, (z1, z2) or None,
corrections as (old_length, new_length, reason)).
"""

import pytest

from conftest import random_matrix

from mintest import SearchConfig, enumerate_minimal_tests

NOT_DEADEND = "found test was not dead-end"
NO_TEST = "no test of this length exists"
PAIR_HID = "skipped subset hid a non-dead-end test"
SHORTER = "a shorter test exists below the accepted size"

TOGGLES = [(True, True), (True, False), (False, True), (False, False)]

PINS = {
    (100, 10, 7, 0.5, None, False): [
        (2, 5, 10, 0, 5, 0, (4, 3), (40, 20), ((6, 5, NOT_DEADEND),)),
        (2, 5, 10, 0, 5, 0, (4, 3), (40, 20), ((6, 5, NOT_DEADEND),)),
        (2, 5, 15, 10, 0, 0, (4, 3), (40, 20), ((6, 5, NOT_DEADEND),)),
        (2, 5, 15, 10, 0, 0, (4, 3), (40, 20), ((6, 5, NOT_DEADEND),)),
    ],
    (102, 14, 9, 0.5, None, False): [
        (2, 8, 98, 0, 56, 0, (6, 5, 4), (336, 168), ((7, 6, NOT_DEADEND), (6, 5, NOT_DEADEND))),
        (2, 8, 98, 0, 56, 0, (6, 5, 4), (336, 168), ((7, 6, NOT_DEADEND), (6, 5, NOT_DEADEND))),
        (2, 8, 154, 56, 0, 0, (6, 5, 4), (336, 168), ((7, 6, NOT_DEADEND), (6, 5, NOT_DEADEND))),
        (2, 8, 154, 56, 0, 0, (6, 5, 4), (336, 168), ((7, 6, NOT_DEADEND), (6, 5, NOT_DEADEND))),
    ],
    (104, 20, 10, 0.5, None, False): [
        (6, 7, 26, 0, 44, 0, (4, 3), (84, 28), ((7, 6, NOT_DEADEND),)),
        (6, 7, 26, 0, 44, 0, (4, 3), (84, 28), ((7, 6, NOT_DEADEND),)),
        (6, 7, 70, 21, 0, 0, (4, 3), (84, 28), ((7, 6, NOT_DEADEND),)),
        (6, 7, 70, 21, 0, 0, (4, 3), (84, 28), ((7, 6, NOT_DEADEND),)),
    ],
    (105, 24, 11, 0.5, None, False): [
        (6, 8, 53, 0, 73, 0, (5, 4), (336, 168), ((8, 7, NOT_DEADEND),)),
        (6, 8, 53, 0, 73, 0, (5, 4), (336, 168), ((8, 7, NOT_DEADEND),)),
        (6, 8, 126, 56, 0, 0, (5, 4), (336, 168), ((8, 7, NOT_DEADEND),)),
        (6, 8, 126, 56, 0, 0, (5, 4), (336, 168), ((8, 7, NOT_DEADEND),)),
    ],
    (108, 14, 9, 0.5, None, False): [
        (1, 9, 6, 0, 120, 0, (5,), (1008, 672), ()),
        (1, 9, 6, 0, 120, 0, (5,), (1008, 672), ()),
        (1, 9, 126, 126, 0, 0, (5,), (1008, 672), ()),
        (1, 9, 126, 126, 0, 0, (5,), (1008, 672), ()),
    ],
    (111, 24, 11, 0.5, None, False): [
        (4, 9, 162, 0, 174, 0, (6, 5, 4), (504, 216), ((8, 7, NOT_DEADEND), (7, 6, NOT_DEADEND))),
        (4, 9, 162, 0, 174, 0, (6, 5, 4), (504, 216), ((8, 7, NOT_DEADEND), (7, 6, NOT_DEADEND))),
        (4, 9, 336, 84, 0, 0, (6, 5, 4), (504, 216), ((8, 7, NOT_DEADEND), (7, 6, NOT_DEADEND))),
        (4, 9, 336, 84, 0, 0, (6, 5, 4), (504, 216), ((8, 7, NOT_DEADEND), (7, 6, NOT_DEADEND))),
    ],
    (117, 24, 11, 0.5, None, False): [
        (2, 10, 246, 0, 336, 0, (7, 6, 5), (1680, 960), ((8, 7, NOT_DEADEND), (7, 6, NOT_DEADEND))),
        (2, 10, 246, 0, 336, 0, (7, 6, 5), (1680, 960), ((8, 7, NOT_DEADEND), (7, 6, NOT_DEADEND))),
        (2, 10, 582, 210, 0, 0, (7, 6, 5), (1680, 960), ((8, 7, NOT_DEADEND), (7, 6, NOT_DEADEND))),
        (2, 10, 582, 210, 0, 0, (7, 6, 5), (1680, 960), ((8, 7, NOT_DEADEND), (7, 6, NOT_DEADEND))),
    ],
    (118, 10, 7, 0.5, None, False): [
        (3, 5, 7, 0, 13, 0, (2, 3), None, ((4, 5, NO_TEST),)),
        (3, 5, 7, 0, 13, 0, (2, 3), None, ((4, 5, NO_TEST),)),
        (3, 5, 20, 0, 0, 0, (2, 3), None, ((4, 5, NO_TEST),)),
        (3, 5, 20, 0, 0, 0, (2, 3), None, ((4, 5, NO_TEST),)),
    ],
    (119, 12, 8, 0.3, None, False): [
        (4, 5, 10, 5, 0, 0, (2,), (10, 2), ()),
        (4, 5, 10, 5, 0, 0, (2,), (10, 2), ()),
        (4, 5, 10, 5, 0, 0, (2,), (10, 2), ()),
        (4, 5, 10, 5, 0, 0, (2,), (10, 2), ()),
    ],
    (121, 16, 8, 0.7, None, False): [
        (0, 0, 0, 0, 0, 0, (), None, ()),
        (0, 0, 0, 0, 0, 0, (), None, ()),
        (0, 0, 0, 0, 0, 0, (), None, ()),
        (0, 0, 0, 0, 0, 0, (), None, ()),
    ],
    (123, 24, 11, 0.5, None, False): [
        (1, 11, 105, 0, 687, 0, (7, 6), (4620, 3300), ((7, 6, NOT_DEADEND),)),
        (1, 11, 105, 0, 687, 0, (7, 6), (4620, 3300), ((7, 6, NOT_DEADEND),)),
        (1, 11, 792, 462, 0, 0, (7, 6), (4620, 3300), ((7, 6, NOT_DEADEND),)),
        (1, 11, 792, 462, 0, 0, (7, 6), (4620, 3300), ((7, 6, NOT_DEADEND),)),
    ],
    (5, 12, 10, 0.5, None, False): [
        (4, 8, 25, 8, 59, 0, (3, 2), (16, 2), ((5, 4, NOT_DEADEND),)),
        (4, 8, 25, 8, 59, 0, (3, 2), (16, 2), ((5, 4, NOT_DEADEND),)),
        (4, 8, 84, 8, 0, 0, (3, 2), (16, 2), ((5, 4, NOT_DEADEND),)),
        (4, 8, 84, 8, 0, 0, (3, 2), (16, 2), ((5, 4, NOT_DEADEND),)),
    ],
    (0, 8, 8, 0.3, None, False): [
        (3, 6, 14, 6, 0, 1, (2,), (12, 2), ()),
        (3, 6, 15, 6, 0, 0, (2,), (12, 2), ()),
        (3, 6, 14, 6, 0, 1, (2,), (12, 2), ()),
        (3, 6, 15, 6, 0, 0, (2,), (12, 2), ()),
    ],
    (3, 7, 9, 0.5, None, False): [
        (2, 8, 27, 11, 50, 7, (3, 2), (16, 2), ((4, 3, NOT_DEADEND),)),
        (2, 8, 27, 8, 57, 0, (3, 2), (16, 2), ((4, 3, NOT_DEADEND),)),
        (2, 8, 77, 11, 0, 7, (3, 2), (16, 2), ((4, 3, NOT_DEADEND),)),
        (2, 8, 84, 8, 0, 0, (3, 2), (16, 2), ((4, 3, NOT_DEADEND),)),
    ],
    (4, 8, 6, 0.5, None, False): [
        (3, 4, 5, 4, 0, 1, (2,), (8, 2), ()),
        (3, 4, 6, 4, 0, 0, (2,), (8, 2), ()),
        (3, 4, 5, 4, 0, 1, (2,), (8, 2), ()),
        (3, 4, 6, 4, 0, 0, (2,), (8, 2), ()),
    ],
    (6, 6, 6, 0.5, None, False): [
        (2, 5, 16, 6, 0, 4, (3, 2), (10, 2), ((4, 3, NOT_DEADEND),)),
        (2, 5, 20, 5, 0, 0, (3, 2), (10, 2), ((4, 3, NOT_DEADEND),)),
        (2, 5, 16, 6, 0, 4, (3, 2), (10, 2), ((4, 3, NOT_DEADEND),)),
        (2, 5, 20, 5, 0, 0, (3, 2), (10, 2), ((4, 3, NOT_DEADEND),)),
    ],
    (0, 5, 8, 0.5, 8, False): [
        (2, 7, 15, 8, 0, 7, (7, 2), (14, 2), ((8, 3, PAIR_HID),)),
        (2, 7, 22, 7, 0, 0, (7, 2), (14, 2), ((8, 3, NOT_DEADEND),)),
        (2, 7, 15, 8, 0, 7, (7, 2), (14, 2), ((8, 3, PAIR_HID),)),
        (2, 7, 22, 7, 0, 0, (7, 2), (14, 2), ((8, 3, NOT_DEADEND),)),
    ],
    (1, 6, 6, 0.5, 6, False): [
        (1, 3, 3, 1, 0, 1, (3, 1), None, ((6, 4, PAIR_HID),)),
        (1, 3, 4, 0, 0, 0, (3, 1), None, ((6, 4, NOT_DEADEND),)),
        (1, 3, 3, 1, 0, 1, (3, 1), None, ((6, 4, PAIR_HID),)),
        (1, 3, 4, 0, 0, 0, (3, 1), None, ((6, 4, NOT_DEADEND),)),
    ],
    (11, 7, 9, 0.5, 9, False): [
        (1, 9, 37, 1, 68, 22, (9, 4), (504, 216), ((9, 4, PAIR_HID),)),
        (1, 9, 38, 0, 89, 0, (9, 4), (504, 216), ((9, 4, NOT_DEADEND),)),
        (1, 9, 105, 85, 0, 22, (9, 4), (504, 216), ((9, 4, PAIR_HID),)),
        (1, 9, 127, 84, 0, 0, (9, 4), (504, 216), ((9, 4, NOT_DEADEND),)),
    ],
    (0, 10, 8, 0.5, 1, False): [
        (2, 7, 8, 0, 55, 0, (1, 2, 3), None, ((2, 3, NO_TEST), (3, 4, NO_TEST))),
        (2, 7, 8, 0, 55, 0, (1, 2, 3), None, ((2, 3, NO_TEST), (3, 4, NO_TEST))),
        (2, 7, 63, 0, 0, 0, (1, 2, 3), None, ((2, 3, NO_TEST), (3, 4, NO_TEST))),
        (2, 7, 63, 0, 0, 0, (1, 2, 3), None, ((2, 3, NO_TEST), (3, 4, NO_TEST))),
    ],
    (0, 12, 10, 0.5, 1, False): [
        (3, 8, 21, 0, 71, 0, (1, 2, 3), None, ((3, 4, NO_TEST), (4, 5, NO_TEST))),
        (3, 8, 21, 0, 71, 0, (1, 2, 3), None, ((3, 4, NO_TEST), (4, 5, NO_TEST))),
        (3, 8, 92, 0, 0, 0, (1, 2, 3), None, ((3, 4, NO_TEST), (4, 5, NO_TEST))),
        (3, 8, 92, 0, 0, 0, (1, 2, 3), None, ((3, 4, NO_TEST), (4, 5, NO_TEST))),
    ],
    (0, 10, 8, 0.5, 8, False): [
        (2, 7, 2, 0, 34, 0, (7, 3), (84, 28), ((8, 4, NOT_DEADEND),)),
        (2, 7, 2, 0, 34, 0, (7, 3), (84, 28), ((8, 4, NOT_DEADEND),)),
        (2, 7, 36, 21, 0, 0, (7, 3), (84, 28), ((8, 4, NOT_DEADEND),)),
        (2, 7, 36, 21, 0, 0, (7, 3), (84, 28), ((8, 4, NOT_DEADEND),)),
    ],
    (0, 12, 10, 0.5, 5, True): [
        (3, 8, 3, 2, 11, 0, (5, 4, 3), (112, 32), ((7, 6, NOT_DEADEND), (6, 5, SHORTER))),
        (3, 8, 3, 2, 11, 0, (5, 4, 3), (112, 32), ((7, 6, NOT_DEADEND), (6, 5, SHORTER))),
        (3, 8, 14, 40, 0, 0, (5, 4, 3), (112, 32), ((7, 6, NOT_DEADEND), (6, 5, SHORTER))),
        (3, 8, 14, 40, 0, 0, (5, 4, 3), (112, 32), ((7, 6, NOT_DEADEND), (6, 5, SHORTER))),
    ],
    (0, 16, 8, 0.5, None, True): [
        (4, 6, 7, 5, 16, 0, (5, 4, 3), (60, 24), ((7, 6, NOT_DEADEND), (6, 5, SHORTER))),
        (4, 6, 7, 5, 16, 0, (5, 4, 3), (60, 24), ((7, 6, NOT_DEADEND), (6, 5, SHORTER))),
        (4, 6, 23, 35, 0, 0, (5, 4, 3), (60, 24), ((7, 6, NOT_DEADEND), (6, 5, SHORTER))),
        (4, 6, 23, 35, 0, 0, (5, 4, 3), (60, 24), ((7, 6, NOT_DEADEND), (6, 5, SHORTER))),
    ],
}


def _fingerprint(report):
    s = report.stats
    cost = None if s.cycle_cost is None else (s.cycle_cost.z1, s.cycle_cost.z2)
    corrections = tuple((c.old_length, c.new_length, c.reason) for c in report.corrections)
    return (
        s.class_count,
        s.free_columns,
        s.candidates_checked,
        s.sweep_checked,
        s.pruned_by_seeds,
        s.pruned_by_pairs,
        s.lengths_visited,
        cost,
        corrections,
    )


def test_pins_cover_every_correction_reason():
    reasons = {c[2] for rows in PINS.values() for row in rows for c in row[8]}
    assert reasons == {NOT_DEADEND, NO_TEST, PAIR_HID, SHORTER}


@pytest.mark.parametrize("case", list(PINS), ids=str)
def test_search_stats_and_corrections_pinned(case):
    seed, rows, cols, density, initial_length, first_only = case
    matrix = random_matrix(seed, rows=rows, cols=cols, density=density)
    for (seed_prune, pair_prune), expected in zip(TOGGLES, PINS[case]):
        config = SearchConfig(
            seed_prune=seed_prune,
            pair_prune=pair_prune,
            initial_length=initial_length,
            first_only=first_only,
        )
        assert _fingerprint(enumerate_minimal_tests(matrix, config)) == expected, (
            seed_prune,
            pair_prune,
        )
