"""The bit-sliced subset scan against a reference scan.

pruning._scan_size decides the subsets of one size in bulk, on the subset
lattice of the view or, above a width cap (forced here with
pruning._LATTICE_WIDTH = 0), over rank sets.  It tests seeds with the
triple unions, or above a triple cap with the multiplicity seeds.  The
reference here enumerates the same order with iter_subsets_colex, tests
seeds by probing each candidate's one-smaller submasks in seed_masks,
pairs by covering a paired-column mask, and local tests by scanning rows
(reference.first_collision).  Both kernels must agree with it on the
tests found, the hit, and every counter.
"""

import gc
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import kernel_caps, random_matrix

import mintest.mandatory as mandatory
import mintest.pruning as pruning
import mintest.search as search
from mintest import (
    ClassSet,
    ClassView,
    SearchConfig,
    class_views,
    enumerate_minimal_tests,
    iter_subsets_colex,
    partition_by_mandatory,
    seed_masks,
)
from mintest.matrix import _paired_positions
from mintest.pruning import _local_verdict, _scan_size
from reference import first_collision, labels
from test_flip_probe import reference_local_deadend

from test_difference_masks import class_sets


def reference_scan(class_set, size, seeds, pairs, stop=None):
    """(tests, hit, checked, seed_skips, pair_skips) of one pruned scan."""
    seed_set = seed_masks(class_set, size - 1) if seeds and size >= 2 else set()
    columns = class_set.columns
    pair_masks = (
        [class_set.mask((columns[i], columns[j])) for i, j in paired_positions(class_set)]
        if pairs
        else []
    )
    tests = []
    checked = seed_skips = pair_skips = 0
    for subset in iter_subsets_colex(class_set.columns, size):
        mask = class_set.mask(subset)
        bits = [class_set.bit_of[c] for c in subset]
        if any(pm & mask == pm for pm in pair_masks):
            pair_skips += 1
        elif any(mask ^ bit in seed_set for bit in bits):
            seed_skips += 1
        else:
            checked += 1
            if first_collision(class_set, subset) is None:
                tests.append(subset)
                if stop is not None and stop(subset):
                    return tests, subset, checked, seed_skips, pair_skips
    return tests, None, checked, seed_skips, pair_skips


def paired_positions(class_set):
    """The view positions of each paired column pair, from the call the
    search makes; test_pruning's TestPairedColumnsDefinition checks it
    against the definition."""
    return _paired_positions([v.rows for v in class_set.classes], len(class_set.columns))


def mask_stop(class_set, stop):
    """A stop on column labels as the stop on view masks the scan takes."""
    return None if stop is None else lambda mask: stop(labels(class_set, mask))


def labelled(class_set, scan):
    """(tests, hit, checked, seed_skips, pair_skips) of a scan, its view
    masks as column labels."""
    hit = None if scan.hit is None else labels(class_set, scan.hit)
    tests = [labels(class_set, mask) for mask in scan.tests]
    return tests, hit, scan.checked, scan.seed_skips, scan.pair_skips


def kernel_scan(class_set, size, seeds, pairs, stop=None):
    pairs = paired_positions(class_set) if pairs else None
    scan = _scan_size(class_set, size, seeds, pairs, mask_stop(class_set, stop))
    return labelled(class_set, scan)


def stops(class_set):
    def not_deadend(test):
        return _local_verdict(class_set, class_set.mask(test)) is not None

    return {"none": None, "first": lambda test: True, "first-not-deadend": not_deadend}


def assert_scans_agree(class_set):
    """Returns the scans' (seed, pair) skip totals and hits seen."""
    seen = {"seed": 0, "pair": 0, "hit": 0}
    for size in range(len(class_set.columns) + 2):
        for seeds in (True, False):
            for pairs in (True, False):
                for name, stop in stops(class_set).items():
                    got = kernel_scan(class_set, size, seeds, pairs, stop)
                    want = reference_scan(class_set, size, seeds, pairs, stop)
                    assert got == want, (size, seeds, pairs, name)
                    seen["seed"] += got[3]
                    seen["pair"] += got[4]
                    seen["hit"] += got[1] is not None
    return seen


def random_class_set(rng, width, sizes, paired=0):
    """Classes of distinct random rows over view columns 1..width; the last
    `paired` columns copy or complement an earlier column, with the
    polarity drawn per class."""
    free = width - paired
    sources = [rng.randrange(free) for _ in range(paired)]
    views = []
    label = 1
    for i, size in enumerate(sizes):
        flips = [rng.randrange(2) for _ in range(paired)]
        rows = []
        for value in rng.sample(range(1 << free), size):
            for source, flip in zip(sources, flips):
                value = value << 1 | (value >> (free - 1 - source) & 1) ^ flip
            rows.append(value)
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
    out = []
    for seed in range(6):
        rng = random.Random(seed)
        out.append(random_class_set(rng, 7, [rng.randint(12, 30)]))
        out.append(random_class_set(rng, 8, [rng.randint(3, 7) for _ in range(6)], 2))
        out.append(random_class_set(rng, 7, [rng.randint(8, 20), 4, 3], 1))
    return out


SEEDED = seeded_class_sets()


def forced_caps(rank_sets, fallback):
    """The caps that force the rank-set kernel and the seed fallback."""
    axes = (("_LATTICE_WIDTH", rank_sets), ("_TRIPLE_MASK_CAP", fallback))
    return {name: 0 for name, forced in axes if forced}


@pytest.fixture(
    params=["triples", "fallback", "triples-rank-sets", "fallback-rank-sets"]
)
def seed_source(request, monkeypatch):
    """The seed source crossed with the kernel: the lattice, or rank sets."""
    if request.param.startswith("fallback"):
        monkeypatch.setattr(pruning, "_TRIPLE_MASK_CAP", 0)
    if request.param.endswith("rank-sets"):
        monkeypatch.setattr(pruning, "_LATTICE_WIDTH", 0)
    return request.param


class TestKernelAgainstReference:
    def test_seeded_class_sets(self, seed_source):
        totals = {"seed": 0, "pair": 0, "hit": 0}
        for cs in SEEDED:
            for key, value in assert_scans_agree(cs).items():
                totals[key] += value
        assert all(totals.values()), totals  # every path was exercised

    def test_no_class_of_three_rows(self, m8, seed_source):
        assert max(v.size for v in m8.classes) < 3
        cs = random_class_set(random.Random(1), 6, [2] * 9, 1)
        for class_set in (m8, cs):
            assert class_set.triple_masks == ()
            assert assert_scans_agree(class_set)["seed"] == 0

    def test_identical_projected_rows(self, q25, seed_source):
        # q25's classes on a few columns: rows of a class coincide
        partition = partition_by_mandatory(q25, (5, 8, 10))
        for columns in ((1, 2), (1, 2, 4), (2, 3, 6)):
            cs = class_views(q25, partition, columns=columns)
            assert any(len(set(v.rows)) < v.size for v in cs.classes)
            assert_scans_agree(cs)

    def test_partitioned_fixture(self, q25, seed_source):
        cs = class_views(q25, partition_by_mandatory(q25, (5, 8, 10)))
        seen = assert_scans_agree(cs)
        assert seen["seed"] and seen["hit"]

    @settings(max_examples=60, deadline=None)
    @given(class_sets(), st.booleans(), st.booleans())
    def test_hypothesis(self, class_set, fallback, rank_sets):
        with kernel_caps(**forced_caps(rank_sets, fallback)):
            assert_scans_agree(class_set)


@pytest.mark.parametrize("rank_sets", [False, True])
@pytest.mark.parametrize("fallback", [False, True])
def test_forced_caps_reach_their_code(monkeypatch, rank_sets, fallback):
    """Forcing the rank-set axis runs _rank_scan and forcing the fallback
    axis runs seed_masks, so neither axis can test the default twice."""
    calls = set()
    for name in ("_lattice_scan", "_rank_scan", "seed_masks"):
        real = getattr(pruning, name)
        spy = lambda *args, real=real, name=name: calls.add(name) or real(*args)
        monkeypatch.setattr(pruning, name, spy)
    cs = SEEDED[0]
    assert cs.triple_masks
    with kernel_caps(**forced_caps(rank_sets, fallback)):
        _scan_size(cs, 3, True, None)
    kernel = "_rank_scan" if rank_sets else "_lattice_scan"
    assert calls == ({kernel, "seed_masks"} if fallback else {kernel})
    with pytest.raises(AttributeError):
        with kernel_caps(_NO_SUCH_CAP=0):
            pass


@pytest.mark.parametrize("width", [pruning._LATTICE_WIDTH, 0], ids=["lattice", "rank-sets"])
def test_scan_and_verdict_speak_view_masks(monkeypatch, width):
    """The scan's tests and hit are view masks, and the verdict returns
    the single bit of the redundant column last in view order, or None."""
    monkeypatch.setattr(pruning, "_LATTICE_WIDTH", width)
    cs = SEEDED[1]
    full = (1 << len(cs.columns)) - 1
    bits = 0
    for size in range(len(cs.columns) + 1):
        scan = _scan_size(cs, size, False, None, lambda mask: True, count_all=True)
        assert all(type(x) is int and x.bit_count() == size for x in scan.tests)
        assert scan.hit is None or scan.hit == scan.tests[0]
    for x in _scan_size(cs, len(cs.columns) - 1, False, None).tests + [full]:
        bit = _local_verdict(cs, x)
        assert bit is None or (bit.bit_count() == 1 and bit & x)
        want = reference_local_deadend(cs, labels(cs, x))
        assert (None if bit is None else labels(cs, bit)) == (
            None if want is None else (want,)
        )
        bits += bit is not None
    assert bits


def test_scan_caps_live_in_pruning_alone():
    for module in (search, mandatory):
        for name in ("_LATTICE_WIDTH", "_TRIPLE_MASK_CAP", "_BLOCK", "_LATTICES"):
            assert not hasattr(module, name), (module.__name__, name)


@pytest.mark.parametrize("width", [pruning._LATTICE_WIDTH, 0], ids=["lattice", "rank-sets"])
def test_stop_at_every_hit_position(monkeypatch, width):
    """A stop at the n-th test of a scan, for every n: the tests, hit and
    counters must be cut exactly there.  The class sets are small classes
    over 9 columns, one of them paired, so most sizes hold many tests."""
    monkeypatch.setattr(pruning, "_LATTICE_WIDTH", width)
    seen = {"seed": 0, "pair": 0, "hit": 0}
    for seed in range(6):
        rng = random.Random(seed)
        cs = random_class_set(rng, 9, [rng.randint(4, 8) for _ in range(3)], 1)
        for size in range(len(cs.columns) + 1):
            for seeds in (True, False):
                for pairs in (True, False):
                    for test in reference_scan(cs, size, seeds, pairs)[0]:
                        got = kernel_scan(cs, size, seeds, pairs, test.__eq__)
                        want = reference_scan(cs, size, seeds, pairs, test.__eq__)
                        assert got == want, (seed, size, seeds, pairs, test)
                        seen["seed"] += got[3]
                        seen["pair"] += got[4]
                        seen["hit"] += 1
    assert seen["hit"] > 2000 and seen["seed"] and seen["pair"], seen


def test_single_row_classes_make_every_set_a_test(monkeypatch):
    cs = ClassSet(
        columns=(1, 2, 3),
        classes=tuple(ClassView(f"M{i}", (), (i,), (i,)) for i in (1, 2)),
    )
    assert cs.difference_masks == ()
    for width in (pruning._LATTICE_WIDTH, 0):
        monkeypatch.setattr(pruning, "_LATTICE_WIDTH", width)
        for size in range(4):
            scan = _scan_size(cs, size, True, None)
            assert labelled(cs, scan)[0] == list(iter_subsets_colex(cs.columns, size))
        assert_scans_agree(cs)


@pytest.mark.parametrize("rows,fallback", [(229, False), (230, True)])
def test_seed_source_switches_at_the_triple_cap(monkeypatch, rows, fallback):
    # C(229,3) = 1,975,354 and C(230,3) = 2,001,460 row triples
    calls = []
    monkeypatch.setattr(
        pruning, "seed_masks", lambda cs, k: calls.append(k) or seed_masks(cs, k)
    )
    cs = random_class_set(random.Random(rows), 8, [rows])
    assert (cs.triple_count > pruning._TRIPLE_MASK_CAP) == fallback
    for width in (pruning._LATTICE_WIDTH, 0):
        monkeypatch.setattr(pruning, "_LATTICE_WIDTH", width)
        calls.clear()
        assert kernel_scan(cs, 3, True, False) == reference_scan(cs, 3, True, False)
        assert calls == ([2] if fallback else [])


def met_at_most_once(class_set, mask):
    return any((mask & t).bit_count() <= 1 for t in class_set.triple_masks)


def contains_seed(class_set, subset):
    mask = class_set.mask(subset)
    seeds = seed_masks(class_set, len(subset) - 1)
    return any(mask ^ class_set.bit_of[c] in seeds for c in subset)


def assert_triple_masks(class_set):
    """The triple masks are the minimal triple unions, and "some mask met
    at most once" is "contains a seed"."""
    masks = class_set.triple_masks
    unions = {
        (a ^ b) | (a ^ c)
        for view in class_set.classes
        for a, b, c in combinations(view.rows, 3)
    }
    assert set(masks) == {
        u for u in unions if not any(v & u == v and v != u for v in unions)
    }
    assert list(masks) == sorted(masks, key=lambda m: (m.bit_count(), m))
    for k in range(1, len(class_set.columns) + 1):
        for subset in combinations(class_set.columns, k):
            mask = class_set.mask(subset)
            assert met_at_most_once(class_set, mask) == contains_seed(
                class_set, subset
            ), subset


class TestTripleMasks:
    def test_seeded_class_sets(self):
        for cs in SEEDED:
            assert_triple_masks(cs)

    def test_fixtures(self, q25, m8):
        cs = class_views(q25, partition_by_mandatory(q25, (5, 8, 10)))
        assert cs.triple_count == 1 + 10 + 10 + 10 + 4
        assert_triple_masks(cs)
        assert_triple_masks(m8)

    @settings(max_examples=100, deadline=None)
    @given(class_sets())
    def test_hypothesis(self, class_set):
        assert_triple_masks(class_set)


def test_search_leaves_no_garbage_cycles():
    """A scan must not leave reference cycles behind: thousands of them
    per workload raise peak memory until the collector runs."""
    matrices = [
        random_matrix(
            seed,
            rows=(20, 24, 30)[seed % 3],
            cols=(10, 12)[seed // 3 % 2],
            density=(0.3, 0.5, 0.7)[seed // 6 % 3],
        )
        for seed in range(60)
    ]
    configs = (
        SearchConfig(),
        SearchConfig(seed_prune=False, pair_prune=False),
        SearchConfig(first_only=True),
    )
    gc.collect()
    gc.disable()
    try:
        for config in configs:
            for matrix in matrices:
                enumerate_minimal_tests(matrix, config)
        assert gc.collect() == 0
    finally:
        gc.enable()
