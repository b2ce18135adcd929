"""Seeded workload generators and the search-independent answer check.

Everything here is plain Python on row integers parsed by this file, so
neither the inputs nor the check depend on the library under test: the
library only ever receives matrix text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence


@dataclass(frozen=True)
class Workload:
    name: str
    matrices: Callable[[int], list[str]]
    # The oracle is too slow on tall-classed: L is 14-15 of 18 columns, so
    # it projects 500 rows onto some 260,000 subsets per matrix.
    uses_oracle: bool
    # Repetitions of the analysis chain per matrix, whose median is kept:
    # on dense-search one call takes under a millisecond.
    analyze_reps: int


def random_rows(rng: random.Random, m: int, n: int, density: float) -> list[int]:
    """m pairwise-distinct n-bit rows, each cell one with the given density."""
    seen: set[int] = set()
    rows: list[int] = []
    while len(rows) < m:
        value = 0
        for _ in range(n):
            value = (value << 1) | (rng.random() < density)
        if value not in seen:
            seen.add(value)
            rows.append(value)
    return rows


def matrix_text(rows: Sequence[int], n: int) -> str:
    return "".join(format(r, f"0{n}b") + "\n" for r in rows)


def parse_rows(text: str) -> tuple[list[int], int]:
    lines = text.split()
    return [int(line, 2) for line in lines], len(lines[0])


def column_bit(c: int, n: int) -> int:
    """Mask of 1-based column c; column 1 is the most significant bit."""
    return 1 << (n - c)


def separates(rows: Sequence[int], mask: int) -> bool:
    return len({r & mask for r in rows}) == len(rows)


def necessary_columns(rows: Sequence[int], n: int) -> list[int]:
    """Columns whose removal from the full set leaves a non-test.

    Tests are closed upwards, so these are exactly the columns every test
    contains (the paper's mandatory columns), found without pair scans.
    """
    full = (1 << n) - 1
    return [c for c in range(1, n + 1) if not separates(rows, full ^ column_bit(c, n))]


def check_minimal_tests(
    rows: Sequence[int], n: int, length: int, tests: Sequence[Sequence[int]]
) -> str | None:
    """None when `tests` are exactly the minimal tests, else the reason.

    Every test holds all necessary columns, and any set missing one is a
    subset of a non-test.  So sweeping the other columns at sizes L and
    L-1 with a plain projection test decides the answer: exactly the
    reported sets at L and none at L-1 is the oracle's answer.
    """
    nec = necessary_columns(rows, n)
    free = [c for c in range(1, n + 1) if c not in nec]
    k = length - len(nec)
    if k < 0 or k > len(free):
        return f"length {length} impossible with {len(nec)} necessary columns"
    base = sum(column_bit(c, n) for c in nec)

    def sweep(size: int) -> list[tuple[int, ...]]:
        out = []
        for extra in combinations(free, size):
            mask = base + sum(column_bit(c, n) for c in extra)
            if separates(rows, mask):
                out.append(tuple(sorted(nec + list(extra))))
        return out

    expected = sorted(sweep(k))
    if not expected:
        return f"no test of length {length} exists"
    if sorted(tuple(t) for t in tests) != expected:
        return f"reported {len(tests)} tests of length {length}, the sweep finds {len(expected)}"
    if k >= 1 and sweep(k - 1):
        return f"a test of length {length - 1} exists"
    return None


def pair_candidates(rows: Sequence[int]) -> int:
    """Row pairs whose popcounts differ by one: sum of |B_r|*|B_r+1|."""
    buckets: dict[int, int] = {}
    for r in rows:
        buckets[r.bit_count()] = buckets.get(r.bit_count(), 0) + 1
    return sum(size * buckets.get(p + 1, 0) for p, size in buckets.items())


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def dense_search(seed: int) -> list[str]:
    rng = _rng("dense-search", seed)
    return [matrix_text(random_rows(rng, 28, 13, 0.5), 13) for _ in range(100)]


# Rows are grouped by their values on the necessary columns, so the
# necessary-column count sets the class structure (2^count keys for 500
# rows) and with it most of the solve time.  Drawn at random the count
# swings between 3 and 11, and the time of one matrix by 6x; a fixed
# number of matrices per count keeps the class structure of the workload
# the same for every seed.  Counts 5..9 give about 15 down to 1 rows per key.
# At least TALL_DRAWS candidates are drawn whatever the seed, so that set-up
# time does not depend on how soon the strata fill.
TALL_STRATA = (5, 6, 7, 8, 9)
TALL_PER_STRATUM = 4
TALL_DRAWS = 120
TALL_MAX_DRAWS = 2000


def tall_classed(seed: int) -> list[str]:
    rng = _rng("tall-classed", seed)
    chosen: dict[int, list[str]] = {count: [] for count in TALL_STRATA}
    for draw in range(TALL_MAX_DRAWS):
        full = all(len(b) == TALL_PER_STRATUM for b in chosen.values())
        if full and draw >= TALL_DRAWS:
            return [text for count in TALL_STRATA for text in chosen[count]]
        rows = random_rows(rng, 500, 18, 0.5)
        bucket = chosen.get(len(necessary_columns(rows, 18)))
        if bucket is not None and len(bucket) < TALL_PER_STRATUM:
            bucket.append(matrix_text(rows, 18))
    raise RuntimeError(f"seed {seed}: strata not filled in {TALL_MAX_DRAWS} draws")


def stream_small(seed: int) -> list[str]:
    rng = _rng("stream-small", seed)
    texts = []
    for i in range(900):
        m = (20, 24, 30)[i % 3]
        n = (10, 12)[(i // 3) % 2]
        density = (0.3, 0.5, 0.7)[(i // 6) % 3]
        texts.append(matrix_text(random_rows(rng, m, n, density), n))
    return texts


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dense-search", dense_search, uses_oracle=True, analyze_reps=10),
        Workload("tall-classed", tall_classed, uses_oracle=False, analyze_reps=1),
        Workload("stream-small", stream_small, uses_oracle=True, analyze_reps=1),
    )
}
