"""Minimal-test length estimation from per-column pair coverage.

Column i with psi1 ones and psi0 zeros separates exactly psi1*psi0 of the
mhat = m*(m-1)/2 row pairs and leaves mhat - psi1*psi0 of them joined.
Those *undistinguished-pair* counts come straight from column popcounts;
no pairwise difference table is ever materialized.

The length estimate treats columns as if they failed independently: with
the per-column ratios r = undistinguished/mhat sorted ascending, the
product beta_t of the t smallest ratios approximates the fraction of pairs
a best-case t-column set leaves joined.  A test needs that fraction below
one pair in mhat, so the estimate is the first t whose bracket

    beta_t > 1/mhat >= beta_t * r_min

closes when extended by the minimum ratio once more.  The estimate is a
starting point, not a bound; the search corrects it in both directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import mul
from typing import Sequence

from .matrix import BooleanMatrix, ColumnSet, pair_count
from .pruning import ClassSet


@dataclass(slots=True)
class ColumnPairStats:
    """Per-column pair-separation counts over a fixed row population."""

    columns: ColumnSet
    row_count: int
    total_pairs: int
    ones: tuple[int, ...]
    zeros: tuple[int, ...]
    distinguished: tuple[int, ...]
    undistinguished: tuple[int, ...]


@dataclass(slots=True)
class HeuristicEstimate:
    """Estimated minimal test length with the full bracket audit trail."""

    t0: int
    beta_t: float
    beta_next: float
    threshold: float
    ratio_list: tuple[float, ...]
    sorted_columns: tuple[int, ...]
    beta_sequence: tuple[float, ...]
    degenerate: bool = False


def _stats(columns: Sequence[int], rows: Sequence[int], width: int) -> ColumnPairStats:
    m = len(rows)
    mhat = pair_count(m)
    # bin of a row with a bit set above its width is "0b1" and its width
    # digits; joined, position pos holds every (width + 3)-th digit from 3.
    top = 1 << width
    digits = "".join(map(bin, map(top.__or__, rows)))
    ones = [digits[pos::width + 3].count("1") for pos in range(3, width + 3)]
    zeros = [m - o for o in ones]
    dist = [o * z for o, z in zip(ones, zeros)]
    # Tuples from lists, for the reason given in ClassSet.positions.
    return ColumnPairStats(
        columns=tuple(columns),
        row_count=m,
        total_pairs=mhat,
        ones=tuple(ones),
        zeros=tuple(zeros),
        distinguished=tuple(dist),
        undistinguished=tuple([mhat - d for d in dist]),
    )


def column_pair_stats(matrix: BooleanMatrix) -> ColumnPairStats:
    """Pair-separation counts for every column of a matrix."""
    if matrix.row_count < 2:
        raise ValueError("pair statistics need at least two rows")
    return _stats(
        range(1, matrix.col_count + 1), matrix.rows, matrix.col_count
    )


def union_pair_stats(class_set: ClassSet) -> ColumnPairStats:
    """Pair-separation counts over the union of the two largest classes.

    All pairs of the union count, cross-class ones included.  Ties in
    size are broken by class order, and the two classes keep their class
    order; the union keeps the local estimate cheap while staying
    representative.
    """
    sizes = [view.size for view in class_set.classes]
    # A stable sort keeps ties in class order, reversed or not.
    ranked = sorted(range(len(sizes)), key=sizes.__getitem__, reverse=True)
    chosen = [class_set.classes[i] for i in sorted(ranked[:2])]
    rows = [r for cls in chosen for r in cls.rows]
    if len(rows) < 2:
        raise ValueError("class union needs at least two rows")
    return _stats(class_set.columns, rows, len(class_set.columns))


def estimate_length(stats: ColumnPairStats) -> HeuristicEstimate:
    """Bracket the minimal test length from sorted undistinguished ratios.

    Scans t upward and stops at the first t where beta_t still exceeds
    1/mhat but one more multiplication by the minimum ratio drops below
    it.  Degenerate inputs (too few pairs for any bracket, e.g. two-row
    matrices where 1/mhat = 1) report t0 = 1 with the flag set.
    """
    mhat = stats.total_pairs
    if mhat < 1:
        raise ValueError("need at least one row pair")
    order = sorted(zip(stats.undistinguished, stats.columns))
    ratios = [u / mhat for u, _ in order]
    if not ratios or ratios[0] >= 1.0:
        raise ValueError("no column distinguishes any pair")
    threshold = 1.0 / mhat
    r_min = ratios[0]
    betas = list(accumulate(ratios, mul))
    # The first t whose next product drops to the threshold; a bracket
    # only if beta_t itself is still above it.
    t = next((t for t, b in enumerate(betas, 1) if b * r_min <= threshold), 0)
    degenerate = t == 0 or betas[t - 1] <= threshold
    t0 = 1 if degenerate else t
    # Tuples from lists, for the reason given in ClassSet.positions.
    return HeuristicEstimate(
        t0=t0,
        beta_t=betas[t0 - 1],
        beta_next=betas[t0 - 1] * r_min,
        threshold=threshold,
        ratio_list=tuple(ratios),
        sorted_columns=tuple([c for _, c in order]),
        beta_sequence=tuple(betas),
        degenerate=degenerate,
    )


def integral_length(mandatory_count: int, local_t0: int) -> int:
    """Combined test length: mandatory columns plus the local estimate."""
    if mandatory_count < 0 or local_t0 < 0:
        raise ValueError("lengths cannot be negative")
    return mandatory_count + local_t0
