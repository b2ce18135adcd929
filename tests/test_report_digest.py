"""A pinned digest of the full reports on a fixed corpus.

No change to the search may alter a report, so the sha256 of
TestReport.to_json() over a fixed set of generated matrices, under every
pruning and start configuration, is pinned here for both scan kernels
(the subset lattice and, with search._LATTICE_WIDTH = 0, the rank sets).
The corpus has three shapes close to the benchmark workloads, each at
three densities; one matrix of each gets the complement of its first
column appended, so that the paired-column skips are exercised too.
"""

import hashlib
import warnings

import pytest

import mintest.search as search
from mintest import (
    BooleanMatrix,
    GeneratorConfig,
    SearchConfig,
    enumerate_minimal_tests,
    generate_matrix,
)

CONFIGS = (
    SearchConfig(),
    SearchConfig(first_only=True),
    SearchConfig(seed_prune=False),
    SearchConfig(pair_prune=False),
    SearchConfig(seed_prune=False, pair_prune=False),
    SearchConfig(use_heuristic=False),
    SearchConfig(initial_length=1),
    SearchConfig(initial_length=3),
)

SHAPES = ((28, 13), (60, 14), (25, 11))
DENSITIES = (0.3, 0.5, 0.7)
SEEDS = range(4)

DIGEST = "ea7b937a7f0bdc5b197f0553cf06081e91fa29ae8403d41ce2bd3348e41ab30a"


def with_complement_of_first_column(matrix):
    n = matrix.col_count
    return BooleanMatrix(
        col_count=n + 1,
        rows=tuple(row << 1 | (row >> (n - 1) & 1 ^ 1) for row in matrix.rows),
        row_labels=matrix.row_labels,
    )


def corpus():
    matrices = []
    for rows, cols in SHAPES:
        for density in DENSITIES:
            for seed in SEEDS:
                matrix = generate_matrix(GeneratorConfig(rows, cols, density, seed))
                if seed == SEEDS[-1]:
                    matrix = with_complement_of_first_column(matrix)
                matrices.append(matrix)
    return matrices


def report_digest():
    digest = hashlib.sha256()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        matrices = corpus()
    for config in CONFIGS:
        for matrix in matrices:
            digest.update(enumerate_minimal_tests(matrix, config).to_json().encode())
            digest.update(b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize("kernel", ["lattice", "rank sets"])
def test_reports_are_pinned(monkeypatch, kernel):
    if kernel == "rank sets":
        monkeypatch.setattr(search, "_LATTICE_WIDTH", 0)
    assert report_digest() == DIGEST
