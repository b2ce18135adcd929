"""A pinned digest of the full reports on a fixed corpus.

No change to the search may alter a report, so the sha256 of
TestReport.to_json() over a fixed set of generated matrices, under every
pruning and start configuration, is pinned here for both scan kernels
(the subset lattice and, with pruning._LATTICE_WIDTH = 0, the rank sets).
The corpus has three shapes close to the benchmark workloads, each at
three densities; one matrix of each gets the complement of its first
column appended, so that the paired-column skips are exercised too.

The analysis chain's records (mandatory scan, partition, class views,
both pair statistics and estimates) are pinned the same way, one digest
per shape, on each corpus matrix and its row-sorted copy, and on one
matrix wider than 64 columns.
"""

import hashlib
import json
import warnings
from dataclasses import asdict

import pytest

import mintest.pruning as pruning
from mintest import (
    BooleanMatrix,
    GeneratorConfig,
    SearchConfig,
    class_views,
    column_pair_stats,
    enumerate_minimal_tests,
    estimate_length,
    find_mandatory,
    generate_matrix,
    partition_by_mandatory,
    sort_rows_by_binary_value,
    union_pair_stats,
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


def shape_corpus(rows, cols):
    matrices = []
    for density in DENSITIES:
        for seed in SEEDS:
            matrix = generate_matrix(GeneratorConfig(rows, cols, density, seed))
            if seed == SEEDS[-1]:
                matrix = with_complement_of_first_column(matrix)
            matrices.append(matrix)
    return matrices


def corpus():
    return [matrix for shape in SHAPES for matrix in shape_corpus(*shape)]


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
        monkeypatch.setattr(pruning, "_LATTICE_WIDTH", 0)
    assert report_digest() == DIGEST


ANALYSIS_DIGESTS = {
    (28, 13): "72a4beee4f97baf75400c7b8740b033c6f910fef8c0cd2299817ddb363d3d5b2",
    (60, 14): "d71a0cf24835c525c830aeba597ebc72702e35c3de82e43cfe55f1d2ee6bf651",
    (25, 11): "1e24f55197dadcb4455ac6c48e5c0a35d2d3449e6a62c4d2d114bb6eb320d0f5",
    "wide": "5c0bcfb4b9d3f0b6ecec73215344a17fad3e0085175a850ce509637330745ed3",
}


def wide_matrix():
    """70 columns, with rows at distance 1 from earlier ones in columns 3,
    40 and 66, so that those are mandatory and split the rows into
    classes."""
    matrix = generate_matrix(GeneratorConfig(48, 70, 0.5, 7))
    rows = list(matrix.rows)
    for i, column in ((0, 3), (5, 40), (9, 66), (12, 3)):
        rows.append(rows[i] ^ 1 << (70 - column))
    return BooleanMatrix(70, tuple(rows), tuple(range(1, len(rows) + 1)))


def analysis_json(matrix):
    mandatory = find_mandatory(matrix)
    partition = partition_by_mandatory(matrix, mandatory.columns)
    views = class_views(matrix, partition)
    stats = column_pair_stats(matrix)
    doc = [
        asdict(mandatory),
        asdict(partition),
        asdict(views),
        asdict(stats),
        asdict(estimate_length(stats)),
    ]
    if partition.classes:
        local = union_pair_stats(views)
        doc += [asdict(local), asdict(estimate_length(local))]
    return json.dumps(doc, sort_keys=True)


@pytest.mark.parametrize("shape", list(ANALYSIS_DIGESTS), ids=str)
def test_analysis_chain_is_pinned(shape):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        matrices = [wide_matrix()] if shape == "wide" else shape_corpus(*shape)
    digest = hashlib.sha256()
    for matrix in matrices:
        for version in (matrix, sort_rows_by_binary_value(matrix)):
            digest.update(analysis_json(version).encode())
            digest.update(b"\n")
    assert digest.hexdigest() == ANALYSIS_DIGESTS[shape]
