"""Random-matrix stream benchmark: heuristic vs exact, pruned vs unpruned.

Each record draws one matrix from the seeded stream, runs the analysis
once, the class-set search with and without pruning, and the exhaustive
oracle, then compares.  The pass criterion of a stream is that the pruned
search returns exactly the oracle's minimal test set on every record.

CSV schema (one line per record):

    seed,m,n,density,mandatory_count,heuristic_t0,exact_t0,n_minimal_tests,
    subsets_pruned,subsets_total,ms_analyze,ms_search,ms_oracle

subsets_total is the number of subsets the unpruned search examined,
subsets_pruned is how many of those the pruned search avoided.
ms_analyze times the analysis: mandatory columns, partition and class
views.  ms_search times the pruned class-set search, its length estimate
included; no test is certified dead-end on the whole matrix.  The
unpruned search's time (ms_search_unpruned, timed the same way) is kept
on the record for the summary's search-time ratio, not written to the
CSV.  Under deterministic mode the ms_* columns are written as 0.000 and
the optional timestamp comment is suppressed, so reruns are
byte-identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from .generate import GenerationError, GeneratorConfig, derive_seeds, generate_matrix
from .matrix import BooleanMatrix
from .mandatory import class_views, find_mandatory, partition_by_mandatory
from .oracle import oracle_minimal_tests
from .search import SearchConfig, enumerate_local_minimal_tests

CSV_COLUMNS = (
    "seed",
    "m",
    "n",
    "density",
    "mandatory_count",
    "heuristic_t0",
    "exact_t0",
    "n_minimal_tests",
    "subsets_pruned",
    "subsets_total",
    "ms_analyze",
    "ms_search",
    "ms_oracle",
)


@dataclass(frozen=True)
class StreamConfig:
    """A random-matrix stream: its size, shapes, densities, seed and run options."""

    count: int
    rows: tuple[int, ...] = (10,)
    cols: tuple[int, ...] = (8,)
    densities: tuple[float, ...] = (0.3, 0.5, 0.7)
    seed: int = 0
    deterministic: bool = False
    oracle_ceiling: int = 22
    workers: int = 1


@dataclass(frozen=True)
class ExperimentRecord:
    """One stream matrix: its analysis, the searches with and without pruning,
    the oracle check and their times."""

    index: int
    seed: int
    m: int
    n: int
    density: float
    mandatory_count: int = 0
    heuristic_t0: int = 0
    exact_t0: int | None = None
    minimal_test_count: int = 0
    subsets_checked_with: int = 0
    subsets_checked_without: int = 0
    ms_analyze: float = 0.0
    ms_search: float = 0.0
    ms_search_unpruned: float = 0.0
    ms_oracle: float = 0.0
    mismatch: bool = False
    error: str | None = None

    @property
    def subsets_total(self) -> int:
        return self.subsets_checked_without

    @property
    def subsets_pruned(self) -> int:
        return self.subsets_checked_without - self.subsets_checked_with


@dataclass(frozen=True)
class BenchResult:
    """The records of one stream, with their mismatches and failures counted."""

    records: tuple[ExperimentRecord, ...]
    mismatches: int
    failures: int

    @property
    def ok(self) -> bool:
        return self.mismatches == 0


_PRUNED = SearchConfig()
_UNPRUNED = SearchConfig(seed_prune=False, pair_prune=False)


def bench_matrix(
    matrix: BooleanMatrix,
    index: int = 0,
    seed: int = 0,
    density: float = 0.0,
    oracle_ceiling: int = 22,
) -> ExperimentRecord:
    """One benchmark record for an already-built matrix: the analysis
    once, then the pruned and the unpruned search on its class set."""
    t0 = time.perf_counter()
    mandatory = find_mandatory(matrix).columns
    class_set = class_views(matrix, partition_by_mandatory(matrix, mandatory))
    t1 = time.perf_counter()
    # Each search runs on its own copy, so neither reuses the set
    # families the other cached.
    report = enumerate_local_minimal_tests(replace(class_set), _PRUNED)
    t2 = time.perf_counter()
    bare = enumerate_local_minimal_tests(replace(class_set), _UNPRUNED)
    t3 = time.perf_counter()
    exact_t0: int | None = None
    mismatch = bare.integral_tests != report.integral_tests
    ms_oracle = 0.0
    if matrix.col_count <= oracle_ceiling:
        t4 = time.perf_counter()
        oracle = oracle_minimal_tests(matrix, n_ceiling=oracle_ceiling)
        ms_oracle = (time.perf_counter() - t4) * 1000.0
        exact_t0 = oracle.min_length
        mismatch = mismatch or oracle.minimal_tests != report.integral_tests
    return ExperimentRecord(
        index=index,
        seed=seed,
        m=matrix.row_count,
        n=matrix.col_count,
        density=density,
        mandatory_count=len(mandatory),
        heuristic_t0=len(mandatory) + (report.estimate.t0 if report.estimate else 0),
        exact_t0=exact_t0,
        minimal_test_count=len(report.integral_tests),
        subsets_checked_with=report.stats.subsets_checked,
        subsets_checked_without=bare.stats.subsets_checked,
        ms_analyze=(t1 - t0) * 1000.0,
        ms_search=(t2 - t1) * 1000.0,
        ms_search_unpruned=(t3 - t2) * 1000.0,
        ms_oracle=ms_oracle,
        mismatch=mismatch,
    )


def _run_one(args: tuple[int, int, int, int, float, int]) -> ExperimentRecord:
    index, seed, m, n, density, ceiling = args
    try:
        matrix = generate_matrix(
            GeneratorConfig(rows=m, cols=n, ones_density=density, seed=seed)
        )
    except GenerationError as exc:
        return ExperimentRecord(
            index=index, seed=seed, m=m, n=n, density=density, error=str(exc)
        )
    return bench_matrix(
        matrix, index=index, seed=seed, density=density, oracle_ceiling=ceiling
    )


def run_benchmark(config: StreamConfig) -> BenchResult:
    """Run the stream; individual record failures are recorded, not raised."""
    grid = [
        (m, n, d)
        for m in config.rows
        for n in config.cols
        for d in config.densities
    ]
    if not grid:
        raise ValueError("empty parameter grid")
    seeds = derive_seeds(config.seed, config.count)
    jobs = []
    for i in range(config.count):
        m, n, d = grid[i % len(grid)]
        jobs.append((i, seeds[i], m, n, d, config.oracle_ceiling))
    if config.workers > 1 and len(jobs) > 1:
        # Here, not at module level: importing the pool loads
        # multiprocessing, which every `import mintest` would pay for.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            records = list(pool.map(_run_one, jobs))
    else:
        records = [_run_one(j) for j in jobs]
    return bench_result(records, config.deterministic)


def bench_result(records: list[ExperimentRecord], deterministic: bool) -> BenchResult:
    """The records with their mismatches and failures counted; under
    deterministic mode every timing is zeroed."""
    if deterministic:
        records = [
            replace(
                r, ms_analyze=0.0, ms_search=0.0, ms_search_unpruned=0.0, ms_oracle=0.0
            )
            for r in records
        ]
    return BenchResult(
        records=tuple(records),
        mismatches=sum(1 for r in records if r.mismatch),
        failures=sum(1 for r in records if r.error),
    )


def csv_text(result: BenchResult, deterministic: bool) -> str:
    """The record table; errors become comment lines."""
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S")
    lines = [] if deterministic else [f"# generated {stamp}"]
    lines.append(",".join(CSV_COLUMNS))
    for r in result.records:
        if r.error:
            lines.append(f"# record {r.index} failed: {r.error}")
            continue
        exact = "" if r.exact_t0 is None else r.exact_t0
        lines.append(
            f"{r.seed},{r.m},{r.n},{r.density:g},{r.mandatory_count},"
            f"{r.heuristic_t0},{exact},{r.minimal_test_count},{r.subsets_pruned},"
            f"{r.subsets_total},{r.ms_analyze:.3f},{r.ms_search:.3f},{r.ms_oracle:.3f}"
        )
    return "".join(line + "\n" for line in lines)


def summarize(result: BenchResult) -> dict:
    """Aggregate summary: heuristic error histogram and pruning speedup,
    in subsets checked and in search time (unpruned over pruned; None when
    no record was timed, as under deterministic mode)."""
    errors: dict[int, int] = {}
    speedups: list[float] = []
    time_ratios: list[float] = []
    for r in result.records:
        if r.error:
            continue
        if r.ms_search:
            time_ratios.append(r.ms_search_unpruned / r.ms_search)
        if r.exact_t0 is None:
            continue
        err = r.heuristic_t0 - r.exact_t0
        errors[err] = errors.get(err, 0) + 1
        if r.subsets_checked_with:
            speedups.append(r.subsets_checked_without / r.subsets_checked_with)
    return {
        "records": len(result.records),
        "failures": result.failures,
        "mismatches": result.mismatches,
        "heuristic_error_histogram": {str(k): errors[k] for k in sorted(errors)},
        "mean_subset_ratio": (
            round(sum(speedups) / len(speedups), 3) if speedups else None
        ),
        "mean_search_time_ratio": (
            round(sum(time_ratios) / len(time_ratios), 3) if time_ratios else None
        ),
    }
