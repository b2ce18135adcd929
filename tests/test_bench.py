import hashlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import mintest

from mintest import (
    StreamConfig,
    bench_matrix,
    csv_text,
    load_fixture_matrix,
    run_benchmark,
    summarize,
)
from mintest.bench import CSV_COLUMNS


class TestBenchMatrix:
    def test_fixture_replay(self, q25):
        record = bench_matrix(q25)
        assert record.heuristic_t0 == 7
        assert record.exact_t0 == 7
        assert record.minimal_test_count == 9
        assert not record.mismatch
        assert record.subsets_checked_with <= record.subsets_checked_without
        assert record.subsets_pruned >= 0

    def test_timings_recorded(self, q25):
        record = bench_matrix(q25)
        assert record.ms_search > 0
        assert record.ms_analyze > 0


class TestRunBenchmark:
    def test_small_stream(self):
        config = StreamConfig(
            count=9, rows=(8, 10), cols=(6, 7), densities=(0.3, 0.5, 0.7), seed=5
        )
        result = run_benchmark(config)
        assert len(result.records) == 9
        assert result.mismatches == 0
        for r in result.records:
            if r.error:
                continue
            assert r.exact_t0 is not None
            assert r.subsets_checked_with <= r.subsets_checked_without

    def test_count_zero_header_only(self):
        result = run_benchmark(StreamConfig(count=0, seed=1))
        text = csv_text(result, deterministic=True)
        assert text == ",".join(CSV_COLUMNS) + "\n"

    def test_deterministic_byte_identical(self):
        config = StreamConfig(count=6, seed=99, deterministic=True)
        a = csv_text(run_benchmark(config), deterministic=True)
        b = csv_text(run_benchmark(config), deterministic=True)
        assert a == b
        assert "ms_analyze" in a.splitlines()[0]

    def test_nondeterministic_has_timestamp(self):
        config = StreamConfig(count=1, seed=3)
        text = csv_text(run_benchmark(config), deterministic=False)
        assert text.startswith("# generated ")

    def test_workers_same_records(self):
        base = StreamConfig(count=6, seed=31, deterministic=True)
        seq = run_benchmark(base)
        par = run_benchmark(
            StreamConfig(count=6, seed=31, deterministic=True, workers=2)
        )
        assert seq.records == par.records

    def test_generation_failures_recorded_not_raised(self):
        # rows > 2^cols is caught per record
        result = run_benchmark(
            StreamConfig(count=2, rows=(9,), cols=(3,), densities=(0.5,), seed=7)
        )
        assert result.failures == 2
        text = csv_text(result, deterministic=True)
        assert "# record 0 failed" in text

    def test_summary_shape(self):
        result = run_benchmark(StreamConfig(count=6, seed=17))
        summary = summarize(result)
        assert summary["records"] == 6
        assert summary["mismatches"] == 0
        assert isinstance(summary["heuristic_error_histogram"], dict)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            run_benchmark(StreamConfig(count=1, rows=()))


# The deterministic CSV of StreamConfig(count=6, seed=17), from before the
# record carried the unpruned search time.
PINNED_CSV = (
    ",".join(CSV_COLUMNS) + "\n"
    "9260656408219841379,10,8,0.3,3,5,5,3,0,15,0.000,0.000,0.000\n"
    "7220676901988789713,10,8,0.5,0,4,4,4,122,126,0.000,0.000,0.000\n"
    "6056616057409641356,10,8,0.7,0,4,5,15,107,126,0.000,0.000,0.000\n"
    "4130155771025092611,10,8,0.3,1,6,4,1,72,112,0.000,0.000,0.000\n"
    "318372821541199966,10,8,0.5,2,5,5,8,23,35,0.000,0.000,0.000\n"
    "1502954475416400618,10,8,0.7,4,5,5,1,0,4,0.000,0.000,0.000\n"
)


class TestSearchTimeRatio:
    def test_summary_reports_the_ratio(self):
        result = run_benchmark(StreamConfig(count=6, seed=17))
        assert all(r.ms_search_unpruned > 0 for r in result.records if not r.error)
        ratio = summarize(result)["mean_search_time_ratio"]
        assert ratio == pytest.approx(
            sum(r.ms_search_unpruned / r.ms_search for r in result.records)
            / len(result.records),
            abs=1e-3,
        )

    def test_deterministic_zeroes_it_and_keeps_the_csv(self):
        config = StreamConfig(count=6, seed=17, deterministic=True)
        result = run_benchmark(config)
        assert all(r.ms_search_unpruned == 0.0 for r in result.records)
        summary = summarize(result)
        assert "mean_search_time_ratio" in summary
        assert summary["mean_search_time_ratio"] is None
        assert csv_text(result, deterministic=True) == PINNED_CSV


def test_import_loads_no_process_pool():
    """Only run_benchmark's worker branch loads the process pool."""
    code = (
        "import sys, mintest; "
        "print([m for m in ('multiprocessing', 'concurrent.futures') "
        "if m in sys.modules])"
    )
    src = Path(mintest.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    ).stdout
    assert out == "[]\n"


def test_bench_matrix_runs_the_analysis_once(monkeypatch, q25):
    """One record: one analysis, then the two class-set searches, with no
    whole-matrix solve, certification or column statistics."""
    from mintest import bench, heuristic, mandatory, search

    calls = Counter()

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return wrapper

    names = (
        "find_mandatory",
        "partition_by_mandatory",
        "class_views",
        "enumerate_local_minimal_tests",
        "enumerate_minimal_tests",
        "is_deadend",
        "column_pair_stats",
    )
    for module in (mandatory, heuristic, search, bench):
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    record = bench_matrix(q25)
    assert not record.mismatch
    assert calls == {
        "find_mandatory": 1,
        "partition_by_mandatory": 1,
        "class_views": 1,
        "enumerate_local_minimal_tests": 2,
    }


def test_deterministic_output_is_pinned(capsys):
    """The deterministic bench output, byte for byte, for a stream and for
    a fixture replay."""
    from mintest.cli import main

    config = StreamConfig(count=40, seed=3, deterministic=True)
    text = csv_text(run_benchmark(config), deterministic=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "b67615bca3545ead2d101d77a6292f5fd97917e84cdc39995e82899469059f99"
    )
    assert main(["bench", "--fixture", "q25x10", "--deterministic"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "8c5baf76bb5a9c521bed9bdafbfef35a1600e7d5795f3530b348621efaaa5677"
    )
