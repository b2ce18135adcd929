"""One workload in one process: set up, measure, check answers, report.

Started by run.py as

    python3 perfbench/worker.py ROOT WORKLOAD SEED SECONDS TRACE

Every observation is one JSON line on stdout, flushed at once, so that the
parent still knows which matrices finished if it has to stop this process
at its wall-clock budget.  Answer checks run between timed calls, never
inside them.
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import time
import warnings
from math import comb
from pathlib import Path

from spans import Tracer
from workloads import WORKLOADS, check_minimal_tests, necessary_columns, pair_candidates, parse_rows

SETUP_REPS = 3

# The public functions the traced pass wraps, by defining module.
TRACED = {
    "parse_matrix": "matrix",
    "sort_rows_by_binary_value": "matrix",
    "find_mandatory": "mandatory",
    "partition_by_mandatory": "mandatory",
    "class_views": "mandatory",
    "column_pair_stats": "heuristic",
    "union_pair_stats": "heuristic",
    "estimate_length": "heuristic",
    "multiplicity_seeds": "pruning",
    "all_k_subsets_fail": "pruning",
    "first_collision": "pruning",
    "paired_view_columns": "pruning",
    "enumerate_minimal_tests": "search",
    "local_deadend": "search",
    "local_deadend_reduce": "search",
    "is_deadend": "search",
}

clock = time.perf_counter


def emit(**event) -> None:
    print(json.dumps(event), flush=True)


class Run:
    """One workload's matrices, their certified answers and the failures."""

    def __init__(self, mt, workload, texts: list[str]) -> None:
        self.mt = mt
        self.workload = workload
        self.texts = texts
        self.rows = [parse_rows(t) for t in texts]
        self.answers: list[tuple | None] = [None] * len(texts)
        self.failed: set[int] = set()
        self.analyzed: set[int] = set()

    def fail(self, index: int, why: str) -> None:
        if index not in self.failed:
            self.failed.add(index)
            emit(ev="fail", index=index, why=why)

    def check(self, index: int, report) -> None:
        """Certify the first answer for a matrix; later ones must equal it."""
        key = (report.minimal_length, [list(t) for t in report.minimal_tests])
        if not all(report.deadend_verified):
            self.fail(index, "a reported test is not verified dead-end")
        elif self.answers[index] is None:
            rows, n = self.rows[index]
            reason = check_minimal_tests(rows, n, *key)
            if reason:
                self.fail(index, reason)
            else:
                self.answers[index] = key
                emit(ev="certified", index=index)
        elif key != self.answers[index]:
            self.fail(index, "answer differs from the certified one")

    def solve(self, index: int, label: str, config):
        """parse_matrix + enumerate_minimal_tests on one matrix, timed and checked.

        Returns the report (None if the call raised) and the seconds it took."""
        mt = self.mt
        t0 = clock()
        try:
            report = mt.enumerate_minimal_tests(mt.parse_matrix(self.texts[index]), config)
        except Exception as exc:  # a crash fails this matrix, not the run
            self.fail(index, f"{label}: {type(exc).__name__}: {exc}")
            return None, 0.0
        seconds = clock() - t0
        emit(ev="solve", label=label, index=index, seconds=seconds)
        self.check(index, report)
        return report, seconds

    def analyze(self, index: int) -> float:
        """The chain `mintest analyze` runs, up to both length estimates.

        Returns the median time of the workload's repetitions."""
        mt = self.mt
        times = []
        for _ in range(self.workload.analyze_reps):
            t0 = clock()
            try:
                matrix = mt.sort_rows_by_binary_value(mt.parse_matrix(self.texts[index]))
                mandatory = mt.find_mandatory(matrix)
                partition = mt.partition_by_mandatory(matrix, mandatory.columns)
                mt.estimate_length(mt.column_pair_stats(matrix))
                if partition.classes:
                    mt.estimate_length(mt.union_pair_stats(mt.class_views(matrix, partition)))
            except Exception as exc:
                self.fail(index, f"analyze: {type(exc).__name__}: {exc}")
                return 0.0
            times.append(clock() - t0)
        if index not in self.analyzed:
            self.analyzed.add(index)
            if list(mandatory.columns) != necessary_columns(*self.rows[index]):
                self.fail(index, "analyze: wrong mandatory columns")
        return statistics.median(times)

    def measured_pass(self) -> None:
        """Solve and analyze each matrix in turn, so both totals span the
        same stretch of time and see the same load on the host."""
        config = self.mt.SearchConfig()
        solve_s = analyze_s = 0.0
        for i in range(len(self.texts)):
            solve_s += self.solve(i, "solve", config)[1]
            analyze_s += self.analyze(i)
        emit(ev="pass", label="solve", seconds=solve_s)
        emit(ev="analyze", seconds=analyze_s)

    def oracle_pass(self) -> int:
        """oracle_minimal_tests on every matrix; returns the subsets it checked."""
        mt = self.mt
        subsets = 0
        for i, text in enumerate(self.texts):
            t0 = clock()
            try:
                result = mt.oracle_minimal_tests(mt.parse_matrix(text))
            except Exception as exc:
                self.fail(i, f"oracle: {type(exc).__name__}: {exc}")
                continue
            emit(ev="oracle", index=i, seconds=clock() - t0)
            subsets += result.subsets_checked
            key = (result.min_length, [list(t) for t in result.minimal_tests])
            if key != self.answers[i]:
                self.fail(i, "search and oracle disagree")
        return subsets


def measure(run: Run, seconds: float) -> None:
    """Closed loop: whole passes back to back while the next one fits."""
    started = clock()
    while True:
        t0 = clock()
        run.measured_pass()
        now = clock()
        if now - started + (now - t0) > seconds:
            return


def trace_layers(run: Run, out_dir: Path, tag: str) -> dict[str, float]:
    """Per-layer self times and counts from one traced solve of each matrix.

    Each matrix is solved untraced, traced and with pruning off, back to
    back, so that the tracing overhead compares two solves made under the
    same load on the host."""
    mt = run.mt
    counts = dict(seed_scan_subsets=0, seeds_found=0, sweep_checked=0, sweep_skipped=0)

    def on_seeds(args, kwargs, result):
        class_set = args[0] if args else kwargs["class_set"]
        k = args[1] if len(args) > 1 else kwargs["k"]
        counts["seed_scan_subsets"] += comb(len(class_set.columns), k)
        counts["seeds_found"] += len(result)

    def on_sweep(args, kwargs, result):
        counts["sweep_checked"] += result.checked
        counts["sweep_skipped"] += result.skipped_by_seed

    hooks = {"multiplicity_seeds": on_seeds, "all_k_subsets_fail": on_sweep}
    # A function a later version no longer has is skipped; its layer reads 0.
    tracer = Tracer(
        {
            name: (fn, hooks.get(name))
            for name, module in TRACED.items()
            if (fn := getattr(getattr(mt, module, None), name, None)) is not None
        }
    )
    default = mt.SearchConfig()
    unpruned = mt.SearchConfig(seed_prune=False, pair_prune=False)
    reports = []
    untraced_s = traced_s = off_s = 0.0
    for i in range(len(run.texts)):
        untraced_s += run.solve(i, "untraced", default)[1]
        tracer.install()
        try:
            report, seconds = run.solve(i, "traced", default)
        finally:
            tracer.restore()
        traced_s += seconds
        if report is not None:
            reports.append(report)
        off_s += run.solve(i, "pruning-off", unpruned)[1]
    oracle_subsets = run.oracle_pass() if run.workload.uses_oracle else 0

    out_dir.mkdir(parents=True, exist_ok=True)
    tracer.write(out_dir / f"spans-{tag}.csv.gz")

    s = tracer.self_s
    stats = [r.stats for r in reports]
    pruned_by_seeds = sum(st.pruned_by_seeds for st in stats)
    return {
        "matrix.parse_s": s["parse_matrix"],
        "matrix.sort_s": s["sort_rows_by_binary_value"],
        "mandatory.find_s": s["find_mandatory"],
        "mandatory.partition_s": s["partition_by_mandatory"] + s["class_views"],
        "mandatory.pair_candidates": sum(pair_candidates(rows) for rows, _ in run.rows),
        "mandatory.columns": sum(len(r.mandatory) for r in reports),
        "mandatory.classes": sum(r.partition.class_count for r in reports),
        "heuristic.estimate_s": s["column_pair_stats"] + s["union_pair_stats"] + s["estimate_length"],
        "heuristic.t0_overshoot": sum(
            r.estimate_initial - r.minimal_length for r in reports if r.estimate_initial is not None
        ),
        "heuristic.sizes_visited": sum(len(st.lengths_visited) for st in stats),
        "pruning.seed_scan_s": s["multiplicity_seeds"],
        "pruning.seed_scan_subsets": counts["seed_scan_subsets"],
        "pruning.seeds_found": counts["seeds_found"],
        "pruning.seed_yield": pruned_by_seeds / counts["seed_scan_subsets"]
        if counts["seed_scan_subsets"]
        else 0.0,
        "pruning.sweep_s": s["all_k_subsets_fail"],
        "pruning.sweep_checked": counts["sweep_checked"],
        "pruning.sweep_skipped": counts["sweep_skipped"],
        "pruning.collision_s": s["first_collision"],
        "pruning.collision_calls": tracer.calls["first_collision"],
        "pruning.pairs_s": s["paired_view_columns"],
        "pruning.off_solve_s": off_s,
        "search.self_s": s["enumerate_minimal_tests"],
        "search.candidates_checked": sum(st.candidates_checked for st in stats),
        "search.pruned_by_seeds": pruned_by_seeds,
        "search.pruned_by_pairs": sum(st.pruned_by_pairs for st in stats),
        "search.sweep_checked": sum(st.sweep_checked for st in stats),
        "search.deadend_s": s["local_deadend"] + s["local_deadend_reduce"] + s["is_deadend"],
        "search.deadend_checks": tracer.calls["local_deadend"] + tracer.calls["is_deadend"],
        "oracle.subsets_checked": oracle_subsets,
        "trace.solve_s": traced_s,
        "trace.untraced_solve_s": untraced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.spans": tracer.span_count,
    }


def fresh_import_seconds(src: Path) -> float:
    """Time to import mintest in a new interpreter, as a user's first call pays it."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import mintest; print(time.perf_counter() - t)"
    )
    out = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True, text=True, check=True)
    return float(out.stdout)


def main(argv: list[str]) -> int:
    root, name, seed, seconds, traced = Path(argv[1]), argv[2], int(argv[3]), float(argv[4]), argv[5] == "1"
    sys.path.insert(0, str(root / "src"))
    import mintest

    where = Path(mintest.__file__).resolve()
    if (root / "src").resolve() not in where.parents:
        raise SystemExit(f"imported mintest from {where}, not from this checkout")
    # Random matrices often repeat a column; that is valid input.
    warnings.simplefilter("ignore", mintest.DuplicateColumnWarning)

    workload = WORKLOADS[name]
    texts = None
    import_s = []
    make_s = []
    for _ in range(SETUP_REPS):
        import_s.append(fresh_import_seconds(root / "src"))
        t0 = clock()
        made = workload.matrices(seed)
        make_s.append(clock() - t0)
        if texts is not None and made != texts:
            raise SystemExit("matrix generation is not deterministic")
        texts = made
    emit(ev="setup", seconds=statistics.median(import_s) + statistics.median(make_s), matrices=len(texts))

    run = Run(mintest, workload, texts)
    if traced:
        emit(ev="layers", metrics=trace_layers(run, root / "perfbench" / "out", f"{name}-{seed}"))
    else:
        measure(run, seconds)
    emit(ev="done", peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
