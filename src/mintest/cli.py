"""Command-line interface.

Verbs: analyze, enumerate, verify, oracle, gen, bench.  Inputs are matrix
files (one '0'/'1' row per line) or class-set files (see the data format
docs); bundled fixture names are accepted wherever a path is.  Exit codes:
0 success, 1 input error (a malformed command line included), 2
verification mismatch, 3 resource ceiling.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from dataclasses import asdict
from itertools import product

from .fixtures import UnknownFixtureError, fixture_text, list_fixtures
from .generate import GenerationError, GeneratorConfig, generate_matrix
from .heuristic import column_pair_stats, estimate_length, union_pair_stats
from .mandatory import (
    candidate_pair_count,
    class_views,
    find_mandatory,
    opens_class_set,
    parse_class_set,
    partition_by_mandatory,
)
from .matrix import BooleanMatrix, MatrixFormatError, parse_matrix
from .oracle import OracleCeilingError, oracle_deadend_tests, oracle_minimal_tests
from .pruning import ClassSet, bijective_column_pairs, multiplicity_seeds
from .search import (
    SearchCeilingError,
    SearchConfig,
    enumerate_local_minimal_tests,
    enumerate_minimal_tests,
    verify_test,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_MISMATCH = 2
EXIT_CEILING = 3


def _read_input(source: str) -> str:
    if source in list_fixtures():
        return fixture_text(source)
    try:
        with open(source, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise MatrixFormatError(f"cannot read input {source!r}: {exc}") from exc


def _parse_any(text: str) -> BooleanMatrix | ClassSet:
    """Parse a matrix or a class-set file, deciding by the first line."""
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if opens_class_set(line):
            return parse_class_set(text)
        break
    return parse_matrix(text)


def _at_least(flag: str, value: int, low: int = 0) -> None:
    """Refuse a numeric flag below its least allowed value."""
    if value < low:
        raise MatrixFormatError(f"{flag} must be >= {low}, got {value}")


def _generator_config(
    rows: int, cols: int, density: float, seed: int = 0
) -> GeneratorConfig:
    """A generator config; a shape or density out of range is an input
    error."""
    try:
        return GeneratorConfig(rows=rows, cols=cols, ones_density=density, seed=seed)
    except ValueError as exc:
        raise MatrixFormatError(str(exc)) from None


def _emit(path: str | None, text: str) -> None:
    """The one writer of results: the file at `path`, or stdout.  A reader
    that closes stdout early ends the listing quietly; stdout then points
    at the null device, so that the exit flush cannot fail again."""
    text = text if text.endswith("\n") else text + "\n"
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        return
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(devnull := os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        os.close(devnull)


def _columns_str(columns) -> str:
    return ",".join(str(c) for c in columns)


def _test_str(test) -> str:
    """A test in a listing of tests, where the empty one needs a name."""
    return _columns_str(test) or "(empty)"


def _estimate_lines(title: str, est) -> list[str]:
    lines = [f"{title}: t0 = {est.t0}" + (" (degenerate)" if est.degenerate else "")]
    lines.append(
        "  column order by undistinguished pairs: "
        + " ".join(str(c) for c in est.sorted_columns)
    )
    lines.append(
        "  ratios: " + " ".join(f"{r:.6f}" for r in est.ratio_list)
    )
    lines.append(
        "  beta sequence: " + " ".join(f"{b:.7f}" for b in est.beta_sequence)
    )
    lines.append(
        f"  bracket: {est.beta_t:.7f} > {est.threshold:.7f} >= {est.beta_next:.7f}"
    )
    return lines


def _class_docs(cs: ClassSet | None) -> list[dict]:
    """The classes of a class set, or of a matrix's class views."""
    return [
        {"name": v.name, "key": "".join(map(str, v.key)), "members": list(v.row_labels)}
        for v in (cs.classes if cs else ())
    ]


def _class_lines(cs: ClassSet | None) -> list[str]:
    return [
        f"  {d['name']} [{d['key']}] rows: " + " ".join(map(str, d["members"]))
        for d in _class_docs(cs)
    ]


def _seed_docs(cs: ClassSet, k: int) -> list[dict]:
    return [
        {"columns": list(s.columns), "class": s.class_name, "rows": list(s.rows)}
        for s in multiplicity_seeds(cs, k)
    ]


def _seed_lines(cs: ClassSet, k: int) -> list[str]:
    lines = [f"multiplicity seeds (k={k}, p>=3):"]
    for s in multiplicity_seeds(cs, k):
        lines.append(
            f"  ({_columns_str(s.columns)}) -> {s.class_name}: ({_columns_str(s.rows)})"
        )
    return lines


def _cmd_analyze(args) -> int:
    _at_least("--seed-size", args.seed_size)
    data = _parse_any(_read_input(args.input))
    if isinstance(data, ClassSet):
        return _analyze_class_set(args, data)
    matrix = data
    if matrix.row_count < 2:  # the pair statistics need a row pair
        raise MatrixFormatError("the matrix needs at least two rows")
    mandatory = find_mandatory(matrix)
    partition = partition_by_mandatory(matrix, mandatory.columns)
    stats = column_pair_stats(matrix)
    estimate = estimate_length(stats)
    cand = candidate_pair_count(matrix)
    cs = class_views(matrix, partition) if partition.classes else None
    local = union_pair_stats(cs) if cs else None
    local_est = estimate_length(local) if local else None

    if args.json:
        doc = {
            "rows": matrix.row_count,
            "cols": matrix.col_count,
            "total_pairs": matrix.total_pairs,
            "candidate_pairs": cand,
            "mandatory": list(mandatory.columns),
            "witnesses": {
                str(c): [list(p) for p in ws]
                for c, ws in mandatory.witnesses.items()
            },
            "classes": _class_docs(cs),
            "dropped_singletons": list(partition.dropped_singletons),
            "within_pair_total": partition.within_pair_total,
            "undistinguished_pairs": list(stats.undistinguished),
            "estimate": asdict(estimate),
            "local_estimate": asdict(local_est) if local_est else None,
            "bijective_column_pairs": [
                list(p) for p in bijective_column_pairs(matrix)
            ],
        }
        if args.seeds and cs:
            doc["seeds"] = _seed_docs(cs, args.seed_size)
        _emit(args.output, json.dumps(doc, indent=2, sort_keys=True))
        return EXIT_OK

    lines = [
        f"matrix: {matrix.row_count} rows x {matrix.col_count} columns "
        f"({matrix.total_pairs} row pairs)",
        f"candidate pairs (popcount diff 1): {cand} "
        f"({100.0 * cand / matrix.total_pairs:.1f}%)",
        "mandatory columns: "
        + (" ".join(str(c) for c in mandatory.columns) or "(none)"),
    ]
    for c in mandatory.columns:
        pairs = " ".join(f"({a},{b})" for a, b in mandatory.witnesses[c])
        lines.append(f"  x{c}: {pairs}")
    lines.append(
        "classes over mandatory columns "
        f"({' '.join(str(c) for c in mandatory.columns) or '-'}):"
    )
    free = cs.columns if cs else ()
    lines.extend(_class_lines(cs))
    if partition.dropped_singletons:
        lines.append(
            "  singletons dropped: "
            + " ".join(str(x) for x in partition.dropped_singletons)
        )
    if cs:
        lines.append(
            f"pairs left inside classes: {partition.within_pair_total} "
            f"of {matrix.total_pairs}"
        )
        lines.append("class rows over free columns "
                     + " ".join(str(c) for c in free) + ":")
        for view in cs.classes:
            for lab, row in zip(view.row_labels, view.rows):
                bits = format(row, f"0{len(free)}b")
                lines.append(f"  {view.name} {lab:>3}: {' '.join(bits)}")
    lines.append("undistinguished pairs per column:")
    lines.append(
        "  " + " ".join(f"x{c}={u}" for c, u in zip(stats.columns, stats.undistinguished))
    )
    lines.extend(_estimate_lines("length estimate", estimate))
    if local_est:
        lines.extend(_estimate_lines("local estimate (two largest classes)", local_est))
        lines.append(
            f"integral estimate: {len(mandatory.columns)} + {local_est.t0} = "
            f"{len(mandatory.columns) + local_est.t0}"
        )
    bij = bijective_column_pairs(matrix)
    if bij:
        lines.append(
            "paired (equal/complementary) columns: "
            + " ".join(f"({a},{b})" for a, b in bij)
        )
    if args.seeds and cs:
        lines.extend(_seed_lines(cs, args.seed_size))
    _emit(args.output, "\n".join(lines))
    return EXIT_OK


def _analyze_class_set(args, cs: ClassSet) -> int:
    if args.json:
        doc = {
            "columns": list(cs.columns),
            "mandatory": list(cs.mandatory),
            "parent_rows": cs.total_rows,
            "within_pair_total": cs.within_pair_total,
            "parent_pair_total": cs.parent_pair_total,
            "classes": _class_docs(cs),
        }
        if args.seeds:
            doc["seeds"] = _seed_docs(cs, args.seed_size)
        _emit(args.output, json.dumps(doc, indent=2, sort_keys=True))
        return EXIT_OK
    lines = [
        f"class set: {len(cs.classes)} classes over columns "
        + " ".join(str(c) for c in cs.columns),
        "mandatory columns of the parent matrix: "
        + (" ".join(str(c) for c in cs.mandatory) or "(unknown)"),
    ]
    lines.extend(_class_lines(cs))
    total, left = cs.parent_pair_total, cs.within_pair_total
    lines.append(f"pairs left inside classes: {left}")
    if total:
        # classes of one row each leave no pairs to divide by
        ratio = f" (reduction x{total / left:.1f})" if left else ""
        lines.append(f"parent matrix pairs: {total}{ratio}")
    if args.seeds:
        lines.extend(_seed_lines(cs, args.seed_size))
    _emit(args.output, "\n".join(lines))
    return EXIT_OK


def _search_config(args) -> SearchConfig:
    return SearchConfig(
        use_heuristic=not args.no_heuristic,
        seed_prune=not args.no_theorem2,
        pair_prune=not args.no_bijective_prune,
        first_only=args.first,
    )


def _cmd_enumerate(args) -> int:
    data = _parse_any(_read_input(args.input))
    config = _search_config(args)
    if isinstance(data, ClassSet):
        report = enumerate_local_minimal_tests(data, config)
        tests = report.integral_tests if data.mandatory else report.local_tests
        if args.report:
            _emit(args.report, "\n".join(map(_columns_str, tests)))
        if args.json:
            doc = {
                "local_length": report.local_length,
                "local_tests": [list(t) for t in report.local_tests],
                "mandatory": list(report.mandatory),
                "integral_length": report.integral_length,
                "integral_tests": [list(t) for t in report.integral_tests],
                "within_pair_total": report.within_pair_total,
                "parent_pair_total": report.parent_pair_total,
                "corrections": [asdict(c) for c in report.corrections],
            }
            _emit(args.output, json.dumps(doc, indent=2, sort_keys=True))
            return EXIT_OK
        lines = [
            f"local minimal test length: {report.local_length}",
            "local minimal tests: "
            + "; ".join(f"({_columns_str(t)})" for t in report.local_tests),
        ]
        if data.mandatory:
            lines.append(
                f"integral length: {len(report.mandatory)} + {report.local_length}"
                f" = {report.integral_length}"
            )
            for t in report.integral_tests:
                lines.append(f"  integral test: {_columns_str(t)}")
        _emit(args.output, "\n".join(lines))
        return EXIT_OK

    report = enumerate_minimal_tests(data, config)
    if args.report:
        _emit(args.report, "\n".join(map(_columns_str, report.minimal_tests)))
    if args.json:
        _emit(args.output, report.to_json())
        return EXIT_OK
    lines = [
        f"minimal test length: {report.minimal_length}",
        f"mandatory columns: {_columns_str(report.mandatory) or '(none)'}",
        f"minimal tests: {len(report.minimal_tests)}",
    ]
    for t, ok in zip(report.minimal_tests, report.deadend_verified):
        flag = "dead-end" if ok else "NOT DEAD-END"
        lines.append(f"  {_test_str(t)} ({flag})")
    for corr in report.corrections:
        lines.append(
            f"correction: {corr.old_length} -> {corr.new_length} ({corr.reason})"
        )
    st = report.stats
    lines.append(
        f"stats: {st.candidates_checked} candidates checked, "
        f"{st.sweep_checked} sweep checks, "
        f"{st.pruned_by_seeds} pruned by seeds, "
        f"{st.pruned_by_pairs} pruned by paired columns"
    )
    _emit(args.output, "\n".join(lines))
    return EXIT_OK


def _cmd_verify(args) -> int:
    _at_least("--ceiling", args.ceiling)
    data = _parse_any(_read_input(args.input))
    if isinstance(data, ClassSet):
        raise MatrixFormatError("verify needs a full matrix input")
    try:
        columns = tuple(int(t) for t in args.test.replace(",", " ").split())
    except ValueError:
        raise MatrixFormatError(f"bad column list {args.test!r}") from None
    outside = [c for c in columns if not 1 <= c <= data.col_count]
    if outside:
        raise MatrixFormatError(
            f"column {min(outside)} out of range 1..{data.col_count}"
        )
    verdict = verify_test(data, columns, oracle_ceiling=args.ceiling)
    if args.json:
        _emit(args.output, json.dumps(asdict(verdict), indent=2, sort_keys=True))
    else:
        lines = [
            f"columns: {_columns_str(verdict.columns)}",
            f"test: {'yes' if verdict.test else 'no'}",
            f"dead-end: {'-' if verdict.deadend is None else ('yes' if verdict.deadend else 'no')}",
            f"minimal: {verdict.minimal}"
            + (f" (minimal length {verdict.min_length})" if verdict.min_length is not None else ""),
        ]
        if verdict.note:
            lines.append(f"note: {verdict.note}")
        _emit(args.output, "\n".join(lines))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    _at_least("--ceiling", args.ceiling)
    _at_least("--ceiling-deadend", args.ceiling_deadend)
    data = _parse_any(_read_input(args.input))
    if isinstance(data, ClassSet):
        raise MatrixFormatError("the oracle needs a full matrix input")
    if args.deadend:
        result = oracle_deadend_tests(data, n_ceiling=args.ceiling_deadend)
    else:
        result = oracle_minimal_tests(data, n_ceiling=args.ceiling)
    if args.report:
        _emit(args.report, "\n".join(map(_columns_str, result.minimal_tests)))
    if args.json:
        doc = {
            "min_length": result.min_length,
            "minimal_tests": [list(t) for t in result.minimal_tests],
            "deadend_tests": (
                None
                if result.deadend_tests is None
                else [list(t) for t in result.deadend_tests]
            ),
            "subsets_checked": result.subsets_checked,
        }
        _emit(args.output, json.dumps(doc, indent=2, sort_keys=True))
        return EXIT_OK
    lines = [
        f"minimal test length: {result.min_length}",
        f"minimal tests: {len(result.minimal_tests)}",
    ]
    for t in result.minimal_tests:
        lines.append(f"  {_test_str(t)}")
    if result.deadend_tests is not None:
        lines.append(f"dead-end tests: {len(result.deadend_tests)}")
        for t in result.deadend_tests:
            lines.append(f"  {_test_str(t)}")
    _emit(args.output, "\n".join(lines))
    return EXIT_OK


def _cmd_gen(args) -> int:
    config = _generator_config(args.rows, args.cols, args.density, args.seed)
    matrix = generate_matrix(config)
    lines = [
        f"# generated: rows={args.rows} cols={args.cols} "
        f"density={args.density:g} seed={args.seed}"
    ]
    lines.extend(matrix.row_string(lab) for lab in matrix.row_labels)
    _emit(args.output, "\n".join(lines))
    return EXIT_OK


def _cmd_bench(args) -> int:
    # here, so that the other verbs do not load the benchmark
    from .bench import (
        StreamConfig,
        bench_matrix,
        bench_result,
        csv_text,
        run_benchmark,
        summarize,
    )

    _at_least("--count", args.count)
    _at_least("--oracle-ceiling", args.oracle_ceiling)
    _at_least("--workers", args.workers, 1)
    if args.fixture:
        data = _parse_any(fixture_text(args.fixture))
        if isinstance(data, ClassSet):
            matrices = [
                name
                for name in list_fixtures()
                if not isinstance(_parse_any(fixture_text(name)), ClassSet)
            ]
            raise MatrixFormatError(
                f"bench replays matrix fixtures only ({', '.join(matrices)}); "
                f"{args.fixture} is a class-set fixture"
            )
        record = bench_matrix(data, oracle_ceiling=args.oracle_ceiling)
        result = bench_result([record], args.deterministic)
    else:
        for rows, cols, density in product(args.rows, args.cols, args.densities):
            _generator_config(rows, cols, density)
        config = StreamConfig(
            count=args.count,
            rows=tuple(args.rows),
            cols=tuple(args.cols),
            densities=tuple(args.densities),
            seed=args.seed,
            deterministic=args.deterministic,
            oracle_ceiling=args.oracle_ceiling,
            workers=args.workers,
        )
        result = run_benchmark(config)
    _emit(args.output, csv_text(result, args.deterministic))
    if args.json:
        print(json.dumps(summarize(result), indent=2, sort_keys=True), file=sys.stderr)
    return EXIT_OK if result.ok else EXIT_MISMATCH


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit with the input-error
    code; argparse's own 2 would read as a verification mismatch.
    Subcommand parsers are made of the same class."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mintest",
        description=(
            "Minimal distinguishing column sets (diagnostic tests) of Boolean "
            "matrices.  Bundled fixtures: " + ", ".join(list_fixtures())
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, input_required=True):
        p.add_argument(
            "--input",
            required=input_required,
            help="matrix or class-set file, or a bundled fixture name",
        )
        p.add_argument("--output", help="write the result to this file")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("analyze", help="mandatory columns, classes, estimates")
    add_common(p)
    p.add_argument("--seeds", action="store_true", help="print multiplicity seeds")
    p.add_argument(
        "--seed-size", type=int, default=2, help="seed subset size (default 2)"
    )
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("enumerate", help="enumerate all minimal tests")
    add_common(p)
    group = p.add_mutually_exclusive_group()
    group.add_argument(
        "--all", action="store_true", default=True, help=argparse.SUPPRESS
    )
    group.add_argument(
        "--first", action="store_true", help="stop after the first minimal test"
    )
    p.add_argument("--no-heuristic", action="store_true")
    p.add_argument("--no-theorem2", action="store_true")
    p.add_argument("--no-bijective-prune", action="store_true")
    p.add_argument("--report", help="CSV file: one minimal test per line")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="check one column set")
    add_common(p)
    p.add_argument("--test", required=True, help="column list, e.g. 1,2,4,5,6,8,10")
    p.add_argument("--ceiling", type=int, default=22, help="oracle column ceiling")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle", help="exhaustive enumeration (ground truth)")
    add_common(p)
    p.add_argument("--deadend", action="store_true", help="also list dead-end tests")
    p.add_argument("--ceiling", type=int, default=22)
    p.add_argument("--ceiling-deadend", type=int, default=16)
    p.add_argument("--report", help="CSV file: one minimal test per line")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("gen", help="generate a seeded random matrix")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", help="write the matrix to this file")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", help="random-matrix stream benchmark")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--rows", type=int, nargs="+", default=[10])
    p.add_argument("--cols", type=int, nargs="+", default=[8])
    p.add_argument("--densities", type=float, nargs="+", default=[0.3, 0.5, 0.7])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--deterministic", action="store_true")
    p.add_argument("--oracle-ceiling", type=int, default=22)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--fixture", help="replay a bundled matrix fixture as a 1-record stream")
    p.add_argument("--output", help="write the CSV to this file")
    p.add_argument("--json", action="store_true", help="summary JSON on stderr")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():  # restores an in-process caller's state
        warnings.showwarning = lambda msg, *_: print(f"warning: {msg}", file=sys.stderr)
        try:
            return args.func(args)
        except (MatrixFormatError, UnknownFixtureError, GenerationError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        except (OracleCeilingError, SearchCeilingError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CEILING


if __name__ == "__main__":
    sys.exit(main())
