"""Benchmark of mintest: time to certified minimal tests, end to end and per layer.

    python3 perfbench/run.py --workload dense-search --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  Each workload runs in its own
child process (worker.py) under a wall-clock budget; matrices it has not
certified when the budget runs out count as failed.  The child generates
the workload's matrices from the seed and hands the library only matrix
text.  The output is a readable summary, then, as the last line, one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the
`end_to_end` metrics of BENCHMARK.json with `--trace 0`, the `per_layer`
ones with `--trace 1`.  `--workload all` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUDGET_S = 150


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (q in [0, 1])."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def run_worker(workload: str, seed: int, seconds: int, trace: bool) -> tuple[list[dict], str | None]:
    """Events the child printed, and why it stopped early (None if it did not)."""
    cmd = [sys.executable, str(HERE / "worker.py"), str(ROOT), workload, str(seed), str(seconds), str(int(trace))]
    try:
        proc = subprocess.run(cmd, capture_output=True, timeout=BUDGET_S, cwd=ROOT)
        out, err = proc.stdout, proc.stderr
        stopped = None if proc.returncode == 0 else f"worker exited with code {proc.returncode}"
    except subprocess.TimeoutExpired as exc:
        out, err = exc.stdout or b"", exc.stderr or b""
        stopped = f"worker stopped at the {BUDGET_S} s budget"
    sys.stderr.write(err.decode(errors="replace"))
    events = []
    for line in out.decode(errors="replace").splitlines():
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            pass  # the last line of a stopped worker may be cut off
    return events, stopped


def of(events: list[dict], ev: str, label: str | None = None) -> list[dict]:
    return [e for e in events if e["ev"] == ev and (label is None or e.get("label") == label)]


def end_to_end(events: list[dict]) -> dict[str, float]:
    metrics: dict[str, float] = {}
    passes = [e["seconds"] for e in of(events, "pass", "solve")]
    analyses = [e["seconds"] for e in of(events, "analyze")]
    if passes:
        metrics["solve_s"] = statistics.median(passes)
    if analyses:
        metrics["analyze_s"] = statistics.median(analyses)
    done = of(events, "done")
    peak_kb = done[0]["peak_rss_kb"] if done else resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics["peak_rss_mb"] = peak_kb / 1024
    for e in of(events, "setup"):
        metrics["setup_s"] = e["seconds"]
    return metrics


def run_one(spec: dict, workload: str, seed: int, seconds: int, trace: bool) -> int:
    events, stopped = run_worker(workload, seed, seconds, trace)
    setup = of(events, "setup")
    if not setup:
        print(f"error: {workload}: the worker set up nothing ({stopped})", file=sys.stderr)
        return 2
    attempted = setup[0]["matrices"]
    certified = {e["index"] for e in of(events, "certified")}
    fails = of(events, "fail")
    failed = len(set(range(attempted)) - certified | {e["index"] for e in fails})

    if trace:
        layers = of(events, "layers")
        computed = layers[0]["metrics"] if layers else {}
        declared = spec["per_layer"]
    else:
        computed = end_to_end(events)
        declared = spec["end_to_end"]
    names = [m["name"] for m in declared]
    unknown = set(computed) - set(names)
    if unknown:
        print(f"error: metrics missing from BENCHMARK.json: {sorted(unknown)}", file=sys.stderr)
        return 2
    # A stopped worker leaves some metrics unmeasured; they read 0 and the
    # run reads incorrect.
    metrics = {m["name"]: {"value": computed.get(m["name"], 0), "unit": m["unit"]} for m in declared}
    correct = stopped is None and failed == 0 and set(computed) == set(names)

    passes = "" if trace else f", {len(of(events, 'pass', 'solve'))} timed passes"
    print(f"{workload}  seed {seed}  trace {int(trace)}: {attempted} matrices{passes}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'error_rate':28s} {failed / attempted:>14.6g} ({failed} of {attempted} matrices failed)")
    solves = [e["seconds"] for e in of(events, "solve", "solve")]
    for q in (50, 90):
        if solves:
            beyond = len(solves) * (100 - q) // 100
            value = 1000 * percentile(solves, q / 100)
            print(f"  {f'solve_p{q}_ms':28s} {value:>14.6g} ms ({beyond} of {len(solves)} samples beyond)")
    oracle_s = sum(e["seconds"] for e in of(events, "oracle"))
    if oracle_s and "trace.untraced_solve_s" in computed:
        ratio = computed["trace.untraced_solve_s"] / oracle_s
        print(f"  {'oracle_s':28s} {oracle_s:>14.6g} s (untraced solve / oracle = {ratio:.3g})")
    for e in fails:
        print(f"  failed: matrix {e['index']}: {e['why']}", file=sys.stderr)
    if stopped:
        print(f"  {stopped}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = ROOT / "src" / "mintest"
    if not (package / "__init__.py").is_file():
        print(f"error: no mintest sources at {package}", file=sys.stderr)
        return 2
    with contextlib.redirect_stdout(sys.stderr):
        if not compileall.compile_dir(package, quiet=1):
            print("error: mintest does not compile", file=sys.stderr)
            return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    status = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        status = max(status, run_one(spec, workload, args.seed, args.seconds, bool(args.trace)))
    return status


if __name__ == "__main__":
    sys.exit(main())
