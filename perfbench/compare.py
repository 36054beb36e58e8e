"""Read saved benchmark reports: the spread of one set, or a verdict between two.

Save each run's standard output to its own file in a directory, e.g.

    python3 perfbench/run.py --workload mixture-d8 --seed 3 > parent/mixture-d8.seed3.txt

then

    python3 perfbench/compare.py parent            # median, quartiles and spread per metric
    python3 perfbench/compare.py parent change     # one verdict per workload and metric

Runs are paired by workload and seed. A metric is "better" when the change
wins at least nine in ten pairs and the medians differ by more than the
parent's interquartile range; "worse" when the change's median is worse than
the parent's by more than the metric's bound in BENCHMARK.json; "unresolved"
when either side's interquartile range, as a share of its median, exceeds
that bound; otherwise "unchanged".
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
REPORT_PREFIX = "perfbench-report "


def load_reports(directory: Path) -> dict:
    """{(workload, trace): {seed: report}}, each report with its result line as "result"."""
    reports: dict = {}
    for path in sorted(directory.iterdir()):
        if not path.is_file():
            continue
        lines = path.read_text(encoding="utf-8", errors="replace").splitlines()
        report = next((json.loads(l[len(REPORT_PREFIX):]) for l in lines if l.startswith(REPORT_PREFIX)), None)
        if report is None:
            continue
        report["result"] = json.loads(lines[-1])
        reports.setdefault((report["workload"], report["trace"]), {})[report["seed"]] = report
    return reports


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def rel_spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def verdict(pairs: list[tuple[float, float]], better: str, bound: float) -> tuple[str, int]:
    """Verdict for (parent, change) value pairs, and the number of pairs the change won."""
    sign = -1.0 if better == "lower" else 1.0
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    p_q1, p_med, p_q3 = quartiles(parent)
    gain = sign * (statistics.median(change) - p_med)
    if wins >= 0.9 * len(pairs) and gain > p_q3 - p_q1:
        return "better", wins
    if -gain > bound * abs(p_med):
        return "worse", wins
    if max(rel_spread(parent), rel_spread(change)) > bound:
        return "unresolved", wins
    return "unchanged", wins


def _fmt(x: float) -> str:
    return f"{x:.5g}"


def failed_share(runs: dict) -> str:
    attempted = sum(r["result"]["attempted"] for r in runs.values())
    failed = sum(r["result"]["failed"] for r in runs.values())
    correct = all(r["result"]["correct"] for r in runs.values())
    return f"{failed}/{attempted} failed, correct={correct}"


def show_spread(reports: dict, bounds: dict) -> None:
    print(f"{'workload':<18} {'metric':<26} {'n':>3} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>8} {'bound':>6}")
    for (workload, trace), runs in sorted(reports.items()):
        print(f"# {workload} trace={trace}: {len(runs)} runs, {failed_share(runs)}")
        names = list(next(iter(runs.values()))["metrics"])
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs.values() if name in r["metrics"]]
            q1, q2, q3 = quartiles(values)
            bound = bounds.get(name, {}).get("bound")
            flag = "" if bound is None or rel_spread(values) < bound / 3 else "  > bound/3"
            print(f"{workload:<18} {name:<26} {len(values):>3} {_fmt(q2):>11} {_fmt(q1):>11} {_fmt(q3):>11} "
                  f"{rel_spread(values):>8.4f} {'' if bound is None else bound:>6}{flag}")


def show_comparison(parent: dict, change: dict, bounds: dict) -> None:
    print(f"{'workload':<18} {'metric':<20} {'parent median [q1, q3]':<36} {'change median [q1, q3]':<36} {'wins':>6}  verdict")
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        if trace:
            continue
        seeds = sorted(set(parent[key]) & set(change[key]))
        print(f"# {workload}: {len(seeds)} pairs; parent {failed_share(parent[key])}; change {failed_share(change[key])}")
        for name, spec in bounds.items():
            pairs = [(parent[key][s]["metrics"][name]["value"], change[key][s]["metrics"][name]["value"])
                     for s in seeds if name in parent[key][s]["metrics"] and name in change[key][s]["metrics"]]
            if not pairs:
                continue
            result, wins = verdict(pairs, spec["better"], spec["bound"])
            sides = []
            for values in ([p for p, _ in pairs], [c for _, c in pairs]):
                q1, q2, q3 = quartiles(values)
                sides.append(f"{_fmt(q2)} [{_fmt(q1)}, {_fmt(q3)}]")
            print(f"{workload:<18} {name:<20} {sides[0]:<36} {sides[1]:<36} {wins:>2}/{len(pairs):<3}  {result}")


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    sets = [load_reports(Path(d)) for d in argv]
    if not all(sets):
        print("error: no perfbench reports found", file=sys.stderr)
        return 2
    if len(sets) == 1:
        show_spread(sets[0], bounds)
    else:
        show_comparison(sets[0], sets[1], bounds)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
