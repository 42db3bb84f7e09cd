#!/usr/bin/env python3
"""Compare two sets of benchmark runs, workload by workload and metric by metric.

    python3 saebench/compare.py BASE... --new NEW... [--trace 0|1] [--json]

BASE and NEW are run records (the JSON files the benchmark writes under
.saebench/results/) or directories of them. For each workload and metric
the tool reports both sides' medians and quartiles, the fraction of runs
the new side wins, and a verdict against BENCHMARK.json's bound:

  improved    the new median is better, the new side wins at least 9 in 10
              pairs, and the gap exceeds the base side's quartile spread;
  worse       the new median is worse than the base by more than the bound;
  unresolved  the runs spread wider than the bound, so a change that size
              cannot be told from noise;
  unchanged   otherwise.

Per-layer metrics (--trace 1) have no bound: they get medians, quartiles
and win fractions but no verdict. Exits 1 if any verdict is "worse".
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WIN_SHARE = 0.9


def load_records(paths):
    """Every run record under `paths` (files or directories)."""
    records = []
    for p in map(Path, paths):
        files = sorted(p.glob("*.json")) if p.is_dir() else [p]
        for f in files:
            rec = json.loads(f.read_text())
            if "result" in rec and "workload" in rec:
                records.append(rec)
    return records


def group(records, trace):
    """{workload: {metric: [(seed, value), ...]}} for records of one mode."""
    out = {}
    for rec in records:
        if bool(rec.get("trace")) != bool(trace):
            continue
        metrics = out.setdefault(rec["workload"], {})
        for name, m in rec["result"]["metrics"].items():
            metrics.setdefault(name, []).append((rec.get("seed"), m["value"]))
    return out


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(base, new):
    """Pairs runs with the same seed; falls back to run order."""
    bseeds = {s: v for s, v in base}
    nseeds = {s: v for s, v in new}
    common = [s for s in bseeds if s in nseeds and s is not None]
    if len(common) == min(len(base), len(new)) and common:
        return [(bseeds[s], nseeds[s]) for s in common]
    return list(zip([v for _, v in base], [v for _, v in new]))


def better(a, b, higher):
    """Whether value b is better than value a."""
    return b > a if higher else b < a


def compare_metric(base, new, higher, bound):
    """One row of the report for a metric's base and new (seed, value) lists."""
    bv = [v for _, v in base]
    nv = [v for _, v in new]
    bq, nq = quartiles(bv), quartiles(nv)
    ps = pairs(base, new)
    wins = sum(1 for a, b in ps if better(a, b, higher))
    win = wins / len(ps) if ps else 0.0
    row = {
        "base": {"n": len(bv), "q1": bq[0], "median": bq[1], "q3": bq[2]},
        "new": {"n": len(nv), "q1": nq[0], "median": nq[1], "q3": nq[2]},
        "win": win,
    }
    if bound is None:
        row["verdict"] = "-"
        return row
    med_b, med_n = bq[1], nq[1]
    scale = abs(med_b) if med_b else 1.0
    worse_by = ((med_n - med_b) if not higher else (med_b - med_n)) / scale
    spread = max((bq[2] - bq[0]) / scale, (nq[2] - nq[0]) / (abs(med_n) or 1.0))
    gap_beats_noise = abs(med_n - med_b) > (bq[2] - bq[0])
    row["change"] = -worse_by
    row["spread"] = spread
    every_run_better = all(better(a, b, higher) for a in bv for b in nv)
    if worse_by < 0 and win >= WIN_SHARE and gap_beats_noise and (spread <= bound or every_run_better):
        verdict = "improved"
    elif worse_by > bound:
        verdict = "worse"
    elif spread > bound and not every_run_better:
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    row["verdict"] = verdict
    return row


def compare(base_records, new_records, benchmark, trace=0):
    """{workload: {metric: row}} over every workload and metric both sides ran."""
    section = "per_layer" if trace else "end_to_end"
    spec = {m["name"]: m for m in benchmark[section]}
    base, new = group(base_records, trace), group(new_records, trace)
    report = {}
    for workload in sorted(set(base) & set(new)):
        rows = {}
        for name, m in spec.items():
            if name in base[workload] and name in new[workload]:
                rows[name] = compare_metric(
                    base[workload][name],
                    new[workload][name],
                    m["better"] == "higher",
                    m.get("bound"),
                )
        report[workload] = rows
    return report


def render(report):
    def side(q):
        return f"{q['median']:.5g} [{q['q1']:.5g}, {q['q3']:.5g}]"

    lines = [f"{'workload':<15} {'metric':<26} {'base median [q1, q3]':<36} {'new median [q1, q3]':<36} {'win':>5}  verdict"]
    for workload, rows in report.items():
        for name, r in rows.items():
            lines.append(
                f"{workload:<15} {name:<26} {side(r['base']):<36} {side(r['new']):<36} {r['win']:>5.2f}  {r['verdict']}"
            )
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", nargs="+", help="base run records (files or directories)")
    ap.add_argument("--new", nargs="+", required=True, help="new run records (files or directories)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--benchmark", default=str(HERE.parent / "BENCHMARK.json"))
    ap.add_argument("--json", action="store_true", help="print the report as JSON")
    args = ap.parse_args(argv)
    benchmark = json.loads(Path(args.benchmark).read_text())
    base, new = load_records(args.base), load_records(args.new)
    if not base or not new:
        print("compare: no run records on one side", file=sys.stderr)
        return 2
    report = compare(base, new, benchmark, args.trace)
    print(json.dumps(report, indent=2) if args.json else render(report))
    worse = any(r["verdict"] == "worse" for rows in report.values() for r in rows.values())
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
