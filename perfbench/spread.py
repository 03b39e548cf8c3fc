#!/usr/bin/env python3
"""Run the benchmark repeatedly and report each metric's median and spread.

    python3 perfbench/spread.py [--workload NAME ...] [--runs N] [--first-seed S]
                                [--seconds S] [--trace] [--out FILE] [--against FILE]

Runs ``run.py`` N times per workload (seeds S, S+1, ...; workloads
interleaved), then prints, per workload and metric, the unit, the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread
(Q3 - Q1) / median next to the bound in ``BENCHMARK.json``, plus the
checks' fail rate and largest relative error. ``--runs 1`` is the one
command that runs every workload once and prints every end-to-end metric.
``--out`` writes all of it, with every run's values and run record, as JSON.
``--against`` compares each median with the same metric in an earlier
``--out`` file: the gap (this median / that median - 1) and, for bounded
metrics, whether this set is worse than that one by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def one_run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["run_record"], json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", type=Path)
    ap.add_argument("--against", type=Path)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    names = args.workload or sorted(WORKLOADS)
    limits = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower_is_better = {m["name"]: m["better"] == "lower"
                       for m in spec["end_to_end"] + spec["per_layer"]}
    earlier = json.loads(args.against.read_text())["workloads"] if args.against else {}

    runs: dict[str, list] = {name: [] for name in names}
    for i in range(args.runs):
        for name in names:
            record, result = one_run(name, args.first_seed + i, seconds, args.trace)
            runs[name].append({"record": record, "result": result})
            print(f"# {name} seed {args.first_seed + i}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", file=sys.stderr)

    report = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    for name in names:
        results = [r["result"] for r in runs[name]]
        records = [r["record"] for r in runs[name]]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        metrics = {}
        for metric, first in results[0]["metrics"].items():
            summary = summarize([r["metrics"][metric]["value"] for r in results])
            metrics[metric] = {"unit": first["unit"], **summary}
        report["workloads"][name] = {
            "runs": len(results),
            "seeds": [r["seed"] for r in records],
            "attempted": attempted,
            "failed": failed,
            "fail_rate": failed / attempted,
            "max_rel_err": max(r["checks"]["max_rel_err"] for r in records),
            "path": sorted({f"{r['path']} ({r['path_reason']})" for r in records}),
            "metrics": metrics,
            "records": records,
        }
        print(f"\n{name}: {len(results)} run(s), {attempted} invocations, "
              f"fail_rate {failed / attempted:g} ({failed}/{attempted}), "
              f"max_rel_err {report['workloads'][name]['max_rel_err']:.3g}, "
              f"path {', '.join(report['workloads'][name]['path'])}")
        print(f"  {'metric':30s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}" + ("   gap  verdict" if earlier else ""))
        for metric, m in metrics.items():
            bound = limits.get(metric)
            line = (f"  {metric:30s} {m['unit']:6s} {m['median']:12.6g} {m['q1']:12.6g} "
                    f"{m['q3']:12.6g} {m['spread']:8.4f} "
                    f"{'' if bound is None else format(bound, '6.3f'):>6s}")
            before = earlier.get(name, {}).get("metrics", {}).get(metric)
            if before and before["median"]:
                gap = m["median"] / before["median"] - 1.0
                worse = gap if lower_is_better.get(metric, True) else -gap
                verdict = "" if bound is None else ("worse" if worse > bound else "within")
                m["gap"] = gap
                line += f" {gap:+6.3f}  {verdict}"
            print(line)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
