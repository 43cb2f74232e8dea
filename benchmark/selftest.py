#!/usr/bin/env python3
"""Self-check of the end-to-end benchmark.

    python3 benchmark/selftest.py [--seconds 4]

Runs every workload briefly, untraced and traced, through run.py and fails
(exit 1) when a run reports a wrong answer or failed operation, a metric
BENCHMARK.json names is missing, the server ledger does not balance
(completed + failed + rejected == submitted), the executor's op-class
times do not add up to its execute time within 10%, or the traced run's
per-layer self times cover less than 90% of client-observed latency.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REPORTS = ROOT / ".bench_build" / "reports"
SEED = 1


def check_run(spec, workload, trace, seconds):
    """Runs one workload; returns a list of problems (empty when it passes)."""
    report_path = REPORTS / f"{workload}-seed{SEED}-trace{trace}.json"
    report_path.unlink(missing_ok=True)
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds),
         "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if not report_path.exists():
        return [f"no report (exit {done.returncode})"]
    report = json.loads(report_path.read_text())
    problems = []
    if done.returncode != 0 or not report["correct"]:
        problems.append(f"exit {done.returncode}, {report['failed']} of "
                        f"{report['attempted']} operations failed")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted
               if report["metrics"].get(m["name"], {}).get("unit") != m["unit"]]
    if missing:
        problems.append("missing metrics: " + ", ".join(missing))
    checks = report["checks"]
    if not checks["ledger_balanced"]:
        problems.append(f"ledger unbalanced: {checks}")
    if trace:
        split, execute = checks["exec_split_ms"], checks["exec_execute_ms"]
        if not execute or abs(split / execute - 1.0) > 0.10:
            problems.append(f"op-class times {split:.3f} ms do not partition "
                            f"execute {execute:.3f} ms within 10%")
        if checks["trace_coverage"] < 0.90:
            problems.append(f"layer self times cover only "
                            f"{100 * checks['trace_coverage']:.1f}% of "
                            "latency")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=4.0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            problems = check_run(spec, workload, trace, args.seconds)
            status = "FAIL" if problems else "PASS"
            print(f"{status} {workload} trace {trace}"
                  + (": " + "; ".join(problems) if problems else ""),
                  flush=True)
            failed += bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
