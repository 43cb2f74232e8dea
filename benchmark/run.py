#!/usr/bin/env python3
"""Runs one workload of Orion's end-to-end encrypted-inference benchmark.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark (the Orion library plus benchmark/src) into
.bench_build/ on first use, runs the workload in a fresh process, checks
that every metric BENCHMARK.json names was reported with its unit, prints
a table of them, writes the full report (metrics, sample counts, failure
ledger, provenance) to .bench_build/reports/, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list (plus a chrome trace and a self-time table).
Exits nonzero when any reply disagrees with the cleartext network, any
operation fails, or a metric is missing.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
SPEC = ROOT / "BENCHMARK.json"

# A run finishes within 180 s, not counting the first build.
WORKLOAD_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures and builds orion_e2e; returns its path (None on failure)."""
    cmake_dir = BUILD / "cmake"
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (cmake_dir / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", str(cmake_dir), "--target",
                      "orion_e2e", "-j", jobs])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if done.returncode != 0:
                log(done.stdout[-4000:])
                log("build failed:", " ".join(cmd))
                return None
    return cmake_dir / "orion_e2e"


def source_id():
    """The commit under test: git's HEAD, else a hash of the sources."""
    try:
        if not (ROOT / ".git").exists():
            raise OSError("not a git checkout")
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "benchmark"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads(SPEC.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log(f"unknown workload {args.workload!r}; known: {', '.join(names)}")
        return 2
    binary = build()
    if binary is None:
        return 2

    reports = BUILD / "reports"
    reports.mkdir(exist_ok=True)
    scratch = BUILD / "scratch"
    scratch.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--git-sha", source_id(),
           "--scratch", str(scratch)]
    if args.trace:
        cmd += ["--trace-out", str(reports / f"{stem}.chrome.json")]
    # The library reads ORION_* overrides (threads, ISA, cache sizes) from
    # the environment; the benchmark fixes them in its workloads instead.
    env = {k: v for k, v in os.environ.items() if not k.startswith("ORION_")}
    try:
        child = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                               text=True, cwd=ROOT,
                               timeout=WORKLOAD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("workload timed out")
        return 1
    lines = child.stdout.rstrip("\n").split("\n")
    try:
        report = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        log(child.stdout[-4000:])
        log(f"orion_e2e exited {child.returncode} without a report")
        return 1
    (reports / f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n")
    print("\n".join(lines[:-1]))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    got = report["metrics"]
    missing = [m["name"] for m in wanted
               if m["name"] not in got or got[m["name"]]["unit"] != m["unit"]]
    prov = report["provenance"]
    print(f"\n{args.workload} seed {args.seed} trace {args.trace} | "
          f"commit {prov['git_sha']} | {prov['cpu']} | isa {prov['isa']} | "
          f"nproc {prov['nproc']} | workers {prov['workers']} x "
          f"{prov['threads_per_request']} kernel threads | "
          f"{prov['params']['name']} l_eff {prov['l_eff']} "
          f"batch {prov['batch']}")
    print(f"{'metric':28s} {'value':>14s} {'unit':10s} {'samples':>8s}")
    for name in [m["name"] for m in wanted] + ["failed_share"]:
        if name in got:
            m = got[name]
            print(f"{name:28s} {m['value']:14.4f} {m['unit']:10s} "
                  f"{m['samples']:8d}")
    failures = report["failures"]
    print(f"attempted {report['attempted']}, failed {report['failed']} "
          f"(transport {failures['transport']}, server {failures['server']}, "
          f"wrong answers {failures['wrong_answer']}); "
          f"ledger balanced: {report['checks']['ledger_balanced']}")
    if missing:
        log("missing or mis-unitized metrics:", ", ".join(missing))

    correct = bool(report["correct"]) and child.returncode == 0 and \
        not missing
    result = {
        "correct": correct,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {m["name"]: {"value": got[m["name"]]["value"],
                                "unit": m["unit"]}
                    for m in wanted if m["name"] in got},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
