#!/usr/bin/env python3
"""Fails when a benchmark JSON regresses against a checked-in baseline.

Usage:
    check_regression.py BASELINE.json CURRENT.json [--max-regress 0.10]
                        [--prefix sweep_] [--allow-missing SUBSTR]...

Both files are the --json reports the bench binaries write. Every metric
key present in the BASELINE is compared in its own direction, chosen by
its name:

  * `_ms` (a latency) is lower-is-better: CURRENT may be at most
    (1 + max_regress) times the BASELINE value;
  * `_per_s` (a throughput), `_x` (a speedup) and `precision_bits` are
    higher-is-better: CURRENT may be at most (1 + max_regress) times
    *below* the BASELINE value.

The printed ratio is the "times worse" factor in either direction
(current/baseline for latencies, baseline/current for the rest), so one
bar applies to both. Other keys (counters, sizes, ISA ids) are ignored —
they describe the run rather than its speed.

A compared baseline key that is absent from CURRENT is an error: a silently
vanished metric would otherwise let a regression hide behind a renamed or
dropped measurement. When the absence is expected (e.g. the baseline was
recorded on an AVX-512 host and CI is not), pass
`--allow-missing avx512`; the flag is repeatable and matches keys by
substring. Keys only present in CURRENT never fail the check, so adding
new metrics does not break CI.

A per-metric summary table (baseline vs current vs ratio) is printed on
every run, success included, so CI logs always show the actual numbers.

Exit status: 0 when no compared metric regresses and no required baseline
metric is missing, 1 otherwise.
"""

import argparse
import json
import sys


def load_metrics(path):
    with open(path) as f:
        doc = json.load(f)
    metrics = doc.get("metrics", {})
    if not isinstance(metrics, dict):
        raise SystemExit(f"{path}: 'metrics' is not an object")
    return doc, metrics


HIGHER_IS_BETTER = ("_per_s", "_x", "precision_bits")


def direction(key):
    """'lower' or 'higher' is better for a gated key; None when ignored."""
    if key.endswith("_ms"):
        return "lower"
    if key.endswith(HIGHER_IS_BETTER):
        return "higher"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--max-regress", type=float, default=0.10,
                    help="allowed fractional regression in either "
                         "direction (default 0.10 = 10%%)")
    ap.add_argument("--prefix", default="",
                    help="only compare metric keys with this prefix")
    ap.add_argument("--allow-missing", action="append", default=[],
                    metavar="SUBSTR",
                    help="baseline keys containing SUBSTR may be absent "
                         "from the current run (repeatable)")
    ap.add_argument("--verbose", action="store_true",
                    help="kept for compatibility; the summary table is "
                         "now always printed")
    args = ap.parse_args()

    base_doc, base = load_metrics(args.baseline)
    cur_doc, cur = load_metrics(args.current)

    if base_doc.get("smoke") or cur_doc.get("smoke"):
        print("note: comparing smoke-mode runs; timings are unreliable",
              file=sys.stderr)

    def in_scope(key):
        if direction(key) is None:
            return False
        if args.prefix and not key.startswith(args.prefix):
            return False
        return True

    rows = []      # (mark, key, old, new, ratio, better)
    failures = []
    missing = []   # baseline keys absent from current and not allowed
    skipped_missing = 0
    for key in sorted(k for k in base if in_scope(k)):
        if key not in cur:
            if any(sub in key for sub in args.allow_missing):
                skipped_missing += 1
                continue
            missing.append(key)
            continue
        old, new = float(base[key]), float(cur[key])
        if old <= 0.0:
            continue  # degenerate baseline cell; nothing to compare against
        better = direction(key)
        if better == "lower":
            ratio = new / old
        else:
            ratio = old / new if new > 0.0 else float("inf")
        regressed = ratio > 1.0 + args.max_regress
        mark = "FAIL" if regressed else "ok"
        rows.append((mark, key, old, new, ratio, better))
        if regressed:
            failures.append((key, old, new, ratio))

    if rows:
        width = max(len(r[1]) for r in rows)
        print(f"{'':4s} {'metric':{width}s} {'better':>6s} {'baseline':>12s} "
              f"{'current':>12s} {'worse':>7s}")
        for mark, key, old, new, ratio, better in rows:
            print(f"{mark:4s} {key:{width}s} {better:>6s} {old:>12.4f} "
                  f"{new:>12.4f} {ratio:>6.2f}x")

    only_cur = sorted(k for k in cur if k not in base and in_scope(k))
    if only_cur:
        print(f"note: {len(only_cur)} new metric(s) not in baseline: "
              f"{', '.join(only_cur[:5])}"
              f"{' ...' if len(only_cur) > 5 else ''}")
    if skipped_missing:
        print(f"note: {skipped_missing} baseline metric(s) absent from the "
              f"current run but matched --allow-missing")

    ok = True
    if missing:
        print(f"\nerror: {len(missing)} baseline metric(s) missing from "
              f"{args.current} (pass --allow-missing SUBSTR if expected):",
              file=sys.stderr)
        for key in missing:
            print(f"  {key}", file=sys.stderr)
        ok = False
    if not rows and not missing:
        print("error: no comparable metrics between the two reports",
              file=sys.stderr)
        ok = False
    if failures:
        print(f"\n{len(failures)}/{len(rows)} metric(s) regressed more than "
              f"{args.max_regress:.0%}:")
        for key, old, new, ratio in failures:
            print(f"  {key}: {old:.4f} -> {new:.4f} ({ratio:.2f}x worse)")
        ok = False
    if ok:
        print(f"all {len(rows)} compared metrics within "
              f"{args.max_regress:.0%} of baseline")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
