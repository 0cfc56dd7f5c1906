#!/usr/bin/env python3
"""Diff two painter.bench.v1 BENCH_*.json reports.

Compares phase wall times (with a noise tolerance), scalar values, and the
metrics snapshot (counters and gauges) of a baseline report A against a
candidate report B. Intended use is tools/perf_check.sh comparing a committed
baseline against a fresh run of bench/micro_orchestrator, but it works for
any pair of reports with the painter.bench.v1 schema (see src/obs/report.h).

Exit status: 0 when every checked phase is within tolerance, 1 when any
phase regressed by more than the tolerance, 2 on schema/usage errors.
Counter/gauge deltas are informational — they legitimately change when the
engine changes (e.g. orchestrator.celf.evaluations drops when the seed cache
lands) — so they never fail the comparison; schedules staying bit-identical
is the job of the golden/property tests, not this tool.

Usage:
  tools/bench_compare.py BASELINE.json CANDIDATE.json [--tolerance FRAC]

  --tolerance FRAC   allowed fractional slowdown per phase before the exit
                     status reports a regression (default 0.25 = 25%).
"""

import argparse
import json
import sys

SCHEMA = "painter.bench.v1"


def load_report(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"error: cannot read {path}: {e}")
    if doc.get("schema") != SCHEMA:
        sys.exit(f"error: {path}: schema {doc.get('schema')!r}, want {SCHEMA!r}")
    return doc


def phase_map(doc):
    return {p["name"]: p["wall_ms"] for p in doc.get("phases", [])}


def fmt_ratio(base, cand):
    if base == 0:
        return "n/a"
    r = cand / base
    return f"{r:5.2f}x"


def diff_section(title, a, b, fmt=lambda v: f"{v:.6g}"):
    """Prints a side-by-side diff of two {name: number} maps."""
    names = sorted(set(a) | set(b))
    if not names:
        return
    print(f"\n{title}:")
    width = max(len(n) for n in names)
    for n in names:
        if n not in a:
            print(f"  {n:<{width}}  (only in candidate)  {fmt(b[n])}")
        elif n not in b:
            print(f"  {n:<{width}}  {fmt(a[n])}  (only in baseline)")
        else:
            va, vb = a[n], b[n]
            delta = vb - va
            rel = f" ({delta / va:+.1%})" if va != 0 else ""
            print(f"  {n:<{width}}  {fmt(va)} -> {fmt(vb)}{rel}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed fractional slowdown per phase "
                         "(default: 0.25)")
    args = ap.parse_args()

    base = load_report(args.baseline)
    cand = load_report(args.candidate)
    if base.get("name") != cand.get("name"):
        print(f"warning: comparing different benches: "
              f"{base.get('name')!r} vs {cand.get('name')!r}")

    pa, pb = phase_map(base), phase_map(cand)
    seeds = ""
    if "seed" in base or "seed" in cand:
        seeds = (f"  (baseline seed {base.get('seed')}, candidate seed "
                 f"{cand.get('seed')})")
    print(f"bench: {cand.get('name')}{seeds}")
    print(f"\nphases (wall ms, candidate/baseline, tolerance "
          f"{args.tolerance:.0%}):")
    regressions = []
    width = max((len(n) for n in set(pa) | set(pb)), default=0)
    for name in sorted(set(pa) | set(pb)):
        if name not in pa:
            print(f"  {name:<{width}}  (new phase)         {pb[name]:10.1f}")
            continue
        if name not in pb:
            print(f"  {name:<{width}}  {pa[name]:10.1f}  (phase removed)")
            continue
        a_ms, b_ms = pa[name], pb[name]
        ratio = fmt_ratio(a_ms, b_ms)
        verdict = "ok"
        if a_ms > 0 and b_ms > a_ms * (1.0 + args.tolerance):
            verdict = "REGRESSION"
            regressions.append(name)
        elif a_ms > 0 and b_ms < a_ms / (1.0 + args.tolerance):
            verdict = "improved"
        print(f"  {name:<{width}}  {a_ms:10.1f} -> {b_ms:10.1f}  "
              f"{ratio}  {verdict}")

    diff_section("values", base.get("values", {}), cand.get("values", {}))
    metrics_a = base.get("metrics", {})
    metrics_b = cand.get("metrics", {})
    diff_section("counters (informational)",
                 metrics_a.get("counters", {}), metrics_b.get("counters", {}),
                 fmt=lambda v: f"{int(v)}")
    diff_section("gauges (informational)",
                 metrics_a.get("gauges", {}), metrics_b.get("gauges", {}))

    if regressions:
        print(f"\nFAIL: {len(regressions)} phase(s) regressed beyond "
              f"{args.tolerance:.0%}: {', '.join(regressions)}")
        return 1
    print("\nOK: no phase regressed beyond tolerance.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
