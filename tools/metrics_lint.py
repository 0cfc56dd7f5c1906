#!/usr/bin/env python3
"""Lint metric-name string literals against the registry naming convention.

Scans C++ sources for the name literal passed to obs::Metrics()'s
GetCounter / GetGauge / GetHistogram and enforces:

  - lowercase dot-separated paths: segments of [a-z0-9_]+, at least two
    segments ("component.metric"); a literal ending in '.' is a prefix that
    gets concatenated at runtime (e.g. "faultsim.injected.") and is checked
    on the segments it already has;
  - unit suffixes must come from the known set (_ms, _us, _s, _km, _bps,
    _bytes, _rtts, _frac) — misspelled unit-like suffixes (_msec, _sec,
    _secs, _millis, _usec, _percent, ...) are flagged so one name never
    ships two spellings of the same unit;
  - the "des.*" namespace is reserved for the sharded DES family
    (DESIGN.md §13): aggregate names "des.shard.<leaf>", per-shard names
    "des.shard<N>.<leaf>", and the bare literal "des.shard" (the runtime
    per-shard concatenation prefix). Anything else under "des." is almost
    certainly a typo'd family member and is flagged;
  - "celf.pruned.*", "bgp.prepend.*", and "control.*" are closed families
    (DESIGN.md §14, §15): catchment pruning may only report the audited
    leaves celf.pruned.{seed_evals,audit_checks}, the bgpsim prepend
    counters only bgp.prepend.{sessions,hops,withdraw_equiv}, and the
    always-on control plane only the CLOSED_FAMILIES["control"] set (bus
    flow, delta intake, invalidations, episode lifecycle, reaction
    latency). A new leaf means a new documented invariant, so unknown
    members are flagged rather than silently admitted. The orchestrator's
    own "orchestrator.celf.*" and bgpsim's "bgpsim.*" namespaces are
    unaffected.

Names built entirely at runtime (variables, concatenation where the literal
is not the call's first token) are out of scope — the convention is enforced
where it can be read. tests/ is exempt: fixtures register throwaway names.

Usage: tools/metrics_lint.py [root-dir]   (default: repo root, lints
       src/ and bench/)
Exit status: number of offending literals (0 = clean).
"""

import pathlib
import re
import sys

CALL_RE = re.compile(
    r'Get(?:Counter|Gauge|Histogram)\(\s*(?:std::string\{)?"([^"]*)"')
SEGMENT_RE = re.compile(r"^[a-z][a-z0-9_]*$")

KNOWN_UNITS = {"ms", "us", "s", "km", "bps", "bytes", "rtts", "frac"}
# Unit-like suffixes that are almost certainly a misspelling of a known
# unit. Anything else after '_' is treated as a word, not a unit.
BAD_UNITS = {
    "msec": "ms", "msecs": "ms", "millis": "ms", "milliseconds": "ms",
    "sec": "s", "secs": "s", "seconds": "s",
    "usec": "us", "usecs": "us", "micros": "us", "microseconds": "us",
    "ns": "us", "nsec": "us", "nanos": "us",
    "mins": "s", "minutes": "s", "hours": "s",
    "byte": "bytes", "kb": "bytes", "mb": "bytes", "gb": "bytes",
    "kbps": "bps", "mbps": "bps", "gbps": "bps",
    "pct": "frac", "percent": "frac", "ratio": "frac",
    "meters": "km", "miles": "km", "rtt": "rtts",
}

# The closed des.* family: "des.shard" (runtime per-shard prefix),
# "des.shard.<leaf>" aggregates, "des.shard<N>.<leaf>" per-shard series.
DES_SHARD_RE = re.compile(r"^des\.shard(?:[0-9]+)?(?:\.[a-z][a-z0-9_]*)*$")

# Closed metric families: every literal under the prefix must be one of the
# listed names. Unlike the des.* structural rule, these enumerate the exact
# leaves because each one is tied to a documented invariant (DESIGN.md §14:
# pruned seed evals are audited ≤ 0, withdraw_equiv counts prepend-∞).
CLOSED_FAMILIES = {
    "celf.pruned": {"celf.pruned.seed_evals", "celf.pruned.audit_checks"},
    "bgp.prepend": {"bgp.prepend.sessions", "bgp.prepend.hops",
                    "bgp.prepend.withdraw_equiv"},
    # The always-on control plane (DESIGN.md §15): bus flow, per-kind delta
    # intake, invalidation granularity, episode/round/commit lifecycle, and
    # the reaction-latency histogram. Each leaf is asserted by
    # tests/control_test.cc or gated by bench/control_loop, so a new leaf
    # means a new documented behavior — closed like the families above.
    "control": {
        "control.bus.published", "control.bus.dropped", "control.bus.drained",
        "control.deltas.ug_latency", "control.deltas.session",
        "control.invalidations.ug", "control.invalidations.peering",
        "control.episodes.triggered", "control.rounds.run",
        "control.commits.applied", "control.commits.suppressed",
        "control.commits.flips",
        "control.reaction.latency_ms",
    },
}


def lint_name(name: str) -> str | None:
    """Returns the problem with `name`, or None if it is conventional."""
    is_prefix = name.endswith(".")
    if is_prefix:
        name = name[:-1]
    segments = name.split(".")
    if segments[0] == "des" and not DES_SHARD_RE.match(name):
        return ("the des.* namespace is reserved for the sharded "
                "DES family: des.shard.<leaf>, des.shard<N>.<leaf>, or the "
                "runtime prefix 'des.shard'")
    for family, members in CLOSED_FAMILIES.items():
        if (name == family or name.startswith(family + ".")) \
                and name not in members:
            return (f"the {family}.* family is closed; allowed: "
                    + ", ".join(sorted(members)))
    if any(not SEGMENT_RE.match(seg) for seg in segments):
        return "segments must match [a-z][a-z0-9_]* separated by dots"
    if len(segments) < 2 and not is_prefix:
        return "need at least two segments (component.metric)"
    if is_prefix:
        return None  # runtime suffix carries the metric leaf
    tail = segments[-1].rsplit("_", 1)
    if len(tail) == 2 and tail[1] in BAD_UNITS:
        return (f"unknown unit suffix '_{tail[1]}' "
                f"(use '_{BAD_UNITS[tail[1]]}'; known: "
                + ", ".join(sorted(f"_{u}" for u in KNOWN_UNITS)) + ")")
    return None


def main() -> int:
    root = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else (
        pathlib.Path(__file__).resolve().parent.parent)
    errors = 0
    for subdir in ("src", "bench"):
        base = root / subdir
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*.cc")) + sorted(base.rglob("*.h")):
            text = path.read_text(encoding="utf-8")
            # Scan the full text, not line by line: clang-format regularly
            # breaks Get*(\n    "name" across lines and those literals must
            # not escape the closed-family rules.
            for match in CALL_RE.finditer(text):
                problem = lint_name(match.group(1))
                if problem is not None:
                    errors += 1
                    rel = path.relative_to(root)
                    lineno = text.count("\n", 0, match.start()) + 1
                    print(f"{rel}:{lineno}: metric '{match.group(1)}': "
                          f"{problem}")
    if errors:
        print(f"metrics_lint: {errors} offending literal(s).")
    else:
        print("metrics_lint: all metric names conventional.")
    return errors


if __name__ == "__main__":
    sys.exit(main())
