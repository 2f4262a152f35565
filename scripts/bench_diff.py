#!/usr/bin/env python3
"""Compare a freshly produced BENCH_*.json against the committed baseline.

The regression gate of scripts/verify.sh --bench (DESIGN.md §12): every
numeric leaf of the fresh report is compared against the same leaf of the
baseline, direction-aware —

  * keys containing "seconds"                       lower is better
  * keys containing "per_second"/"gcups"/"speedup"  higher is better
  * anything else                                   informational only

A leaf regresses when it is worse than the baseline by --tolerance
(relative) or more. Wall-clock benches are noisy, so the default
tolerance is deliberately loose (20%); the gate exists to catch real
regressions (the injected-regression check in verify.sh uses the same
mechanism), not 2% jitter.

The "provenance" subtree (git SHA, build type, timestamp, params snapshot,
machine facts) is skipped entirely: stamps differ on every run by design.
So are "machine" blocks (worker-thread counts, hardware concurrency) and
the "scaling" section of BENCH_host.json (sim seconds vs thread count):
both are machine-dependent by construction — a 1-core CI runner and a
32-core workstation produce legitimately different numbers there.

The string and boolean leaves under "workload" name what was measured
(BENCH_kernel.json's "isa" is the vector sweep the run used): if one differs
between the two files, or is present in only one, the numbers are not
comparable, so that is a structural mismatch too — an AVX-512 number is
never gated against an AVX2 baseline.

Exit status: 0 when no leaf regressed, 1 on regression or structural
mismatch (a numeric leaf present in the baseline but missing from the fresh
report, or a differing workload leaf), 2 on usage/IO errors.

Usage:
  scripts/bench_diff.py BASELINE FRESH [--tolerance 0.20] [--update]

--update rewrites BASELINE with FRESH's content after the comparison report
(whatever the verdict) — the re-baselining workflow.
"""

import argparse
import json
import shutil
import sys

SKIP_KEYS = {"provenance", "machine", "scaling"}
LOWER_BETTER = ("seconds",)
HIGHER_BETTER = ("per_second", "gcups", "speedup")


def direction(key):
    """-1: lower is better, +1: higher is better, 0: informational."""
    k = key.lower()
    if any(s in k for s in HIGHER_BETTER):
        return 1
    if any(s in k for s in LOWER_BETTER):
        return -1
    return 0


def numeric_leaves(node, path=""):
    """Yield (dotted_path, leaf_key, value) for every numeric leaf."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key in SKIP_KEYS:
                continue
            yield from numeric_leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from numeric_leaves(value, f"{path}[{i}]")
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path, path.rsplit(".", 1)[-1], float(node)


def workload_leaves(report):
    """{dotted_path: value} of the string/boolean leaves under "workload"."""
    leaves = {}

    def walk(node, path):
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, f"{path}.{key}")
        elif isinstance(node, (str, bool)):
            leaves[path] = node

    walk(report.get("workload"), "workload")
    return leaves


def main():
    parser = argparse.ArgumentParser(
        description="direction-aware BENCH_*.json regression diff")
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("fresh", help="freshly produced JSON")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="relative regression tolerance (default 0.20)")
    parser.add_argument("--update", action="store_true",
                        help="overwrite BASELINE with FRESH afterwards")
    args = parser.parse_args()

    try:
        with open(args.baseline) as f:
            baseline = json.load(f)
        with open(args.fresh) as f:
            fresh = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_diff: {e}", file=sys.stderr)
        return 2

    fresh_leaves = {p: v for p, _, v in numeric_leaves(fresh)}
    regressions = []
    improvements = []
    missing = []
    for path, key, base in numeric_leaves(baseline):
        if path not in fresh_leaves:
            missing.append(path)
            continue
        new = fresh_leaves[path]
        d = direction(key)
        if d == 0 or base == 0:
            continue
        # Positive delta = worse, in either direction convention.
        delta = (base - new) / base if d > 0 else (new - base) / base
        line = (f"  {path}: {base:g} -> {new:g} "
                f"({'-' if delta > 0 else '+'}{abs(delta) * 100:.1f}% "
                f"{'worse' if delta > 0 else 'better'})")
        # A leaf worse by the whole tolerance fails too; the epsilon absorbs
        # the rounding of the ratio (x * 0.8 can read 19.99...% worse).
        if delta >= args.tolerance - 1e-9:
            regressions.append(line)
        elif delta < -args.tolerance:
            improvements.append(line)

    base_workload = workload_leaves(baseline)
    fresh_workload = workload_leaves(fresh)
    mismatched = [
        f"  {p}: {base_workload.get(p, '(missing)')!r} -> "
        f"{fresh_workload.get(p, '(missing)')!r}"
        for p in sorted(set(base_workload) | set(fresh_workload))
        if base_workload.get(p) != fresh_workload.get(p)]

    print(f"bench_diff: {args.fresh} vs {args.baseline} "
          f"(tolerance {args.tolerance * 100:.0f}%)")
    if mismatched:
        print("WORKLOAD MISMATCH (numbers not comparable):")
        print("\n".join(mismatched))
    if improvements:
        print("improvements beyond tolerance:")
        print("\n".join(improvements))
    if missing:
        print("baseline leaves missing from the fresh report:")
        print("\n".join(f"  {p}" for p in missing))
    if regressions:
        print("REGRESSIONS:")
        print("\n".join(regressions))
    if not (regressions or missing or mismatched):
        print("no regressions")

    if args.update:
        shutil.copyfile(args.fresh, args.baseline)
        print(f"bench_diff: updated {args.baseline}")

    return 1 if (regressions or missing or mismatched) else 0


if __name__ == "__main__":
    sys.exit(main())
