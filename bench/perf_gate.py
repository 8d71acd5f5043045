#!/usr/bin/env python3
"""Perf-trajectory gate: compare a fresh BENCH_6.json against the
committed baseline and fail CI on real regressions.

Usage:
  perf_gate.py --current bench_out/BENCH_6.json \
               --baseline bench/baselines/BENCH_6.json \
               [--fleet-json bench_out/fleet_fig5b.json] \
               [--tolerance 0.25] [--strict]

What is gated vs what is only reported:

* GATED (exit 1): machine-portable *speedup ratios* — the faulty-GEMM
  vectorized-vs-scalar speedup per (mode, array) row and the GEMM-tier
  blocked/parallel speedups per size. Both numerator and denominator
  run on the same machine in the same job, so a ratio dropping by more
  than --tolerance (default 25%) means the fast path itself regressed,
  not that CI got a slower runner.
* REFUSED (exit 2): a current summary whose "threads" differs from the
  baseline's; rerun micro_kernels with --threads=<baseline threads>.
* REPORTED (warn only, gated with --strict): absolute milliseconds and
  fleet wall-clock seconds. CI runner hardware varies run to run, so
  absolute times are tracked in the artifact trajectory but do not
  fail the job by default.

Baseline update procedure (documented in README.md "Performance"):
after an intentional perf change, regenerate with
  build/bench/micro_kernels --out_dir=bench_out --json=BENCH_6.json \
      --threads=1 --benchmark_filter='^$'
and commit bench_out/BENCH_6.json to bench/baselines/BENCH_6.json in
the same PR as the change, noting the measured before/after in the PR
description.
"""

import argparse
import json
import sys

BASELINE_HELP = """\
baseline update procedure (after an INTENTIONAL perf change):
  1. build/bench/micro_kernels --out_dir=bench_out --json=BENCH_6.json \\
         --threads=1 --benchmark_filter='^$'
  2. cp bench_out/BENCH_6.json bench/baselines/BENCH_6.json
  3. commit the new baseline in the SAME PR as the perf change, noting
     the measured before/after ratios in the PR description.
bench/baselines/BENCH_6.json is the only committed copy; CI regenerates
the current summary from scratch each push. Full rationale and identity
checks: bench/logs/faulty_gemm_speedup.md, README.md "Performance".
"""


def load(path, role):
    """Read one summary JSON; a missing or corrupt file is a usage
    error (exit 2) with the fix spelled out, not a traceback."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except FileNotFoundError:
        fix = ("regenerate it with build/bench/micro_kernels (see --help)"
               if role == "current" else
               "restore bench/baselines/BENCH_6.json from git or "
               "regenerate it (see --help)")
        print(f"perf_gate: {role} summary {path} does not exist — {fix}",
              file=sys.stderr)
        sys.exit(2)
    except json.JSONDecodeError as e:
        fix = ("restore it from git or regenerate it (see --help)"
               if role == "baseline" else
               "rerun the benchmark that produces it")
        print(f"perf_gate: {role} summary {path} is not valid JSON "
              f"(line {e.lineno}: {e.msg}) — {fix}", file=sys.stderr)
        sys.exit(2)


def index_rows(rows, keys):
    out = {}
    for row in rows:
        out[tuple(row[k] for k in keys)] = row
    return out


def check_ratio(label, base, cur, tolerance, failures):
    """Gate: cur must be >= base * (1 - tolerance)."""
    floor = base * (1.0 - tolerance)
    ok = cur >= floor
    status = "ok" if ok else "REGRESSION"
    print(f"  [{status:>10}] {label}: baseline {base:.2f}x -> current "
          f"{cur:.2f}x (floor {floor:.2f}x)")
    if not ok:
        failures.append(label)


def warn_abs(label, base, cur, tolerance, warnings):
    """Warn-only: absolute time grew past tolerance."""
    if base <= 0:
        return
    ratio = cur / base
    if ratio > 1.0 + tolerance:
        print(f"  [      warn] {label}: {base:.3f} -> {cur:.3f} "
              f"(+{(ratio - 1.0) * 100:.0f}%, absolute time — not gated "
              f"by default)")
        warnings.append(label)


def fleet_metric_warnings(base_m, cur_m, tolerance, warnings):
    """Warn-only comparison of two fleet metrics blocks: the store hit
    rate (cells replayed instead of recomputed). It is a ratio of
    counters from the same run, so it is machine-portable — but a fleet's
    hit rate legitimately changes with the store's warmth, hence
    warn-only, never gated. Returns True if anything printed."""
    hits = {}
    for name, m in (("base", base_m), ("cur", cur_m)):
        h = sum(v for k, v in m.items()
                if k.startswith("store.chain.layer") and k.endswith(".hit"))
        total = h + m.get("store.chain.miss", 0)
        hits[name] = h / total if total else None
    b, c = hits["base"], hits["cur"]
    if b is None or c is None:
        return False
    label = "fleet store hit rate"
    if b - c > tolerance * max(b, 1e-9):
        print(f"  [      warn] {label}: {b:.1%} -> {c:.1%} "
              f"(dropped beyond {tolerance:.0%} — not gated)")
        warnings.append(label)
    else:
        print(f"  [        ok] {label}: {b:.1%} -> {c:.1%}")
    return True


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, epilog=BASELINE_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--current", required=True,
                    help="freshly measured BENCH_6.json")
    ap.add_argument("--baseline", required=True,
                    help="committed baseline BENCH_6.json")
    ap.add_argument("--fleet-json", default=None,
                    help="sweep_fleet --json output; run.total_seconds is "
                         "merged into the current summary before comparing")
    ap.add_argument("--out", default=None,
                    help="write the (fleet-merged) current summary here — "
                         "this is the artifact CI uploads")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed fractional regression (default 0.25)")
    ap.add_argument("--strict", action="store_true",
                    help="also fail on absolute-time warnings")
    args = ap.parse_args()

    cur = load(args.current, "current")
    base = load(args.baseline, "baseline")
    # A speedup ratio depends on the thread count its rows ran at (a
    # multi-threaded run adds pool hand-offs to every row), so ratios
    # measured at different counts are not comparable.
    if cur.get("threads") != base.get("threads"):
        print(f"perf_gate: current summary ran at threads="
              f"{cur.get('threads')} but the baseline at threads="
              f"{base.get('threads')} — rerun micro_kernels with "
              f"--threads={base.get('threads')}", file=sys.stderr)
        return 2

    if args.fleet_json:
        fleet = load(args.fleet_json, "fleet")
        cur["fleet"] = {
            "grid": "fig5b_noise_resilience",
            "total_seconds": fleet["run"]["total_seconds"],
            "workers": fleet["run"]["workers"],
            "cells_computed": fleet["run"]["cells_computed"],
        }
        # The fleet telemetry block (sweep_fleet --json "metrics"): flat
        # name -> count samples. Carried into the uploaded artifact and
        # used for the warn-only store hit-rate check below. Older fleet
        # JSONs (and the committed baseline) may predate it — absence is
        # fine, the checks just skip.
        if isinstance(fleet.get("metrics"), dict):
            cur["fleet"]["metrics"] = fleet["metrics"]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(cur, f, indent=2)
            f.write("\n")
        print(f"merged summary written to {args.out}")

    failures, warnings = [], []

    print("faulty_gemm vectorized-vs-scalar speedups (gated):")
    cur_fg = index_rows(cur["faulty_gemm"], ("mode", "array"))
    base_fg = index_rows(base["faulty_gemm"], ("mode", "array"))
    for key, brow in sorted(base_fg.items()):
        crow = cur_fg.get(key)
        if crow is None:
            print(f"  [   MISSING] faulty_gemm {key}")
            failures.append(f"faulty_gemm {key} missing")
            continue
        check_ratio(f"faulty_gemm mode={key[0]} array={key[1]}",
                    brow["speedup"], crow["speedup"], args.tolerance,
                    failures)
        warn_abs(f"faulty_gemm mode={key[0]} array={key[1]} vector_ms",
                 brow["vector_ms"], crow["vector_ms"], args.tolerance,
                 warnings)

    print("gemm_tiers blocked/parallel speedups (gated):")
    cur_gt = index_rows(cur["gemm_tiers"], ("size",))
    base_gt = index_rows(base["gemm_tiers"], ("size",))
    for key, brow in sorted(base_gt.items()):
        crow = cur_gt.get(key)
        if crow is None:
            print(f"  [   MISSING] gemm_tiers size={key[0]}")
            failures.append(f"gemm_tiers size={key[0]} missing")
            continue
        check_ratio(f"gemm_tiers size={key[0]} blocked",
                    brow["blocked_speedup"], crow["blocked_speedup"],
                    args.tolerance, failures)

    print("absolute times (reported, not gated by default):")
    cur_cs = index_rows(cur.get("cycle_sim", []), ("array",))
    for key, brow in sorted(index_rows(base.get("cycle_sim", []),
                                       ("array",)).items()):
        crow = cur_cs.get(key)
        if crow is not None:
            warn_abs(f"cycle_sim array={key[0]} ms", brow["ms"], crow["ms"],
                     args.tolerance, warnings)
    if "fleet" in base and "fleet" in cur:
        warn_abs("fleet total_seconds", base["fleet"]["total_seconds"],
                 cur["fleet"]["total_seconds"], args.tolerance, warnings)
    if not warnings:
        print("  (none)")

    print("fleet telemetry (store hit rate — warn only):")
    base_m = (base.get("fleet") or {}).get("metrics")
    cur_m = (cur.get("fleet") or {}).get("metrics")
    if isinstance(base_m, dict) and isinstance(cur_m, dict):
        if not fleet_metric_warnings(base_m, cur_m, args.tolerance, warnings):
            print("  (no comparable fleet metrics)")
    else:
        # The committed baseline predates the metrics block, or the fleet
        # ran without --json: nothing to compare, nothing to warn about.
        print("  (skipped: baseline or current has no fleet metrics block)")

    if failures:
        print(f"\nperf gate FAILED: {len(failures)} ratio regression(s) "
              f"beyond {args.tolerance * 100:.0f}% tolerance")
        return 1
    if warnings and args.strict:
        print(f"\nperf gate FAILED (--strict): {len(warnings)} "
              f"absolute-time warning(s)")
        return 1
    print(f"\nperf gate passed ({len(warnings)} warning(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
