#!/usr/bin/env python3
"""Diff two BENCH_*.json files emitted by bench/perf_harness.

Compares ns/op per benchmark name and flags regressions beyond a threshold
(default 20% slower). Exits 1 if any benchmark regressed, so it can gate CI:

    tools/bench_diff.py BENCH_kernels.json build/BENCH_new.json
    tools/bench_diff.py --threshold 0.10 old.json new.json

Benchmarks present in only one file are reported but never fail the diff
(the harness grows over time). Derived speedups are shown for context.

Single-file mode checks the observability overhead contract instead:

    tools/bench_diff.py --check-obs build/BENCH_obs.json
    tools/bench_diff.py --check-obs BENCH_obs.json --obs-max-overhead 1.30

This asserts the derived tracer_off_overhead ratio (fleet step with the
tracer compiled in but disabled, over the untraced baseline) stays at or
below --obs-max-overhead, and that tracer_on_overhead (the tracer actually
recording spans) stays at or below --obs-max-tracer-on. The tracer-on bound
codifies the hot-lane span-emission contract: recording is a lock-free
thread-local append, so an enabled tracer may not multiply the fleet step
several-fold. The defaults (1.05 and 1.50) state the aim. The bench_obs_guard
ctest applies looser bounds, and the committed BENCH_kernels.json, one
measured run, is not held to the defaults.

The scenario-runner contract has an analogous single-file mode:

    tools/bench_diff.py --check-scenario build/BENCH_scenario.json
    tools/bench_diff.py --check-scenario f.json --scenario-max-overhead 1.10

This asserts the derived scenario_run_overhead ratio (fleet run driven
through a declarative JSON spec by scenario::Runner, over calling
FleetSimulator directly) stays at or below --scenario-max-overhead.

A third single-file mode gates the vectorized step kernels:

    tools/bench_diff.py --check-speedups BENCH_kernels.json
    tools/bench_diff.py --check-speedups f.json --min dense_simd_speedup=5

This asserts each derived speedup stays at or above its floor (defaults in
SPEEDUP_FLOORS): the SoA+SIMD fleet kernel over the test-side reference
kernel on its direct lane and on its table lane, and the forward_batch tile
over per-row forward at both GEMM shapes. Floors sit well under measured
values (the shared-host benches are noisy) but far above 1.0, so a kernel
silently falling back to scalar code still fails the gate.

Not every floored key is a ratio: planet_region_years_per_min is the
absolute planetary-simulation throughput (simulated region-years per
wall-clock minute of planet_step). Restrict the check to a subset of keys
with --keys when the input file was produced by a filtered harness run:

    tools/bench_diff.py --check-speedups BENCH_planet.json \\
        --keys planet_region_years_per_min
"""

import argparse
import json
import sys


def load_records(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("schema") != "sustainai-bench-v1":
        sys.exit(f"{path}: unexpected schema {doc.get('schema')!r}")
    return {b["name"]: b for b in doc.get("benchmarks", [])}, doc.get(
        "derived", {}
    )


def check_obs(path, max_overhead, max_tracer_on):
    _, derived = load_records(path)
    off = derived.get("tracer_off_overhead")
    on = derived.get("tracer_on_overhead")
    if off is None:
        sys.exit(
            f"{path}: no derived tracer_off_overhead (run perf_harness with "
            "the fleet_step benchmarks enabled)"
        )
    print(f"tracer-off overhead: {off:.3f}x (max allowed {max_overhead:.2f}x)")
    if on is not None:
        print(
            f"tracer-on  overhead: {on:.3f}x (max allowed {max_tracer_on:.2f}x)"
        )
    failed = False
    if off > max_overhead:
        print(
            f"FAIL: disabled-tracer fleet step is {off:.3f}x the untraced "
            f"baseline, above the {max_overhead:.2f}x bound"
        )
        failed = True
    if on is not None and on > max_tracer_on:
        print(
            f"FAIL: enabled-tracer fleet step is {on:.3f}x the disabled-"
            f"tracer path, above the {max_tracer_on:.2f}x bound (span "
            "emission must stay a lock-free thread-local append)"
        )
        failed = True
    if failed:
        return 1
    print("obs overhead contract holds")
    return 0


def check_scenario(path, max_overhead):
    _, derived = load_records(path)
    ratio = derived.get("scenario_run_overhead")
    if ratio is None:
        sys.exit(
            f"{path}: no derived scenario_run_overhead (run perf_harness "
            "with the scenario_fleet benchmarks enabled)"
        )
    print(
        f"scenario runner overhead: {ratio:.3f}x "
        f"(max allowed {max_overhead:.2f}x)"
    )
    if ratio > max_overhead:
        print(
            f"FAIL: spec-driven fleet run is {ratio:.3f}x the direct "
            f"FleetSimulator call, above the {max_overhead:.2f}x bound"
        )
        return 1
    print("scenario runner overhead contract holds")
    return 0


# Minimum acceptable derived speedups (measured values run 1.5-3x higher;
# the floors leave noise headroom while still catching a scalar fallback).
SPEEDUP_FLOORS = {
    "fleet_step_speedup": 4.0,  # SoA+SIMD kernel vs reference, direct lane
    "fleet_step_simd_speedup": 3.0,  # SoA+SIMD kernel vs reference, table lane
    "dense_gemm_speedup": 3.0,  # forward_batch vs per-row forward, 64^3
    "dense_simd_speedup": 3.0,  # forward_batch vs per-row forward, 256x128x128
    # Absolute throughput, not a ratio: simulated region-years per wall-clock
    # minute of the sharded 8-region planet_step bench. Measured values run
    # orders of magnitude higher; the floor catches a sharding or
    # memoization collapse, not noise.
    "planet_region_years_per_min": 100.0,
}


def unit_of(key):
    """Display unit for a floored derived key ("x" for ratios)."""
    return "" if key.endswith("_per_min") else "x"


def check_speedups(path, floors):
    _, derived = load_records(path)
    failures = []
    for key in sorted(floors):
        floor = floors[key]
        value = derived.get(key)
        if value is None:
            sys.exit(
                f"{path}: no derived {key} (run perf_harness with the "
                "matching benchmarks enabled, or restrict with --keys)"
            )
        unit = unit_of(key)
        status = "ok" if value >= floor else "FAIL"
        print(
            f"{key:<28} {value:>9.2f}{unit}  (floor {floor:.1f}{unit})  "
            f"{status}"
        )
        if value < floor:
            failures.append(key)
    if failures:
        print(
            f"FAIL: {len(failures)} speedup(s) below floor: "
            + ", ".join(failures)
        )
        return 1
    print("kernel speedup contract holds")
    return 0


def parse_min_overrides(pairs, floors):
    floors = dict(floors)
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or key not in floors:
            sys.exit(
                f"--min: expected KEY=VALUE with KEY one of "
                f"{', '.join(sorted(floors))}; got {pair!r}"
            )
        floors[key] = float(value)
    return floors


def main():
    parser = argparse.ArgumentParser(
        description="Flag perf regressions between two perf_harness JSON files."
    )
    parser.add_argument(
        "baseline", nargs="?", help="older BENCH_*.json (reference)"
    )
    parser.add_argument(
        "candidate", nargs="?", help="newer BENCH_*.json (under test)"
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="fractional ns/op increase that counts as a regression "
        "(default 0.20 = 20%%)",
    )
    parser.add_argument(
        "--check-obs",
        metavar="FILE",
        help="single-file mode: assert FILE's derived tracer_off_overhead "
        "is at most --obs-max-overhead",
    )
    parser.add_argument(
        "--obs-max-overhead",
        type=float,
        default=1.05,
        help="upper bound on tracer_off_overhead for --check-obs "
        "(default 1.05 = 5%%)",
    )
    parser.add_argument(
        "--obs-max-tracer-on",
        type=float,
        default=1.50,
        help="upper bound on tracer_on_overhead for --check-obs "
        "(default 1.50 = 50%%)",
    )
    parser.add_argument(
        "--check-scenario",
        metavar="FILE",
        help="single-file mode: assert FILE's derived scenario_run_overhead "
        "is at most --scenario-max-overhead",
    )
    parser.add_argument(
        "--scenario-max-overhead",
        type=float,
        default=1.02,
        help="upper bound on scenario_run_overhead for --check-scenario "
        "(default 1.02 = 2%%)",
    )
    parser.add_argument(
        "--check-speedups",
        metavar="FILE",
        help="single-file mode: assert FILE's derived kernel speedups are "
        "at or above their floors (see SPEEDUP_FLOORS; override with --min)",
    )
    parser.add_argument(
        "--min",
        metavar="KEY=VALUE",
        action="append",
        default=[],
        help="override one speedup floor for --check-speedups "
        "(e.g. --min dense_simd_speedup=5); repeatable",
    )
    parser.add_argument(
        "--keys",
        metavar="KEY",
        action="append",
        default=[],
        help="restrict --check-speedups to these floored keys (repeatable); "
        "default checks every key in SPEEDUP_FLOORS",
    )
    args = parser.parse_args()

    if args.check_obs:
        return check_obs(
            args.check_obs, args.obs_max_overhead, args.obs_max_tracer_on
        )
    if args.check_scenario:
        return check_scenario(args.check_scenario, args.scenario_max_overhead)
    if args.check_speedups:
        floors = parse_min_overrides(args.min, SPEEDUP_FLOORS)
        if args.keys:
            unknown = [k for k in args.keys if k not in floors]
            if unknown:
                sys.exit(
                    f"--keys: unknown floor(s) {', '.join(unknown)}; "
                    f"expected a subset of {', '.join(sorted(floors))}"
                )
            floors = {k: floors[k] for k in args.keys}
        return check_speedups(args.check_speedups, floors)
    if args.baseline is None or args.candidate is None:
        parser.error(
            "baseline and candidate are required unless --check-obs, "
            "--check-scenario, or --check-speedups"
        )

    base, base_derived = load_records(args.baseline)
    cand, cand_derived = load_records(args.candidate)

    regressions = []
    print(f"{'benchmark':<28} {'base ns/op':>14} {'cand ns/op':>14} {'delta':>8}")
    for name in sorted(set(base) | set(cand)):
        if name not in base:
            print(f"{name:<28} {'-':>14} {cand[name]['ns_per_op']:>14.1f}   (new)")
            continue
        if name not in cand:
            print(f"{name:<28} {base[name]['ns_per_op']:>14.1f} {'-':>14}   (gone)")
            continue
        b = base[name]["ns_per_op"]
        c = cand[name]["ns_per_op"]
        delta = (c - b) / b if b > 0 else 0.0
        flag = ""
        if delta > args.threshold:
            flag = "  << REGRESSION"
            regressions.append((name, delta))
        print(f"{name:<28} {b:>14.1f} {c:>14.1f} {delta:>+7.1%}{flag}")

    if base_derived or cand_derived:
        print("\nderived speedups (baseline -> candidate):")
        for key in sorted(set(base_derived) | set(cand_derived)):
            b = base_derived.get(key)
            c = cand_derived.get(key)
            fmt = lambda v: f"{v:.2f}x" if v is not None else "-"
            print(f"  {key:<28} {fmt(b):>8} -> {fmt(c):>8}")

    if regressions:
        print(
            f"\n{len(regressions)} benchmark(s) regressed more than "
            f"{args.threshold:.0%}:"
        )
        for name, delta in regressions:
            print(f"  {name}: {delta:+.1%}")
        return 1
    print(f"\nno regressions beyond {args.threshold:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
