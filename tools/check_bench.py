#!/usr/bin/env python3
"""Gate simulator-throughput benchmark results (CI bench smoke).

Reads a bench_sim_speed --benchmark_out JSON file and fails (exit 1)
when:
  * the timing library self-reports a debug build (the numbers would
    measure the library, not the simulator),
  * the simulator under test was not optimized,
  * BM_DiagModel's sim_inst_per_s falls below DIAG_FLOOR (guards the
    DiAG activation path's per-activation cost), or
  * BM_OooModel's sim_inst_per_s falls below OOO_FLOOR (guards the
    OoO baseline's per-instruction path: no string-keyed counters,
    binary-search resource calendars).

With --trajectory, additionally validates the accumulated
BENCH_trajectory.json (see tools/bench_trajectory.py) against its
schema, so a malformed append fails the bench smoke rather than
rotting silently; an absent trajectory file is tolerated.

Usage: check_bench.py BENCH_sim_speed.json [--trajectory FILE]
"""

import argparse
import json
import os
import sys

import bench_trajectory

# BM_DiagModel runs every iteration of the bench loop through the
# activation engine: 9.2-22M inst/s on a 4-CPU host (Release), the
# spread coming from other load on the host. The floor is half the
# lowest rate, so it catches a change that doubles the host cost of one
# loop activation; smaller drifts show up in BENCH_trajectory.json.
DIAG_FLOOR = 4.6e6
# BM_OooModel runs at 5.4-6.0M inst/s on a 4-CPU host; string-keyed
# counters or linear-scan calendars on its hot path put it near 0.9M.
OOO_FLOOR = 3.0e6


def fail(msg: str) -> None:
    print(f"check_bench: FAIL: {msg}")
    sys.exit(1)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("bench_json")
    ap.add_argument("--trajectory", default=None,
                    help="also validate this BENCH_trajectory.json "
                         "(absent file tolerated)")
    args = ap.parse_args()

    if args.trajectory is not None and os.path.exists(args.trajectory):
        with open(args.trajectory) as f:
            try:
                tdoc = json.load(f)
            except json.JSONDecodeError as e:
                fail(f"{args.trajectory}: not JSON: {e}")
        errs = bench_trajectory.validate_doc(tdoc)
        if errs:
            fail(f"{args.trajectory}: {errs[0]}")
        print(f"check_bench: trajectory {args.trajectory} valid "
              f"({len(tdoc['records'])} records)")

    with open(args.bench_json) as f:
        doc = json.load(f)

    ctx = doc.get("context", {})
    if ctx.get("library_build_type") != "release":
        fail(f"timing library built as "
             f"'{ctx.get('library_build_type')}' — numbers are not a "
             f"measurement (need a Release build of the bench tree)")
    if ctx.get("diag_optimized") == "false":
        fail("simulator under test compiled without optimization")

    rates = {}
    for run in doc.get("benchmarks", []):
        if "sim_inst_per_s" in run:
            rates[run["name"]] = run["sim_inst_per_s"]

    for name, floor in (("BM_DiagModel", DIAG_FLOOR),
                        ("BM_OooModel", OOO_FLOOR)):
        rate = rates.get(name)
        if rate is None:
            fail(f"{name} missing from the benchmark output")
        print(f"check_bench: {name:<13} {rate:.3e} inst/s "
              f"(floor {floor:.3e})")
        if rate < floor:
            fail(f"{name} {rate:.3e} inst/s below the {floor:.3e} floor")
    print("check_bench: PASS")


if __name__ == "__main__":
    main()
