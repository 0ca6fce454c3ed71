#!/usr/bin/env python3
"""Gate simulator throughput on the real suite (CI perfbench smoke).

Reads a traced perfbench suite report, the stdout of

  python3 perfbench/run.py --workload suite --seconds 0 --passes 1 \\
      --trace 1

(every Fig 9a/9b/10a/10b/12 cell once, on the 20 real kernels), and
fails (exit 1) when:
  * the build is not a Release, optimized one (the rates would measure
    the compiler, not the simulator),
  * any operation failed (a cell did not halt or pass its check),
  * diag.minst_per_s falls below DIAG_FLOOR (guards the DiAG
    activation path), or
  * ooo.minst_per_s falls below OOO_FLOOR (guards the OoO baseline's
    per-instruction path: no string-keyed counters, resource calendars
    searched back from their newest reservation with an O(1) drop, one
    page lookup per word access, a vector store window).

With --trajectory, additionally validates the accumulated
BENCH_trajectory.json (see tools/bench_trajectory.py, which also owns
the report parser) against its schema, so a malformed append fails
the gate rather than rotting silently; an absent trajectory file is
tolerated.

Usage: check_bench.py REPORT [--trajectory FILE]
"""

import argparse
import json
import os
import sys

import bench_trajectory

# Floors in Minst/s, each half the lowest rate of 7 traced suite
# passes of a Release build on a shared 4-CPU host (DiAG 8.30-12.67,
# OoO 6.26-9.31; the spread is load from other tenants): a change
# that doubles an engine's host cost per simulated instruction fails,
# and smaller drifts show up in BENCH_trajectory.json.
DIAG_FLOOR = 4.1
OOO_FLOOR = 3.1


def fail(msg: str) -> None:
    print(f"check_bench: FAIL: {msg}")
    sys.exit(1)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("report")
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

    try:
        report = bench_trajectory.read_suite_report(args.report)
    except ValueError as e:
        fail(f"{args.report}: {e}")
    err = bench_trajectory.measurement_error(report)
    if err:
        fail(f"{args.report}: {err}")

    for name, floor in (("diag.minst_per_s", DIAG_FLOOR),
                        ("ooo.minst_per_s", OOO_FLOOR)):
        rate = report["rates"][name]
        print(f"check_bench: {name:<17} {rate:7.3f} Minst/s "
              f"(floor {floor:.3f})")
        if rate < floor:
            fail(f"{name} {rate:.3f} Minst/s below the {floor:.3f} "
                 f"floor")
    print("check_bench: PASS")


if __name__ == "__main__":
    main()
