#!/usr/bin/env python3
"""Accumulate benchmark captures into BENCH_trajectory.json.

Each committed BENCH_*.json is a single google-benchmark capture that
gets *overwritten* when a baseline is refreshed — the history of how
throughput moved across PRs lives only in git archaeology. This tool
distills each capture into a compact dated record and appends it to a
trajectory file, so performance over time is one `git log`-free read.

A record keeps only what trend analysis needs: the capture date, which
bench produced it, the build context that makes the numbers comparable
(build type, optimization and any other diag_* context the bench
adds), and the per-s rate counters of every benchmark in the capture.

Usage:
  bench_trajectory.py append BENCH_sim_speed.json [--trajectory FILE]
                                                  [--dedup]
  bench_trajectory.py show [--trajectory FILE]
  bench_trajectory.py validate [--trajectory FILE]

append  distill the capture and append its record (with --dedup, skip
        when an identical record is already the latest for that bench).
show    print one line per record: date, bench, headline rates.
validate exit non-zero unless the file matches the schema below; also
        invoked by check_bench.py --trajectory.

Schema (version 1):
  {"version": 1,
   "records": [
     {"date": "...", "bench": "bench_sim_speed",
      "context": {"library_build_type": "release", "num_cpus": 4,
                  ...},
      "rates": {"BM_DiagModel": {"sim_inst_per_s": 6.77e7}, ...}},
     ...]}

Records are append-only and kept in file order (which is capture-append
order, not necessarily date order — reruns of old captures are legal).
Stdlib only.
"""

import argparse
import json
import os
import sys

SCHEMA_VERSION = 1

# Context keys worth tracking across captures: everything that changes
# the meaning of the numbers, none of the per-host noise (cache sizes,
# load average) that would make every record unique.
CONTEXT_KEYS = ("library_build_type", "host_name", "num_cpus")


def fail(msg: str) -> None:
    print(f"bench_trajectory: FAIL: {msg}")
    sys.exit(1)


def load_trajectory(path: str) -> dict:
    if not os.path.exists(path):
        return {"version": SCHEMA_VERSION, "records": []}
    with open(path) as f:
        doc = json.load(f)
    errs = validate_doc(doc)
    if errs:
        fail(f"{path}: {errs[0]}")
    return doc


def validate_doc(doc) -> list:
    """Schema errors in @p doc, empty when valid."""
    errs = []
    if not isinstance(doc, dict):
        return ["top level is not an object"]
    if doc.get("version") != SCHEMA_VERSION:
        errs.append(f"version is {doc.get('version')!r}, "
                    f"expected {SCHEMA_VERSION}")
    records = doc.get("records")
    if not isinstance(records, list):
        return errs + ["'records' is not an array"]
    for i, rec in enumerate(records):
        where = f"records[{i}]"
        if not isinstance(rec, dict):
            errs.append(f"{where} is not an object")
            continue
        for key, kind in (("date", str), ("bench", str),
                          ("context", dict), ("rates", dict)):
            if not isinstance(rec.get(key), kind):
                errs.append(f"{where}.{key} missing or not "
                            f"{kind.__name__}")
        # A rate means nothing without the host's CPU count: threaded
        # benches scale with it, and a 1-CPU capture cannot show scaling.
        if isinstance(rec.get("context"), dict) and \
                not isinstance(rec["context"].get("num_cpus"), int):
            errs.append(f"{where}.context.num_cpus missing or not int")
        for name, counters in rec.get("rates", {}).items():
            if not isinstance(counters, dict):
                errs.append(f"{where}.rates[{name!r}] is not an object")
                continue
            for ck, cv in counters.items():
                if not isinstance(cv, (int, float)):
                    errs.append(f"{where}.rates[{name!r}].{ck} is not "
                                f"a number")
    return errs


def distill(capture: dict, bench_json_path: str) -> dict:
    """A trajectory record from one google-benchmark capture."""
    ctx = capture.get("context", {})
    exe = ctx.get("executable", "")
    bench = os.path.basename(exe) or \
        os.path.basename(bench_json_path).replace("BENCH_", "") \
                                         .replace(".json", "")
    record_ctx = {k: ctx[k] for k in CONTEXT_KEYS if k in ctx}
    # diag_* keys are this repo's own AddCustomContext payload (build
    # type, optimization) — keep them all.
    record_ctx.update(
        {k: v for k, v in ctx.items() if k.startswith("diag_")})
    rates = {}
    for run in capture.get("benchmarks", []):
        counters = {k: v for k, v in run.items()
                    if k.endswith("_per_s")
                    and isinstance(v, (int, float))}
        if counters:
            rates[run["name"]] = counters
    return {"date": ctx.get("date", ""), "bench": bench,
            "context": record_ctx, "rates": rates}


def dump(doc: dict, path: str) -> None:
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def cmd_append(args) -> None:
    with open(args.bench_json) as f:
        capture = json.load(f)
    rec = distill(capture, args.bench_json)
    if not rec["rates"]:
        fail(f"{args.bench_json}: no *_per_s counters to track")
    doc = load_trajectory(args.trajectory)
    if args.dedup:
        latest = next((r for r in reversed(doc["records"])
                       if r["bench"] == rec["bench"]), None)
        if latest == rec:
            print(f"bench_trajectory: {rec['bench']} capture of "
                  f"{rec['date']} already recorded, skipping")
            return
    doc["records"].append(rec)
    dump(doc, args.trajectory)
    print(f"bench_trajectory: appended {rec['bench']} "
          f"({rec['date']}, {len(rec['rates'])} benchmarks) -> "
          f"{args.trajectory} [{len(doc['records'])} records]")


def cmd_show(args) -> None:
    doc = load_trajectory(args.trajectory)
    if not doc["records"]:
        print("bench_trajectory: no records")
        return
    for rec in doc["records"]:
        parts = []
        for name in sorted(rec["rates"]):
            counters = rec["rates"][name]
            key = sorted(counters)[0]
            parts.append(f"{name}={counters[key]:.3e}")
        tail = " ..." if len(parts) > 4 else ""
        print(f"{rec['date']}  {rec['bench']:24s} "
              + "  ".join(parts[:4]) + tail)


def cmd_validate(args) -> None:
    if not os.path.exists(args.trajectory):
        # Tolerated: the trajectory is optional until first append.
        print(f"bench_trajectory: {args.trajectory} absent (ok)")
        return
    with open(args.trajectory) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            fail(f"{args.trajectory}: not JSON: {e}")
    errs = validate_doc(doc)
    for e in errs:
        print(f"bench_trajectory: {args.trajectory}: {e}")
    if errs:
        sys.exit(1)
    print(f"bench_trajectory: {args.trajectory} valid "
          f"({len(doc['records'])} records)")


def main() -> None:
    ap = argparse.ArgumentParser(
        description="accumulate bench captures into a trajectory file")
    ap.add_argument("--trajectory", default="BENCH_trajectory.json")
    sub = ap.add_subparsers(dest="cmd", required=True)
    p_append = sub.add_parser("append")
    p_append.add_argument("bench_json")
    p_append.add_argument("--dedup", action="store_true",
                          help="skip when the latest record for this "
                               "bench is identical")
    sub.add_parser("show")
    sub.add_parser("validate")
    args = ap.parse_args()
    {"append": cmd_append, "show": cmd_show,
     "validate": cmd_validate}[args.cmd](args)


if __name__ == "__main__":
    main()
