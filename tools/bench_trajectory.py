#!/usr/bin/env python3
"""Accumulate benchmark captures into BENCH_trajectory.json.

A committed BENCH_*.json capture is overwritten when its baseline is
refreshed, and a perfbench report is not committed at all. This tool
distills each capture into a compact dated record and appends it to a
trajectory file, so performance over time is one `git log`-free read.

Two captures are understood:
  * a perfbench suite report, the stdout of
      python3 perfbench/run.py --workload suite --seconds 0 --passes 1 \\
          --trace 1
    recorded as bench "perfbench_suite": the SUITE_RATES in Minst/s,
    dated by the report file's mtime. check_bench.py reads the same
    report through read_suite_report().
  * a minibench --benchmark_out JSON capture (bench_serve_throughput):
    the per-s rate counters of every benchmark in it.

A record keeps the capture date, the bench, the host context that makes
the numbers comparable (CPU count, build type) and the rates.

Usage:
  bench_trajectory.py append CAPTURE [--trajectory FILE] [--dedup]
  bench_trajectory.py show [--trajectory FILE]
  bench_trajectory.py validate [--trajectory FILE]

append  distill the capture and append its record (with --dedup, skip
        when an identical record is already the latest for that bench).
        A suite report must be a measurement: a Release, optimized
        build with no failed operation.
show    print one line per record: date, bench, headline rates.
validate exit non-zero unless the file matches the schema below; also
        invoked by check_bench.py --trajectory.

Schema (version 1):
  {"version": 1,
   "records": [
     {"date": "...", "bench": "perfbench_suite",
      "context": {"build_type": "Release", "num_cpus": 4},
      "rates": {"diag": {"minst_per_s": 10.4},
                "diag.st": {"minst_per_s": 11.0}, ...}},
     {"date": "...", "bench": "bench_serve_throughput",
      "context": {"library_build_type": "release", "num_cpus": 4, ...},
      "rates": {"BM_SoakReplay/200": {"requests_per_s": 1.1e3}, ...},
      "legacy": "why the record predates a rule (optional)"},
     ...]}

A threaded diag-serve rate (BM_ServeThroughput*/<workers>) must divide
by wall-clock time (the /real_time suffix): process CPU time sums over
the workers and hides scaling. Only a record with a "legacy" reason may
carry one without it.

Records are append-only and kept in file order (which is capture-append
order, not necessarily date order — reruns of old captures are legal).
Stdlib only.
"""

import argparse
import datetime
import json
import os
import re
import sys

SCHEMA_VERSION = 1

# Context keys worth tracking across minibench captures: everything
# that changes the meaning of the numbers, none of the per-host noise
# (cache sizes, load average) that would make every record unique.
CONTEXT_KEYS = ("library_build_type", "host_name", "num_cpus")

# The perfbench suite rates the trajectory records, in Minst/s.
SUITE_RATES = ("diag.minst_per_s", "diag.st.minst_per_s",
               "ooo.minst_per_s", "ooo.st.minst_per_s",
               "sim.golden.minst_per_s")

# A threaded diag-serve rate that divides by CPU time, not wall time.
CPU_TIME_THREADED = re.compile(r"^BM_ServeThroughput\w*/\d+$")


def fail(msg: str) -> None:
    print(f"bench_trajectory: FAIL: {msg}")
    sys.exit(1)


def read_suite_report(path: str) -> dict:
    """The header fields and results of a traced perfbench suite report.

    Returns num_cpus, build_type, optimized, correct, failed and the
    SUITE_RATES by name. Raises ValueError on anything else.
    """
    with open(path) as f:
        lines = [ln for ln in f.read().splitlines() if ln.strip()]
    header = next((ln for ln in lines
                   if ln.startswith("perfbench workload=")), None)
    if header is None:
        raise ValueError("no 'perfbench workload=...' header line")
    fields = dict(kv.split("=", 1) for kv in header.split()[1:]
                  if "=" in kv)
    if fields.get("workload") != "suite":
        raise ValueError(f"workload is {fields.get('workload')!r}, "
                         f"expected 'suite'")
    try:
        last = json.loads(lines[-1])
        metrics = last["metrics"]
        missing = [m for m in SUITE_RATES if m not in metrics]
        if missing:
            raise ValueError(f"{', '.join(missing)} missing (the rates "
                             f"are per-layer metrics: run with "
                             f"--trace 1)")
        return {"num_cpus": int(fields["num_cpus"]),
                "build_type": fields["build_type"],
                "optimized": fields["optimized"] == "True",
                "correct": bool(last["correct"]),
                "failed": int(last["failed"]),
                "rates": {m: float(metrics[m]["value"])
                          for m in SUITE_RATES}}
    except (json.JSONDecodeError, KeyError, TypeError) as e:
        raise ValueError(f"not a perfbench report: {e!r}") from None


def measurement_error(report: dict) -> str:
    """Why @p report's rates are not a measurement, "" when they are."""
    if report["build_type"] != "Release" or not report["optimized"]:
        return (f"build_type={report['build_type']} "
                f"optimized={report['optimized']}: rates of an "
                f"unoptimized build measure the compiler")
    if report["failed"] or not report["correct"]:
        return f"{report['failed']} operations failed"
    return ""


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
        legacy = isinstance(rec.get("legacy"), str) and \
            rec["legacy"].strip()
        rates = rec.get("rates")
        for name, counters in \
                (rates.items() if isinstance(rates, dict) else ()):
            if not isinstance(counters, dict):
                errs.append(f"{where}.rates[{name!r}] is not an object")
                continue
            if CPU_TIME_THREADED.match(name) and not legacy:
                errs.append(f"{where}.rates[{name!r}] is a CPU-time "
                            f"rate of a threaded bench (needs "
                            f"/real_time, or a 'legacy' reason)")
            for ck, cv in counters.items():
                if not isinstance(cv, (int, float)):
                    errs.append(f"{where}.rates[{name!r}].{ck} is not "
                                f"a number")
    return errs


def distill(capture: dict, bench_json_path: str) -> dict:
    """A trajectory record from one minibench capture."""
    ctx = capture.get("context", {})
    exe = ctx.get("executable", "")
    bench = os.path.basename(exe) or \
        os.path.basename(bench_json_path).replace("BENCH_", "") \
                                         .replace(".json", "")
    record_ctx = {k: ctx[k] for k in CONTEXT_KEYS if k in ctx}
    rates = {}
    for run in capture.get("benchmarks", []):
        counters = {k: v for k, v in run.items()
                    if k.endswith("_per_s")
                    and isinstance(v, (int, float))}
        if counters:
            rates[run["name"]] = counters
    return {"date": ctx.get("date", ""), "bench": bench,
            "context": record_ctx, "rates": rates}


def read_record(path: str) -> dict:
    """The record of a minibench capture or a perfbench suite report."""
    with open(path) as f:
        text = f.read()
    try:
        return distill(json.loads(text), path)
    except json.JSONDecodeError:
        pass
    try:
        report = read_suite_report(path)
    except ValueError as e:
        fail(f"{path}: {e}")
    err = measurement_error(report)
    if err:
        fail(f"{path}: {err}")
    # "diag.st.minst_per_s" -> rate "diag.st", counter "minst_per_s".
    rates = {}
    for metric, value in report["rates"].items():
        name, counter = metric.rsplit(".", 1)
        rates[name] = {counter: value}
    mtime = datetime.datetime.fromtimestamp(os.path.getmtime(path),
                                            datetime.timezone.utc)
    return {"date": mtime.isoformat(timespec="seconds"),
            "bench": "perfbench_suite",
            "context": {k: report[k] for k in ("build_type", "num_cpus")},
            "rates": rates}


def dump(doc: dict, path: str) -> None:
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def cmd_append(args) -> None:
    rec = read_record(args.capture)
    if not rec["rates"]:
        fail(f"{args.capture}: no *_per_s counters to track")
    doc = load_trajectory(args.trajectory)
    if args.dedup:
        latest = next((r for r in reversed(doc["records"])
                       if r["bench"] == rec["bench"]), None)
        if latest == rec:
            print(f"bench_trajectory: {rec['bench']} capture of "
                  f"{rec['date']} already recorded, skipping")
            return
    doc["records"].append(rec)
    errs = validate_doc(doc)
    if errs:
        fail(f"{args.capture}: {errs[0]}")
    dump(doc, args.trajectory)
    print(f"bench_trajectory: appended {rec['bench']} "
          f"({rec['date']}, {len(rec['rates'])} rates) -> "
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
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--trajectory", default="BENCH_trajectory.json")
    sub = ap.add_subparsers(dest="cmd", required=True)
    p_append = sub.add_parser("append", parents=[common])
    p_append.add_argument("capture")
    p_append.add_argument("--dedup", action="store_true",
                          help="skip when the latest record for this "
                               "bench is identical")
    sub.add_parser("show", parents=[common])
    sub.add_parser("validate", parents=[common])
    args = ap.parse_args()
    {"append": cmd_append, "show": cmd_show,
     "validate": cmd_validate}[args.cmd](args)


if __name__ == "__main__":
    main()
