#!/usr/bin/env python3
"""Self-check for the reproduction benchmark.

Runs every workload at its smallest size (one pass), untraced and
traced, and asserts that:
  - the last stdout line names every metric BENCHMARK.json declares for
    that mode, with its declared unit and a numeric value;
  - nothing failed (fail_ratio 0) and at least one operation ran;
  - the traced and untraced runs print the same simulated digest;
  - the traced run's Chrome trace passes tools/check_trace.py;
  - a cell forced to fail its output check is counted as failed
    (correct false, exit 0) instead of aborting the run.
It also prints the tracing overhead (traced minus untraced wall time;
for figures, whose layers come from a suite replay, minus suite's).

usage: python3 perfbench/self_check.py
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMALLEST = {"suite": 1, "fuzz": 4, "figures": 1}

problems = []


def expect(cond, what):
    print(f"  {'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        problems.append(what)


def run(workload, trace, extra=()):
    cmd = ["python3", os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0", "--passes", "1",
           "--trace", str(trace),
           "--limit", str(SMALLEST[workload])] + list(extra)
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr[-3000:])
        return p.returncode, None, None
    digest = re.search(r"digest=(\w+)", p.stdout)
    return p.returncode, json.loads(lines[-1]), \
        digest.group(1) if digest else None


def check_metrics(result, declared, mode):
    metrics = result["metrics"]
    expect(set(metrics) == {m["name"] for m in declared},
           f"{mode}: exactly the declared metrics")
    for m in declared:
        got = metrics.get(m["name"], {})
        expect(got.get("unit") == m["unit"] and
               isinstance(got.get("value"), (int, float)),
               f"{mode}: {m['name']} in {m['unit']}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    untraced = {}
    for workload in SMALLEST:
        print(f"{workload}:")
        rc0, plain, digest0 = run(workload, 0)
        untraced[workload] = plain
        rc1, traced, digest1 = run(workload, 1)
        expect(rc0 == 0 and plain is not None, "untraced run exits 0")
        expect(rc1 == 0 and traced is not None, "traced run exits 0")
        if plain is None or traced is None:
            continue
        check_metrics(plain, spec["end_to_end"], "untraced")
        check_metrics(traced, spec["per_layer"], "traced")
        for r, mode in ((plain, "untraced"), (traced, "traced")):
            expect(r["correct"] and r["failed"] == 0 and
                   r["attempted"] >= 1,
                   f"{mode}: fail_ratio 0 over {r['attempted']} operations")
        expect(digest0 is not None and digest0 == digest1,
               f"traced digest {digest1} == untraced {digest0}")
        trace_file = os.path.join(ROOT, ".bench_out",
                                  f"trace-{workload}.json")
        checker = os.path.join(ROOT, "tools", "check_trace.py")
        if os.path.isfile(checker):
            ok = subprocess.run(["python3", checker, trace_file,
                                 "--min-events", "10"]).returncode == 0
            expect(ok, f"{os.path.basename(trace_file)} passes "
                       "check_trace.py")
        # The figures per-layer values come from a traced suite replay,
        # so its overhead is read against the untraced suite run.
        base = untraced["suite"] if workload == "figures" else plain
        if base is not None:
            overhead = (traced["metrics"]["trace.wall_s"]["value"] -
                        base["metrics"]["wall_s"]["value"])
            print(f"  tracing overhead: {overhead:+.4f} s per pass")
        if workload != "figures":
            rc, forced, _ = run(workload, 0, ["--force-fail"])
            expect(rc == 0 and forced is not None and
                   not forced["correct"] and forced["failed"] >= 1 and
                   forced["attempted"] == plain["attempted"],
                   "a forced output-check failure is counted, not fatal")
    if problems:
        print(f"self-check: {len(problems)} problem(s)")
        sys.exit(1)
    print("self-check: OK")


if __name__ == "__main__":
    main()
