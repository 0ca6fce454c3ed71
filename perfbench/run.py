#!/usr/bin/env python3
"""Reproduction benchmark for the DiAG simulator.

Builds the simulator, the figure/table binaries and the in-process
`perfbench` program from the sources in this checkout (Release, into
.bench_build/perfbench), runs one workload for --seconds of wall time,
checks its outputs, prints a readable report and, as the last line of
stdout, one JSON object with the metrics BENCHMARK.json declares:
the end-to-end metrics with --trace 0, the per-layer ones with
--trace 1. A run lasts at least --seconds and a fixed number of timed
passes; only the timed passes feed the timing estimators.

Workloads (BENCHMARK.json records why each was chosen):
  figures  every table/figure/ablation binary, one after another, each
           given --jobs <nproc>; the figures' geomean rows are checked
           against an in-process replay of their cells (perfbench
           --workload suite), whose suite construction is the set-up.
  suite    every cell of Fig 9a/9b/10a/10b/12 on one thread, in-process.
  fuzz     a seeded corpus of generated programs diffed against golden.

usage: python3 perfbench/run.py --workload figures|suite|fuzz
           [--seed N] [--seconds S] [--trace 0|1]
           [--passes N] [--limit N] [--force-fail]

--passes N overrides the number of timed passes, --limit N shrinks a
workload (N kernels per suite, N fuzz programs, the first N figure
binaries) and --force-fail makes the first cell fail its output check.
They exist for perfbench/self_check.py. Artifacts (trace, digests,
binary stderr) go to .bench_out/.
"""
import argparse
import hashlib
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
# The minibench micro-benches measure a synthetic loop and diag-serve,
# not the figures (see BENCHMARK.json).
MICRO_BENCHES = {"bench_sim_speed", "bench_serve_throughput"}
# Timed passes of the figure binaries (one pass takes about 5 s on 4
# CPUs); later passes are only checked, as in perfbench.cpp.
FIGURE_PASSES = 4
CHILD_TIMEOUT_S = 170
# Figure binary -> (figure, series...) of the geomean row it prints.
GEOMEAN_ROWS = {
    "bench_fig9a_rodinia_st": ("fig9a", ["F4C2", "F4C16", "F4C32"]),
    "bench_fig10a_spec_st": ("fig10a", ["F4C2", "F4C16", "F4C32"]),
    "bench_fig9b_rodinia_mt": ("fig9b", ["MT", "MT+SIMT"]),
    "bench_fig10b_spec_mt": ("fig10b", ["MT", "MT+SIMT"]),
    "bench_fig12_energy_efficiency":
        ("fig12", ["single-thread", "multi-thread", "MT+SIMT"]),
}


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    """Configure once, then build incrementally; output to a log."""
    for need in ("src/CMakeLists.txt", "bench/CMakeLists.txt",
                 "extern/minibench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            die(f"simulator sources not found ({need} is missing)")
    os.makedirs(OUT, exist_ok=True)
    log_path = os.path.join(OUT, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", BUILD, "-j", str(nproc())])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                die(f"build failed: {' '.join(cmd)}", 1)


def run_perfbench(args):
    """Run the in-process perfbench binary; returns its JSON report."""
    cmd = [os.path.join(BUILD, "perfbench")] + args
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    sys.stderr.write(p.stderr)
    if p.returncode != 0 or not p.stdout.strip():
        die(f"{' '.join(cmd)} exited with {p.returncode}", 1)
    return json.loads(p.stdout.strip().splitlines()[-1])


def median(values):
    return statistics.median(values) if values else float("nan")


def percentile(values, q):
    """Nearest rank, as perfbench.cpp computes it."""
    v = sorted(values)
    rank = min(max(1, math.ceil(q * len(v))), len(v))
    return v[rank - 1]


# ---- figures ---------------------------------------------------------

def figure_binaries(limit):
    """(name, path) of each figure binary. Those that do not take
    --jobs ignore their arguments, so every one is passed --jobs."""
    bench_dir = os.path.join(BUILD, "bench")
    found = []
    for name in sorted(os.listdir(bench_dir)):
        path = os.path.join(bench_dir, name)
        if name not in MICRO_BENCHES and os.path.isfile(path) and \
                os.access(path, os.X_OK):
            found.append((name, path))
    return found[:limit] if limit else found


def run_binary(name, path, args):
    """One child: stdout, exit code, wall s, CPU s, max RSS in MB."""
    err_path = os.path.join(OUT, f"{name}.stderr")
    start = time.monotonic()
    with open(err_path, "w") as err:
        p = subprocess.Popen([path] + args, stdout=subprocess.PIPE,
                             stderr=err, cwd=OUT)
        out = p.stdout.read()
        p.stdout.close()
        _, status, ru = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
    wall = time.monotonic() - start
    return (out, p.returncode, wall, ru.ru_utime + ru.ru_stime,
            ru.ru_maxrss / 1024.0)


def geomean_row(stdout):
    for line in stdout.decode(errors="replace").splitlines():
        if line.startswith("geomean"):
            return re.findall(r"(\d+\.\d+)x", line)
    return None


def run_figures(opts):
    """Untraced: the binaries for FIGURE_PASSES timed passes and at
    least opts.seconds, then a one-pass replay of their cells. Traced:
    one pass of the binaries (host.cores_busy), then the replay traced
    for opts.seconds, which gives the per-layer values."""
    jobs = ["--jobs", str(nproc())]
    bins = figure_binaries(opts.limit)
    if not bins:
        die("no figure binaries were built", 1)
    timed_passes = 1 if opts.trace else (opts.passes or FIGURE_PASSES)
    attempted = failed = 0
    failures = []
    pass_s, cpu_s = [], 0.0
    per_binary = {}
    first_out, peak_rss = {}, 0.0
    spans = []  # (name, start, end, parent index)
    origin = time.monotonic()
    while True:
        timed = len(pass_s) < timed_passes
        p_start = time.monotonic()
        pass_index = len(spans)
        spans.append(["figures.pass", p_start - origin, 0.0, -1])
        for name, path in bins:
            t0 = time.monotonic() - origin
            out, rc, wall, cpu, rss = run_binary(name, path, jobs)
            spans.append([name, t0, time.monotonic() - origin, pass_index])
            attempted += 1
            digest = hashlib.sha256(out).hexdigest()[:16]
            if name not in first_out:
                first_out[name] = (digest, out)
            if rc != 0 or not out or first_out[name][0] != digest:
                failed += 1
                failures.append(f"{name} (exit {rc}, digest {digest})")
            if timed:
                per_binary.setdefault(name, []).append(wall)
            cpu_s += cpu
            peak_rss = max(peak_rss, rss)
        spans[pass_index][2] = time.monotonic() - origin
        pass_s.append(time.monotonic() - p_start)
        if len(pass_s) >= timed_passes and (
                opts.trace or time.monotonic() - origin >= opts.seconds):
            break
    busy = cpu_s / (sum(pass_s) * nproc())

    # Correctness: the printed geomeans must equal an in-process replay
    # of the same cells on one thread. The replay's suite construction
    # is also the figures' set-up: each binary builds the same suite
    # before its first engine call.
    check_trace = os.path.join(OUT, "trace-figures-check.json")
    if opts.trace:
        replay = ["--trace", "1", "--seconds", str(opts.seconds)] + (
            ["--passes", str(opts.passes)] if opts.passes else [])
    else:
        replay = ["--trace", "0", "--seconds", "0", "--passes", "1"]
    check = run_perfbench(
        ["--workload", "suite", "--trace-out", check_trace,
         "--digest-out", os.path.join(OUT, "digest-figures-check.txt")] +
        replay + (["--limit", str(opts.limit)] if opts.limit else []))
    attempted += check["attempted"]
    failed += check["failed"]
    failures += check["failures"]
    measured = {(a["figure"], a["series"]): a["measured"]
                for a in check["aggregates"]}
    geomeans_checked = 0
    for name, (figure, series) in GEOMEAN_ROWS.items():
        if name not in first_out or opts.limit:
            continue  # a shrunk replay covers fewer kernels
        attempted += 1
        geomeans_checked += 1
        printed = geomean_row(first_out[name][1])
        want = [f"{measured.get((figure, s), float('nan')):.2f}"
                for s in series]
        if printed != want:
            failed += 1
            failures.append(f"{name} geomean {printed} != replay {want}")

    # From the replay: setup_s, rates and model counts; when traced, the
    # layer times and trace.wall_s (read against suite's wall_s).
    m = dict(check["metrics"])
    # As in perfbench.cpp: wall_s sums each binary's fastest timed pass,
    # the estimate least moved by contention from other tenants.
    cell_ms = [median(walls) * 1e3 for walls in per_binary.values()]
    m.update({
        "replay.wall_s": check["metrics"]["wall_s"],
        "wall_s": sum(min(walls) for walls in per_binary.values()),
        "wall_median_s": sum(cell_ms) / 1e3,
        "peak_rss_mb": peak_rss,
        "cell_ms_p50": percentile(cell_ms, 0.50),
        "cell_ms_p90": percentile(cell_ms, 0.90),
        "fail_ratio": failed / attempted,
        "host.cores_busy": busy,
    })
    m.pop("cell_ms_p99", None)
    for name, walls in per_binary.items():
        m[f"figures.{name}.wall_s"] = median(walls)
    if opts.trace:
        write_figures_trace(check_trace, spans)
    digest = hashlib.sha256("".join(
        f"{n} {first_out[n][0]}\n" for n, _ in bins).encode() +
        check["digest"].encode()).hexdigest()[:16]
    return {
        "workload": "figures", "attempted": attempted, "failed": failed,
        "failures": failures, "digest": digest, "metrics": m,
        "aggregates": check["aggregates"],
        "samples": {"passes": len(pass_s),
                    "timed_passes": min(len(pass_s), timed_passes),
                    "cells": len(cell_ms), "pass_s": pass_s,
                    "replay": check["samples"],
                    "geomeans_checked": geomeans_checked},
        "host": {k: check[k] for k in ("build_type", "optimized",
                                        "num_cpus")},
    }


def write_figures_trace(check_trace, spans):
    """Binary spans on their own track, merged into the replay's trace."""
    with open(check_trace) as f:
        doc = json.load(f)
    events = doc["traceEvents"]
    events.append({"ph": "M", "pid": 2, "name": "process_name",
                   "args": {"name": "figures binaries"}})
    events.append({"ph": "M", "pid": 2, "tid": 1, "name": "thread_name",
                   "args": {"name": "figures"}})
    for i, (name, start, end, parent) in enumerate(spans):
        events.append({
            "ph": "X", "pid": 2, "tid": 1, "name": name,
            "ts": int(start * 1e6), "dur": int((end - start) * 1e6),
            "args": {"id": i, "parent": parent, "cell": i}})
    doc["otherData"]["workload"] = "figures"
    with open(os.path.join(OUT, "trace-figures.json"), "w") as f:
        json.dump(doc, f)
    os.remove(check_trace)


# ---- in-process workloads -------------------------------------------

def run_inprocess(opts):
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds),
            "--trace", "1" if opts.trace else "0",
            "--trace-out", os.path.join(OUT, f"trace-{opts.workload}.json"),
            "--digest-out",
            os.path.join(OUT, f"digest-{opts.workload}.txt")]
    if opts.limit:
        args += ["--limit", str(opts.limit)]
    if opts.passes:
        args += ["--passes", str(opts.passes)]
    if opts.force_fail:
        args.append("--force-fail")
    r = run_perfbench(args)
    r["host"] = {k: r[k] for k in ("build_type", "optimized", "num_cpus")}
    return r


# ---- report ----------------------------------------------------------

def unit_of(name, declared):
    if name in declared:
        return declared[name]
    if name.startswith("cell_ms_"):
        return "ms"
    for suffix, unit in ((".minst_per_s", "Minst/s"),
                         ("_minst_per_s", "Minst/s"), (".ms", "ms"),
                         ("_s", "s"), ("_mb", "MB"), ("_pct", "%"),
                         ("_ratio", "ratio"), ("cores_busy", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def print_report(opts, result, declared):
    h = result["host"]
    print(f"perfbench workload={result['workload']} seed={opts.seed} "
          f"trace={int(opts.trace)} num_cpus={h['num_cpus']} "
          f"build_type={h['build_type']} optimized={h['optimized']}")
    print(f"  attempted={result['attempted']} failed={result['failed']} "
          f"digest={result['digest']} samples={result['samples']}")
    for f in result["failures"]:
        print(f"  FAILED {f}")
    for name in sorted(result["metrics"]):
        value = result["metrics"][name]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:44s} {shown:>14s} {unit_of(name, declared)}")
    for a in result["aggregates"]:
        print(f"  paper {a['figure']:7s} {a['series']:14s} "
              f"paper {a['paper']:.2f}  measured {a['measured']:.4f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["figures", "suite", "fuzz"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--passes", type=int, default=0)
    ap.add_argument("--limit", type=int, default=0)
    ap.add_argument("--force-fail", action="store_true")
    opts = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()
    os.makedirs(OUT, exist_ok=True)
    if opts.workload == "figures":
        if opts.force_fail:
            die("--force-fail applies to suite and fuzz")
        result = run_figures(opts)
    else:
        result = run_inprocess(opts)

    wanted = spec["per_layer"] if opts.trace else spec["end_to_end"]
    declared = {m["name"]: m["unit"]
                for m in spec["end_to_end"] + spec["per_layer"]}
    print_report(opts, result, declared)
    metrics = {}
    for m in wanted:
        value = result["metrics"].get(m["name"])
        if value is None:
            die(f"metric {m['name']} was not measured", 1)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
