#!/usr/bin/env python3
"""Validate diag-obs metric JSON (CI obs smoke). Stdlib only.

Accepts any of the JSON shapes the obs layer emits and checks every
metric registry found inside against the MetricRegistry::dumpJson
schema (DESIGN.md §16):

  * a bare registry dump (MetricRegistry::dumpJson);
  * diag-serve --batch's {"obs": ...} summary line and a soak report
    (diag-serve --soak --json), whose "obs" member is a registry;
  * any other JSON object — searched recursively for registry-shaped
    objects (an object with "group", "counters", "gauges",
    "histograms").

Per registry, enforces:
  * the four sections exist with the right types and the group name is
    a non-empty string;
  * counters and gauges are string -> non-negative integer;
  * every histogram has integer count/sum/max/p50/p95/p99 and a
    buckets array of [upper_bound, count] pairs with strictly
    increasing bounds and positive counts;
  * histogram internal consistency: bucket counts sum to count,
    p50 <= p95 <= p99 <= max, and max lies within the top bucket.

With --require NAME (repeatable), fails unless a histogram (or
counter) with that key exists in some registry — CI uses this to
assert that e.g. total_ms percentiles are actually present in the soak
report rather than vacuously validating an empty object.

Usage: check_metrics.py FILE.json [FILE.json ...] [--require KEY]
"""

import argparse
import json
import sys

FAILED = False


def err(where: str, msg: str) -> None:
    global FAILED
    FAILED = True
    print(f"check_metrics: FAIL: {where}: {msg}")


def is_uint(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def check_scalar_map(where: str, section: str, m) -> None:
    if not isinstance(m, dict):
        err(where, f"'{section}' is not an object")
        return
    for k, v in m.items():
        if not is_uint(v):
            err(where, f"{section}[{k!r}] = {v!r} is not a "
                       f"non-negative integer")


def check_histogram(where: str, h) -> None:
    if not isinstance(h, dict):
        err(where, "histogram is not an object")
        return
    for key in ("count", "sum", "max", "p50", "p95", "p99"):
        if not is_uint(h.get(key)):
            err(where, f"'{key}' missing or not a non-negative "
                       f"integer")
            return
    buckets = h.get("buckets")
    if not isinstance(buckets, list):
        err(where, "'buckets' is not an array")
        return
    prev_upper = -1
    total = 0
    for i, b in enumerate(buckets):
        if (not isinstance(b, list) or len(b) != 2
                or not is_uint(b[0]) or not is_uint(b[1])):
            err(where, f"buckets[{i}] is not an "
                       f"[upper_bound, count] pair of integers")
            return
        upper, count = b
        if upper <= prev_upper:
            err(where, f"buckets[{i}] bound {upper} not above the "
                       f"previous bound {prev_upper}")
        if count == 0:
            err(where, f"buckets[{i}] has a zero count (empty "
                       f"buckets must be omitted)")
        prev_upper = upper
        total += count
    if total != h["count"]:
        err(where, f"bucket counts sum to {total}, 'count' says "
                   f"{h['count']}")
    if not h["p50"] <= h["p95"] <= h["p99"] <= h["max"]:
        err(where, f"percentiles not monotonic: p50={h['p50']} "
                   f"p95={h['p95']} p99={h['p99']} max={h['max']}")
    if buckets and h["max"] > buckets[-1][0]:
        err(where, f"max {h['max']} above the top bucket bound "
                   f"{buckets[-1][0]}")


def is_registry(obj) -> bool:
    return (isinstance(obj, dict)
            and {"group", "counters", "gauges",
                 "histograms"} <= set(obj))


def check_registry(where: str, reg: dict, seen_keys: set) -> None:
    if not (isinstance(reg.get("group"), str) and reg["group"]):
        err(where, "'group' missing or empty")
    check_scalar_map(where, "counters", reg.get("counters"))
    check_scalar_map(where, "gauges", reg.get("gauges"))
    hists = reg.get("histograms")
    if not isinstance(hists, dict):
        err(where, "'histograms' is not an object")
        return
    for name, h in hists.items():
        check_histogram(f"{where}.histograms[{name!r}]", h)
    for section in ("counters", "gauges", "histograms"):
        if isinstance(reg.get(section), dict):
            seen_keys.update(reg[section])


def find_registries(obj, where: str, out: list) -> None:
    if is_registry(obj):
        out.append((where, obj))
        return
    if isinstance(obj, dict):
        for k, v in obj.items():
            find_registries(v, f"{where}.{k}", out)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            find_registries(v, f"{where}[{i}]", out)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("files", nargs="+")
    ap.add_argument("--require", action="append", default=[],
                    metavar="KEY",
                    help="fail unless this metric key exists in some "
                         "registry (repeatable)")
    args = ap.parse_args()

    seen_keys: set = set()
    total = 0
    for path in args.files:
        with open(path) as f:
            try:
                doc = json.load(f)
            except json.JSONDecodeError as e:
                err(path, f"not JSON: {e}")
                continue
        regs: list = []
        find_registries(doc, path, regs)
        if not regs:
            err(path, "no metric registry found (expected an object "
                      "with group/counters/gauges/histograms)")
            continue
        for where, reg in regs:
            check_registry(where, reg, seen_keys)
        total += len(regs)
    for key in args.require:
        if key not in seen_keys:
            err("--require", f"metric {key!r} absent from every "
                             f"registry")
    if FAILED:
        sys.exit(1)
    print(f"check_metrics: PASS ({total} registries, "
          f"{len(seen_keys)} distinct metric keys)")


if __name__ == "__main__":
    main()
