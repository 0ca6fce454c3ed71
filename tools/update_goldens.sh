#!/usr/bin/env bash
# Regenerate the golden snapshots from a built tree.
#
#   tools/update_goldens.sh [build-dir]
#
# Four snapshots, each compared byte-for-byte by a test:
#   analysis_all_workloads.json  diag-bound JSON (lint findings + bound
#                                model) for every bundled workload
#                                (`analysis_goldens`);
#   stream_all_workloads.json    diag-stream JSON (`stream_goldens`);
#   stats_all_workloads.json     diag-run --stats-json engine counters
#                                for every workload on the OoO baseline
#                                (1 and 12 threads) and on DiAG (serial,
#                                simt, 16 threads, F4C2) (`stats_goldens`);
#   timing_digests.json          cycles, instructions and output hashes
#                                of every workload (F4C32 serial and
#                                simt, F4C2), the ablation benches'
#                                cells (no reuse on every Rodinia
#                                workload, no memory lanes and stride
#                                prefetch on the workloads their benches
#                                list), the fuzz corpus, the loop and
#                                simt-fallback kernels and the nn
#                                trace/address-log/fault-campaign runs
#                                (every case in
#                                tests/diag/test_timing_digests.cpp).
# Rerun this after any intentional change to the analyzers, the engine
# models or the workloads, then commit the diff.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="$(cd "${1:-$repo/build}" && pwd)"

for bin in "$build"/tools-bin/{diag-bound,diag-stream,diag-run} \
           "$build/tests/test_diag"; do
    if [[ ! -x "$bin" ]]; then
        echo "error: $bin not built (cmake --build $build)" >&2
        exit 1
    fi
done

out="$repo/tests/golden/analysis_all_workloads.json"
"$build/tools-bin/diag-bound" --all-workloads --json > "$out"
echo "wrote $out ($(wc -c < "$out") bytes)"

out="$repo/tests/golden/stream_all_workloads.json"
"$build/tools-bin/diag-stream" --all-workloads --json > "$out"
echo "wrote $out ($(wc -c < "$out") bytes)"

out="$repo/tests/golden/stats_all_workloads.json"
(cd "$build" && cmake -DTOOL="$build/tools-bin/diag-run" -DGOLDEN="$out" \
    -DUPDATE=ON -P "$repo/tests/golden/check_stats_goldens.cmake")
echo "wrote $out ($(wc -c < "$out") bytes)"

# Each case writes its own rows, so the filter selects every suite the
# file declares (TEST_P suites carry an instantiation prefix).
out="$repo/tests/golden/timing_digests.json"
filter="$(sed -nE -e 's/^TEST\(([A-Za-z0-9_]+),.*/\1.*/p' \
                  -e 's|^TEST_P\(([A-Za-z0-9_]+),.*|*/\1.*|p' \
              "$repo/tests/diag/test_timing_digests.cpp" |
          sort -u | paste -sd: -)"
rm -f "$out"
DIAG_UPDATE_DIGESTS=1 "$build/tests/test_diag" \
    --gtest_filter="$filter" > /dev/null
echo "wrote $out ($(wc -c < "$out") bytes)"
