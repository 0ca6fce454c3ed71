#!/usr/bin/env bash
# Regenerate the golden snapshots from a built tree.
#
#   tools/update_goldens.sh [build-dir]
#
# Six snapshots plus one per figure binary, each compared byte-for-byte
# by a test:
#   analysis_all_workloads.json  diag-bound JSON (lint findings + bound
#                                model) for every bundled workload
#                                (`analysis_goldens`);
#   stream_all_workloads.json    diag-stream JSON (`stream_goldens`);
#   lint_all_workloads.json      diag-lint JSON (`lint_goldens`);
#   verify_all_workloads.json    diag-verify JSON (`verify_goldens`);
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
#                                list), the 130 Fig 9a/9b/10a/10b/12
#                                cells of harness::paperCells() (keyed
#                                cell/<cell name>), the fuzz corpus, the
#                                loop and simt-fallback kernels and the
#                                nn trace/address-log/fault-campaign
#                                runs (every case in
#                                tests/diag/test_timing_digests.cpp);
#   figures/<binary>.txt         stdout of each table/figure/ablation
#                                binary in figure_benches below, under
#                                --jobs 1 and --jobs 4
#                                (`figure_golden.<binary>`).
# Rerun this after any intentional change to the analyzers, the engine
# models or the workloads, then commit the diff.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="$(cd "${1:-$repo/build}" && pwd)"

figure_benches=(bench_table1_stages bench_table2_configs
                bench_table3_area_power bench_fig9a_rodinia_st
                bench_fig9b_rodinia_mt bench_fig10a_spec_st
                bench_fig10b_spec_mt bench_fig11_energy_breakdown
                bench_fig12_energy_efficiency bench_stall_breakdown
                bench_ablation_pes bench_ablation_reuse
                bench_ablation_memlanes bench_ablation_prefetch
                bench_ablation_interval bench_lane_timing)

for bin in "$build"/tools-bin/diag-{bound,stream,lint,verify,run} \
           "$build/tests/test_diag" \
           "${figure_benches[@]/#/$build/bench/}"; do
    if [[ ! -x "$bin" ]]; then
        echo "error: $bin not built (cmake --build $build)" >&2
        exit 1
    fi
done

for pair in analysis:diag-bound stream:diag-stream lint:diag-lint \
            verify:diag-verify; do
    out="$repo/tests/golden/${pair%%:*}_all_workloads.json"
    "$build/tools-bin/${pair#*:}" --all-workloads --json > "$out"
    echo "wrote $out ($(wc -c < "$out") bytes)"
done

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

rm -rf "$repo/tests/golden/figures"
mkdir -p "$repo/tests/golden/figures"
for bench in "${figure_benches[@]}"; do
    out="$repo/tests/golden/figures/$bench.txt"
    (cd "$build" && cmake -DBENCH="$build/bench/$bench" -DGOLDEN="$out" \
        -DUPDATE=ON -P "$repo/tests/golden/check_figure_golden.cmake")
    echo "wrote $out ($(wc -c < "$out") bytes)"
done
