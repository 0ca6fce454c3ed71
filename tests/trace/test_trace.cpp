/**
 * @file
 * The tracing subsystem's contracts: ring-buffer drop semantics, event
 * mask parsing/filtering, zero architectural overhead (a traced run is
 * cycle- and counter-identical to an untraced one), --jobs trace
 * determinism through the parallel harness, Chrome-trace export
 * sanity, time-series accounting, and bottleneck attribution.
 */
#include <sstream>

#include <gtest/gtest.h>

#include "analysis/lint.hpp"
#include "asm/assembler.hpp"
#include "harness/runner.hpp"
#include "harness/validate.hpp"
#include "json_syntax.hpp"
#include "trace/attribution.hpp"
#include "trace/export.hpp"
#include "workloads/workload.hpp"

using namespace diag;
using namespace diag::trace;

namespace
{

TEST(TraceSink, RingBufferDropsOldestOnOverflow)
{
    RingBufferSink sink(4);
    for (u16 i = 0; i < 6; ++i)
        sink.record({EventKind::Activation, 0, i, 0, i, 1, 0});
    EXPECT_EQ(sink.dropped(), 2u);
    const std::vector<TraceEvent> ev = sink.events();
    ASSERT_EQ(ev.size(), 4u);
    // Oldest two (unit 0, 1) dropped; survivors in record order.
    for (u16 i = 0; i < 4; ++i)
        EXPECT_EQ(ev[i].unit, i + 2);
}

TEST(TraceEvents, ParseEventMask)
{
    u32 mask = 0;
    std::string bad;
    EXPECT_TRUE(parseEventMask("activation,reuse-hit", mask, bad));
    EXPECT_EQ(mask, eventBit(EventKind::Activation) |
                        eventBit(EventKind::ReuseHit));
    EXPECT_TRUE(parseEventMask("all", mask, bad));
    EXPECT_EQ(mask, kAllEvents);
    EXPECT_TRUE(parseEventMask("default", mask, bad));
    EXPECT_EQ(mask, kDefaultEvents);
    EXPECT_FALSE(parseEventMask("activation,bogus", mask, bad));
    EXPECT_EQ(bad, "bogus");
}

TEST(TraceEvents, MaskFiltersRecording)
{
    TraceConfig tc;
    tc.event_mask = eventBit(EventKind::Activation);
    Tracer trc(tc);
    trc.activation(0, 0, 0x1000, 10, 20, false, 4);
    trc.laneWrite(0, 3, 0x1000, 12, 7);  // masked out
    ASSERT_EQ(trc.sink().events().size(), 1u);
    EXPECT_EQ(trc.sink().events()[0].kind, EventKind::Activation);
}

/** Run @p name on the diag engine, optionally traced. */
harness::EngineRun
runWorkload(const std::string &name, bool simt,
            const TraceConfig *tc)
{
    const workloads::Workload w = workloads::findWorkload(name);
    harness::RunSpec spec;
    spec.threads = 1;
    spec.use_simt = simt;
    spec.trace = tc;
    return harness::runOnDiag(core::DiagConfig::f4c32(), w, spec);
}

TEST(TraceOverhead, TracedRunIsCycleAndCounterIdentical)
{
    TraceConfig tc;
    tc.event_mask = kAllEvents;
    tc.metrics_stride = 256;
    const harness::EngineRun plain = runWorkload("kmeans", true,
                                                 nullptr);
    const harness::EngineRun traced = runWorkload("kmeans", true, &tc);
    EXPECT_FALSE(plain.trace);
    ASSERT_TRUE(traced.trace);
    EXPECT_GT(traced.trace->sink().events().size(), 0u);
    // The tracer is purely observational: every cycle the model
    // computes, and every counter it increments, must be unchanged.
    EXPECT_EQ(traced.stats.cycles, plain.stats.cycles);
    EXPECT_EQ(traced.stats.instructions, plain.stats.instructions);
    EXPECT_EQ(traced.stats.counters.all(), plain.stats.counters.all());
}

TEST(TraceDeterminism, JobsOneAndManyProduceIdenticalTraces)
{
    const workloads::Workload km = workloads::findWorkload("kmeans");
    const workloads::Workload lud = workloads::findWorkload("lud");
    TraceConfig tc;
    tc.metrics_stride = 512;
    std::vector<harness::MatrixCell> cells;
    for (const workloads::Workload *w : {&km, &lud}) {
        harness::MatrixCell c;
        c.w = w;
        c.spec.use_simt = !w->asm_simt.empty();
        c.spec.trace = &tc;
        c.cfg = core::DiagConfig::f4c32();
        cells.push_back(c);
    }
    const auto serial = harness::runMatrix(cells, 1);
    const auto par = harness::runMatrix(cells, 4);
    ASSERT_EQ(serial.size(), cells.size());
    for (size_t i = 0; i < cells.size(); ++i) {
        ASSERT_TRUE(serial[i].trace && par[i].trace) << "cell " << i;
        const TraceMeta meta{cells[i].w->name, "F4C32",
                             cells[i].spec.use_simt};
        std::ostringstream a, b, ma, mb;
        writeChromeTrace(a, *serial[i].trace, meta);
        writeChromeTrace(b, *par[i].trace, meta);
        EXPECT_EQ(a.str(), b.str()) << "cell " << i;
        writeMetricsJson(ma, *serial[i].trace, meta);
        writeMetricsJson(mb, *par[i].trace, meta);
        EXPECT_EQ(ma.str(), mb.str()) << "cell " << i;
    }
}

TEST(TraceExport, ChromeTraceShapeAndTracks)
{
    TraceConfig tc;
    tc.event_mask = kAllEvents;
    const harness::EngineRun run = runWorkload("kmeans", true, &tc);
    ASSERT_TRUE(run.trace);
    std::ostringstream os;
    writeChromeTrace(os, *run.trace, {"kmeans", "F4C32", true});
    const std::string json = os.str();
    EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
    EXPECT_EQ(json.substr(json.size() - 2), "}\n");
    // Track metadata and at least one of each hot event family.
    EXPECT_NE(json.find("\"process_name\""), std::string::npos);
    EXPECT_NE(json.find("\"ring0\""), std::string::npos);
    EXPECT_NE(json.find("\"activation\""), std::string::npos);
    EXPECT_NE(json.find("\"simt-stage\""), std::string::npos);
    EXPECT_NE(json.find("\"region-enter\""), std::string::npos);
    EXPECT_NE(json.find("\"workload\":\"kmeans\""),
              std::string::npos);
    // Rendering is a pure function of the tracer: dump twice, equal.
    std::ostringstream again;
    writeChromeTrace(again, *run.trace, {"kmeans", "F4C32", true});
    EXPECT_EQ(json, again.str());
}

TEST(TraceExport, QuotedRunNamesStayValidJson)
{
    // diag-run stamps the program path into TraceMeta, and a path may
    // hold any byte: every writer must escape it.
    TraceConfig tc;
    tc.metrics_stride = 256;
    const harness::EngineRun run = runWorkload("kmeans", true, &tc);
    ASSERT_TRUE(run.trace);
    const TraceMeta meta{"q/a\"b\\c\x01.s", "F4\"C32", true};
    std::ostringstream trace, metrics, spans;
    writeChromeTrace(trace, *run.trace, meta);
    writeMetricsJson(metrics, *run.trace, meta);
    writeSpanTrace(spans, {{0, "req 1", "attempt", 0, 5, 1}}, meta);
    for (const std::string &json :
         {trace.str(), metrics.str(), spans.str()}) {
        EXPECT_TRUE(test::isValidJson(json)) << json.substr(0, 200);
        EXPECT_NE(json.find("q/a\\\"b\\\\c\\u0001.s"), std::string::npos);
    }
}

TEST(TraceMetrics, BucketedRetiredSumsToInstructions)
{
    TraceConfig tc;
    tc.metrics_stride = 128;
    const harness::EngineRun run = runWorkload("kmeans", true, &tc);
    ASSERT_TRUE(run.trace);
    const auto &samples = run.trace->metrics().samples();
    ASSERT_FALSE(samples.empty());
    double retired = 0;
    bool saw_region = false;
    for (const MetricsSample &s : samples) {
        retired += s.retired;
        saw_region = saw_region || s.region != 0;
    }
    EXPECT_DOUBLE_EQ(retired,
                     static_cast<double>(run.stats.instructions));
    EXPECT_TRUE(saw_region);  // the simt region tags its buckets
}

TEST(TraceAttribution, NamesABottleneckForEveryPipelinedRegion)
{
    // Every bundled workload that ships a simt-annotated variant.
    std::vector<workloads::Workload> all = workloads::rodiniaSuite();
    for (workloads::Workload &w : workloads::specSuite())
        all.push_back(std::move(w));
    const core::DiagConfig cfg = core::DiagConfig::f4c32();
    unsigned simt_workloads = 0;
    for (const workloads::Workload &w : all) {
        if (w.asm_simt.empty())
            continue;
        ++simt_workloads;
        const harness::EngineRun run = runWorkload(w.name, true, nullptr);
        const Program prog = assembler::assemble(w.asm_simt);
        const analysis::ProgramAnalysis an = analysis::analyzeProgram(
            prog, harness::lintOptionsFor(cfg));
        const AttributionReport rep = attributeRegions(
            an.bound, run.stats.counters,
            static_cast<double>(run.stats.cycles),
            static_cast<double>(run.stats.instructions));
        ASSERT_FALSE(rep.regions.empty()) << w.name;
        double region_cycles = 0;
        for (const RegionAttribution &r : rep.regions) {
            ASSERT_TRUE(r.pipelined) << w.name;
            EXPECT_FALSE(r.bottleneck.empty()) << w.name;
            EXPECT_FALSE(r.dominant.empty()) << w.name;
            EXPECT_GT(r.measured, 0.0) << w.name;
            // The decomposition must sum to the model's prediction.
            EXPECT_NEAR(r.fill_cycles + r.steady_cycles + r.setup_cycles,
                        r.predicted, 1e-6)
                << w.name;
            region_cycles += r.measured;
        }
        EXPECT_DOUBLE_EQ(rep.region_cycles, region_cycles) << w.name;
        EXPECT_DOUBLE_EQ(rep.serial_cycles + rep.region_cycles,
                         rep.total_cycles)
            << w.name;
        // Both renderers are deterministic.
        EXPECT_EQ(renderAttributionJson(rep), renderAttributionJson(rep));
        EXPECT_FALSE(renderAttribution(rep).empty()) << w.name;
    }
    EXPECT_GE(simt_workloads, 10u);
}

} // namespace
