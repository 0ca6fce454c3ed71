#include "trace/export.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "common/log.hpp"
#include "common/stats.hpp"

namespace diag::trace
{

namespace
{

/** Track ids within a ring's process (clusters use their own index). */
constexpr unsigned kTidControl = 200;
constexpr unsigned kTidMemLanes = 201;
constexpr unsigned kTidThreads = 202;
constexpr unsigned kTidLanes = 203;

/** pid 0 is the shared memory system; rings are pid 1 + ring. */
unsigned
pidOf(const TraceEvent &ev)
{
    return ev.kind == EventKind::BankConflict ? 0 : 1u + ev.ring;
}

unsigned
tidOf(const TraceEvent &ev)
{
    switch (ev.kind) {
      case EventKind::Activation:
      case EventKind::SimtStage:
      case EventKind::ReuseHit:
      case EventKind::LsuQueue:
        return ev.unit;
      case EventKind::LaneWrite:
        return kTidLanes;
      case EventKind::PcRedirect:
      case EventKind::Checkpoint:
      case EventKind::Rollback:
      case EventKind::RegionEnter:
      case EventKind::RegionExit:
        return kTidControl;
      case EventKind::MemLaneHit:
      case EventKind::MemLaneEvict:
        return kTidMemLanes;
      case EventKind::Thread:
        return kTidThreads;
      case EventKind::BankConflict:
        return ev.unit;
      case EventKind::Count:
        break;
    }
    return kTidControl;
}

std::string
trackName(unsigned pid, unsigned tid)
{
    if (pid == 0)
        return detail::vformat("l1d bank %u", tid);
    switch (tid) {
      case kTidControl: return "control";
      case kTidMemLanes: return "mem-lanes";
      case kTidThreads: return "threads";
      case kTidLanes: return "lanes";
      default: return detail::vformat("cluster %u", tid);
    }
}

std::string
eventJson(const TraceEvent &ev)
{
    const unsigned pid = pidOf(ev);
    const unsigned tid = tidOf(ev);
    const auto ts = static_cast<unsigned long long>(ev.start);
    const auto dur = static_cast<unsigned long long>(ev.dur);
    const auto arg = static_cast<unsigned long long>(ev.arg);
    const char *cat = eventName(ev.kind);
    switch (ev.kind) {
      case EventKind::Activation:
        return detail::vformat(
            "{\"name\":\"act 0x%08x\",\"cat\":\"%s\",\"ph\":\"X\","
            "\"ts\":%llu,\"dur\":%llu,\"pid\":%u,\"tid\":%u,"
            "\"args\":{\"pc\":\"0x%08x\",\"retired\":%llu}}",
            ev.pc, cat, ts, dur, pid, tid, ev.pc, arg);
      case EventKind::SimtStage:
        return detail::vformat(
            "{\"name\":\"thr %llu 0x%08x\",\"cat\":\"%s\","
            "\"ph\":\"X\",\"ts\":%llu,\"dur\":%llu,\"pid\":%u,"
            "\"tid\":%u,\"args\":{\"thread\":%llu,"
            "\"pc\":\"0x%08x\"}}",
            arg, ev.pc, cat, ts, dur, pid, tid, arg, ev.pc);
      case EventKind::LsuQueue:
        return detail::vformat(
            "{\"name\":\"lsq stall\",\"cat\":\"%s\",\"ph\":\"X\","
            "\"ts\":%llu,\"dur\":%llu,\"pid\":%u,\"tid\":%u,"
            "\"args\":{\"pc\":\"0x%08x\",\"depth\":%llu}}",
            cat, ts, dur, pid, tid, ev.pc, arg);
      case EventKind::Thread:
        return detail::vformat(
            "{\"name\":\"thread %u\",\"cat\":\"%s\",\"ph\":\"X\","
            "\"ts\":%llu,\"dur\":%llu,\"pid\":%u,\"tid\":%u,"
            "\"args\":{\"entry\":\"0x%08x\",\"retired\":%llu}}",
            ev.unit, cat, ts, dur, pid, tid, ev.pc, arg);
      case EventKind::RegionExit:
        // The exit event carries the span length; render the whole
        // region occupancy as a complete event ending at `start`.
        return detail::vformat(
            "{\"name\":\"region 0x%08x\",\"cat\":\"%s\","
            "\"ph\":\"X\",\"ts\":%llu,\"dur\":%llu,\"pid\":%u,"
            "\"tid\":%u,\"args\":{\"pc\":\"0x%08x\"}}",
            ev.pc, cat, static_cast<unsigned long long>(ev.start -
                                                        ev.dur),
            dur, pid, tid, ev.pc);
      case EventKind::BankConflict:
        return detail::vformat(
            "{\"name\":\"conflict\",\"cat\":\"%s\",\"ph\":\"X\","
            "\"ts\":%llu,\"dur\":%llu,\"pid\":%u,\"tid\":%u,"
            "\"args\":{\"addr\":\"0x%08x\"}}",
            cat, ts, dur, pid, tid, ev.pc);
      case EventKind::LaneWrite:
        return detail::vformat(
            "{\"name\":\"x%u\",\"cat\":\"%s\",\"ph\":\"i\","
            "\"s\":\"t\",\"ts\":%llu,\"pid\":%u,\"tid\":%u,"
            "\"args\":{\"pc\":\"0x%08x\",\"value\":%llu}}",
            ev.unit, cat, ts, pid, tid, ev.pc, arg);
      case EventKind::PcRedirect:
        return detail::vformat(
            "{\"name\":\"redirect\",\"cat\":\"%s\",\"ph\":\"i\","
            "\"s\":\"t\",\"ts\":%llu,\"pid\":%u,\"tid\":%u,"
            "\"args\":{\"from\":\"0x%08x\",\"to\":\"0x%08llx\"}}",
            cat, ts, pid, tid, ev.pc, arg);
      case EventKind::ReuseHit:
      case EventKind::MemLaneHit:
      case EventKind::MemLaneEvict:
      case EventKind::Checkpoint:
      case EventKind::Rollback:
      case EventKind::RegionEnter:
        return detail::vformat(
            "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\","
            "\"s\":\"t\",\"ts\":%llu,\"pid\":%u,\"tid\":%u,"
            "\"args\":{\"pc\":\"0x%08x\",\"arg\":%llu}}",
            eventName(ev.kind), cat, ts, pid, tid, ev.pc, arg);
      case EventKind::Count:
        break;
    }
    panic("unreachable event kind %u", static_cast<unsigned>(ev.kind));
}

} // namespace

void
writeChromeTrace(std::ostream &os, const Tracer &tracer,
                 const TraceMeta &meta)
{
    const std::vector<TraceEvent> events = tracer.sink().events();

    // Track inventory first (sorted), so viewers label every row and
    // the file layout is deterministic.
    std::set<std::pair<unsigned, unsigned>> tracks;
    for (const TraceEvent &ev : events)
        tracks.insert({pidOf(ev), tidOf(ev)});

    os << "{\"traceEvents\":[";
    bool first = true;
    auto emit = [&](const std::string &obj) {
        os << (first ? "\n" : ",\n") << obj;
        first = false;
    };
    std::set<unsigned> pids;
    for (const auto &[pid, tid] : tracks)
        pids.insert(pid);
    for (const unsigned pid : pids)
        emit(detail::vformat(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,"
            "\"args\":{\"name\":\"%s\"}}",
            pid,
            pid == 0 ? "memory"
                     : detail::vformat("ring%u", pid - 1).c_str()));
    for (const auto &[pid, tid] : tracks)
        emit(detail::vformat(
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%u,"
            "\"tid\":%u,\"args\":{\"name\":\"%s\"}}",
            pid, tid, trackName(pid, tid).c_str()));
    for (const TraceEvent &ev : events)
        emit(eventJson(ev));
    os << "\n],\n\"displayTimeUnit\":\"ms\",\n\"otherData\":{"
       << detail::vformat(
              "\"workload\":\"%s\",\"config\":\"%s\",\"simt\":%s,"
              "\"time_unit\":\"1 ts = 1 cycle\","
              "\"events\":%llu,\"dropped\":%llu}",
              jsonEscape(meta.workload).c_str(),
              jsonEscape(meta.config).c_str(),
              meta.simt ? "true" : "false",
              static_cast<unsigned long long>(events.size()),
              static_cast<unsigned long long>(tracer.sink().dropped()))
       << "}\n";
}

void
writeMetricsJson(std::ostream &os, const Tracer &tracer,
                 const TraceMeta &meta)
{
    writeMetricsJson(os, tracer.metrics(), tracer.clusters(), meta);
}

void
writeMetricsJson(std::ostream &os, const MetricsSeries &m,
                 unsigned clusters, const TraceMeta &meta)
{
    const double stride = static_cast<double>(m.stride());
    os << detail::vformat(
        "{\n\"workload\":\"%s\",\n\"config\":\"%s\",\n\"simt\":%s,\n"
        "\"stride\":%llu,\n\"clusters\":%u,\n\"samples\":[",
        jsonEscape(meta.workload).c_str(),
        jsonEscape(meta.config).c_str(), meta.simt ? "true" : "false",
        static_cast<unsigned long long>(m.stride()), clusters);
    bool first = true;
    for (const MetricsSample &s : m.samples()) {
        const double ipc = stride > 0 ? s.retired / stride : 0;
        const double occ =
            stride > 0 && clusters > 0
                ? s.cluster_busy / (stride * clusters)
                : 0;
        const double lane_util =
            stride > 0 ? s.lane_writes / stride : 0;
        os << (first ? "\n" : ",\n")
           << detail::vformat(
                  "{\"cycle\":%llu,\"retired\":%.6g,\"ipc\":%.6g,"
                  "\"cluster_busy\":%.6g,\"occupancy\":%.6g,"
                  "\"lane_writes\":%.6g,\"lane_util\":%.6g,"
                  "\"region\":\"0x%08x\"}",
                  static_cast<unsigned long long>(s.cycle), s.retired,
                  ipc, s.cluster_busy, occ, s.lane_writes, lane_util,
                  s.region);
        first = false;
    }
    os << "\n]\n}\n";
}

void
writeSpanTrace(std::ostream &os, const std::vector<SpanEvent> &spans,
               const TraceMeta &meta)
{
    // All spans live in one "serve" process; pick a pid clear of the
    // ring pids so a span trace can be concatenated with a sim trace
    // in a viewer without track collisions.
    constexpr unsigned kServePid = 100;
    std::set<unsigned> tracks;
    for (const SpanEvent &sp : spans)
        tracks.insert(sp.track);

    os << "{\"traceEvents\":[";
    bool first = true;
    auto emit = [&](const std::string &obj) {
        os << (first ? "\n" : ",\n") << obj;
        first = false;
    };
    emit(detail::vformat(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,"
        "\"args\":{\"name\":\"serve\"}}",
        kServePid));
    for (const unsigned tid : tracks)
        emit(detail::vformat(
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%u,"
            "\"tid\":%u,\"args\":{\"name\":\"%s\"}}",
            kServePid, tid,
            tid == kSpanTrackQueue
                ? "queue"
                : detail::vformat("worker %u", tid).c_str()));
    for (const SpanEvent &sp : spans)
        emit(detail::vformat(
            "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
            "\"ts\":%llu,\"dur\":%llu,\"pid\":%u,\"tid\":%u,"
            "\"args\":{\"request\":%llu}}",
            jsonEscape(sp.name).c_str(), jsonEscape(sp.cat).c_str(),
            static_cast<unsigned long long>(sp.ts_us),
            static_cast<unsigned long long>(sp.dur_us), kServePid,
            sp.track, static_cast<unsigned long long>(sp.arg)));
    os << "\n],\n\"displayTimeUnit\":\"ms\",\n\"otherData\":{"
       << detail::vformat(
              "\"workload\":\"%s\",\"config\":\"%s\","
              "\"time_unit\":\"1 ts = 1 us\",\"spans\":%llu}",
              jsonEscape(meta.workload).c_str(),
              jsonEscape(meta.config).c_str(),
              static_cast<unsigned long long>(spans.size()))
       << "}\n";
}

} // namespace diag::trace
