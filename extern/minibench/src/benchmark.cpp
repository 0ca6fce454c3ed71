/**
 * @file
 * minibench implementation: adaptive-iteration runner, console
 * reporter, and a google-benchmark-schema JSON reporter. Linux-only
 * (reads /sys and /proc for the context block), which is the only
 * platform this repository builds on.
 */
#include "benchmark/benchmark.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <memory>
#include <regex>
#include <sstream>

#include <unistd.h>

namespace benchmark
{

namespace
{

// ---- flags (set by Initialize) ----
struct Flags
{
    std::string filter;          // empty = run everything
    double min_time = 0.5;       // seconds of real time per run
    std::string out_path;        // empty = no file output
    std::string out_format = "json";
    bool list_tests = false;
    std::string executable;      // argv[0]
};

Flags &
flags()
{
    static Flags f;
    return f;
}

// ---- clocks ----
double
clockSeconds(clockid_t id)
{
    timespec ts{};
    clock_gettime(id, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
wallNow()
{
    return clockSeconds(CLOCK_MONOTONIC);
}

double
cpuNow()
{
    return clockSeconds(CLOCK_PROCESS_CPUTIME_ID);
}

} // namespace

// ---- State ----

std::int64_t
State::range(std::size_t i) const
{
    if (i >= args_.size()) {
        std::fprintf(stderr,
                     "minibench: State::range(%zu) but only %zu Arg()s "
                     "were registered\n",
                     i, args_.size());
        std::abort();
    }
    return args_[i];
}

void
State::start()
{
    real_start_ = wallNow();
    cpu_start_ = cpuNow();
}

void
State::finish()
{
    real_elapsed_ = wallNow() - real_start_;
    cpu_elapsed_ = cpuNow() - cpu_start_;
}

void
State::PauseTiming()
{
    pause_real_ = wallNow();
    pause_cpu_ = cpuNow();
}

void
State::ResumeTiming()
{
    // Shift the start marks forward by the paused span so the final
    // finish() subtraction excludes it.
    real_start_ += wallNow() - pause_real_;
    cpu_start_ += cpuNow() - pause_cpu_;
}

// ---- registry ----

namespace internal
{

namespace
{
std::vector<std::unique_ptr<Benchmark>> &
registry()
{
    static std::vector<std::unique_ptr<Benchmark>> r;
    return r;
}
} // namespace

Benchmark *
RegisterBenchmarkInternal(const char *name, Benchmark::Function fn)
{
    registry().push_back(std::make_unique<Benchmark>(name, fn));
    return registry().back().get();
}

} // namespace internal

// ---- runner ----

/** One benchmark instance (a family member) and its measured run. */
struct Runner
{
    struct Instance
    {
        std::string name;  // "family[/arg...][/real_time]"
        internal::Benchmark::Function fn;
        std::vector<std::int64_t> args;
        int family_index = 0;
        int instance_index = 0;
        bool use_real_time = false;
    };

    struct Result
    {
        Instance inst;
        std::uint64_t iterations = 0;
        double real_s = 0.0;  // total across all iterations
        double cpu_s = 0.0;
        UserCounters counters;

        /** A counter as reported: kIsRate divides by the run's time
         *  base (wall clock under UseRealTime, else CPU). */
        double
        reported(const Counter &c) const
        {
            if (!(c.flags & Counter::kIsRate))
                return c.value;
            return c.value / (inst.use_real_time ? real_s : cpu_s);
        }
    };

    static std::vector<Instance>
    expand()
    {
        std::vector<Instance> out;
        int family = 0;
        for (const auto &b : internal::registry()) {
            const std::string suffix =
                b->useRealTime() ? "/real_time" : "";
            if (b->args().empty()) {
                out.push_back({b->name() + suffix, b->fn(), {}, family,
                               0, b->useRealTime()});
            } else {
                int idx = 0;
                for (const auto &argv : b->args()) {
                    std::string name = b->name();
                    for (std::int64_t a : argv)
                        name += "/" + std::to_string(a);
                    out.push_back({name + suffix, b->fn(), argv, family,
                                   idx++, b->useRealTime()});
                }
            }
            ++family;
        }
        return out;
    }

    /**
     * Measure one instance: grow the iteration count until the timed
     * loop covers the requested minimum real time (google-benchmark's
     * strategy: predict from the last sample with 40% headroom, never
     * more than 10x at once).
     */
    static Result
    run(const Instance &inst)
    {
        constexpr std::uint64_t kMaxIters = 1'000'000'000;
        const double min_time = flags().min_time;
        std::uint64_t iters = 1;
        for (;;) {
            State st(iters, inst.args);
            inst.fn(st);
            const double real = st.real_elapsed_;
            if (real >= min_time || iters >= kMaxIters) {
                Result res;
                res.inst = inst;
                res.iterations = iters;
                res.real_s = real;
                res.cpu_s = st.cpu_elapsed_;
                res.counters = st.counters;
                return res;
            }
            const double per =
                real > 0 ? real / static_cast<double>(iters) : 0.0;
            std::uint64_t next =
                per > 0 ? static_cast<std::uint64_t>(min_time * 1.4 /
                                                     per)
                        : iters * 10;
            next = std::min(next, iters * 10);
            next = std::max(next, iters + 1);
            iters = std::min(next, kMaxIters);
        }
    }
};

// ---- context block ----

namespace
{

struct CacheInfo
{
    std::string type;
    int level = 0;
    long size = 0;
    int num_sharing = 1;
};

std::string
readLine(const std::string &path)
{
    std::ifstream in(path);
    std::string line;
    if (in)
        std::getline(in, line);
    return line;
}

std::vector<CacheInfo>
sysfsCaches()
{
    std::vector<CacheInfo> out;
    for (int idx = 0;; ++idx) {
        const std::string base =
            "/sys/devices/system/cpu/cpu0/cache/index" +
            std::to_string(idx) + "/";
        const std::string type = readLine(base + "type");
        if (type.empty())
            break;
        CacheInfo ci;
        ci.type = type;
        ci.level = std::atoi(readLine(base + "level").c_str());
        const std::string size = readLine(base + "size");
        ci.size = std::atol(size.c_str());
        if (!size.empty()) {
            if (size.back() == 'K')
                ci.size *= 1024;
            else if (size.back() == 'M')
                ci.size *= 1024 * 1024;
        }
        // shared_cpu_list like "0" / "0-3" / "0,4": count members.
        const std::string shared = readLine(base + "shared_cpu_list");
        int sharing = 0;
        std::stringstream ss(shared);
        std::string piece;
        while (std::getline(ss, piece, ',')) {
            const auto dash = piece.find('-');
            if (dash == std::string::npos)
                sharing += 1;
            else
                sharing += std::atoi(piece.c_str() + dash + 1) -
                           std::atoi(piece.c_str()) + 1;
        }
        ci.num_sharing = std::max(sharing, 1);
        out.push_back(ci);
    }
    return out;
}

int
cpuMhz()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("cpu MHz", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return static_cast<int>(
                    std::atof(line.c_str() + colon + 1) + 0.5);
        }
    }
    return 0;
}

bool
cpuScalingEnabled()
{
    const std::string gov = readLine(
        "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor");
    return !gov.empty() && gov != "performance";
}

std::string
iso8601Now()
{
    char buf[64];
    std::time_t t = std::time(nullptr);
    std::tm tm{};
    localtime_r(&t, &tm);
    std::strftime(buf, sizeof buf, "%FT%T%z", &tm);
    // strftime %z gives "+0000"; the google schema uses "+00:00".
    std::string s(buf);
    if (s.size() >= 5)
        s.insert(s.size() - 2, ":");
    return s;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

/** Doubles in google-benchmark's %.17g-equivalent scientific form. */
std::string
jsonDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.16e", v);
    return buf;
}

void
writeJson(std::ostream &os, const std::vector<Runner::Result> &results)
{
    os << "{\n  \"context\": {\n";
    os << "    \"date\": \"" << iso8601Now() << "\",\n";
    char host[256] = "unknown";
    gethostname(host, sizeof host - 1);
    os << "    \"host_name\": \"" << jsonEscape(host) << "\",\n";
    os << "    \"executable\": \"" << jsonEscape(flags().executable)
       << "\",\n";
    os << "    \"num_cpus\": " << sysconf(_SC_NPROCESSORS_ONLN)
       << ",\n";
    os << "    \"mhz_per_cpu\": " << cpuMhz() << ",\n";
    os << "    \"cpu_scaling_enabled\": "
       << (cpuScalingEnabled() ? "true" : "false") << ",\n";
    os << "    \"caches\": [\n";
    const auto caches = sysfsCaches();
    for (size_t i = 0; i < caches.size(); ++i) {
        const CacheInfo &c = caches[i];
        os << "      {\n"
           << "        \"type\": \"" << jsonEscape(c.type) << "\",\n"
           << "        \"level\": " << c.level << ",\n"
           << "        \"size\": " << c.size << ",\n"
           << "        \"num_sharing\": " << c.num_sharing << "\n"
           << "      }" << (i + 1 < caches.size() ? "," : "") << "\n";
    }
    os << "    ],\n";
    double load[3] = {0, 0, 0};
    getloadavg(load, 3);
    char lbuf[96];
    std::snprintf(lbuf, sizeof lbuf, "[%g,%g,%g]", load[0], load[1],
                  load[2]);
    os << "    \"load_avg\": " << lbuf << ",\n";
    // Honest self-report: minibench is compiled by this project's own
    // configure, so NDEBUG tells the truth about the timing library.
#ifdef NDEBUG
    os << "    \"library_build_type\": \"release\"";
#else
    os << "    \"library_build_type\": \"debug\"";
#endif
    os << "\n  },\n";
    os << "  \"benchmarks\": [\n";
    for (size_t i = 0; i < results.size(); ++i) {
        const Runner::Result &r = results[i];
        const double it = static_cast<double>(r.iterations);
        os << "    {\n";
        os << "      \"name\": \"" << jsonEscape(r.inst.name)
           << "\",\n";
        os << "      \"family_index\": " << r.inst.family_index
           << ",\n";
        os << "      \"per_family_instance_index\": "
           << r.inst.instance_index << ",\n";
        os << "      \"run_name\": \"" << jsonEscape(r.inst.name)
           << "\",\n";
        os << "      \"run_type\": \"iteration\",\n";
        os << "      \"repetitions\": 1,\n";
        os << "      \"repetition_index\": 0,\n";
        os << "      \"threads\": 1,\n";
        os << "      \"iterations\": " << r.iterations << ",\n";
        os << "      \"real_time\": " << jsonDouble(r.real_s * 1e9 / it)
           << ",\n";
        os << "      \"cpu_time\": " << jsonDouble(r.cpu_s * 1e9 / it)
           << ",\n";
        os << "      \"time_unit\": \"ns\"";
        for (const auto &[key, c] : r.counters)
            os << ",\n      \"" << jsonEscape(key)
               << "\": " << jsonDouble(r.reported(c));
        os << "\n    }" << (i + 1 < results.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
}

void
printConsole(const Runner::Result &r)
{
    const double it = static_cast<double>(r.iterations);
    std::string extra;
    for (const auto &[key, c] : r.counters) {
        char cbuf[96];
        std::snprintf(cbuf, sizeof cbuf, " %s=%.6g", key.c_str(),
                      r.reported(c));
        extra += cbuf;
    }
    std::printf("%-40s %12.0f ns %12.0f ns %12llu%s\n",
                r.inst.name.c_str(), r.real_s * 1e9 / it,
                r.cpu_s * 1e9 / it,
                static_cast<unsigned long long>(r.iterations),
                extra.c_str());
}

} // namespace

// ---- public API ----

void
Initialize(int *argc, char **argv)
{
    if (*argc > 0)
        flags().executable = argv[0];
    int out = 1;
    for (int i = 1; i < *argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&arg](const char *name) -> const char * {
            const size_t n = std::strlen(name);
            if (arg.compare(0, n, name) == 0 && arg[n] == '=')
                return arg.c_str() + n + 1;
            return nullptr;
        };
        if (const char *v = value("--benchmark_filter")) {
            flags().filter = v;
        } else if (const char *v = value("--benchmark_min_time")) {
            // Accept both the bare-seconds spelling ("1") and the
            // newer suffixed one ("1s"); reject "Nx" repetitions.
            std::string s(v);
            if (!s.empty() && s.back() == 's')
                s.pop_back();
            flags().min_time = std::atof(s.c_str());
        } else if (const char *v = value("--benchmark_out")) {
            flags().out_path = v;
        } else if (const char *v = value("--benchmark_out_format")) {
            flags().out_format = v;
        } else if (arg == "--benchmark_list_tests" ||
                   arg == "--benchmark_list_tests=true") {
            flags().list_tests = true;
        } else {
            argv[out++] = argv[i];
            continue;
        }
    }
    *argc = out;
}

bool
ReportUnrecognizedArguments(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i)
        std::fprintf(stderr, "%s: unrecognized command-line flag: %s\n",
                     argv[0], argv[i]);
    return argc > 1;
}

void
RunSpecifiedBenchmarks()
{
    std::vector<Runner::Instance> instances = Runner::expand();
    if (!flags().filter.empty()) {
        const std::regex re(flags().filter);
        instances.erase(
            std::remove_if(instances.begin(), instances.end(),
                           [&re](const Runner::Instance &inst) {
                               return !std::regex_search(inst.name,
                                                         re);
                           }),
            instances.end());
    }
    if (flags().list_tests) {
        for (const auto &inst : instances)
            std::printf("%s\n", inst.name.c_str());
        return;
    }
    if (flags().out_format != "json" && !flags().out_path.empty()) {
        std::fprintf(stderr,
                     "minibench: only --benchmark_out_format=json is "
                     "supported\n");
        std::exit(1);
    }
    std::printf("%-40s %15s %15s %12s\n", "Benchmark", "Time", "CPU",
                "Iterations");
    std::printf("%s\n", std::string(86, '-').c_str());
    std::vector<Runner::Result> results;
    for (const auto &inst : instances) {
        results.push_back(Runner::run(inst));
        printConsole(results.back());
    }
    if (!flags().out_path.empty()) {
        std::ofstream out(flags().out_path);
        if (!out) {
            std::fprintf(stderr, "minibench: cannot open %s\n",
                         flags().out_path.c_str());
            std::exit(1);
        }
        writeJson(out, results);
    }
}

void
Shutdown()
{}

} // namespace benchmark
