/**
 * @file
 * minibench: a small, vendored microbenchmark library exposing the
 * subset of the google-benchmark API this repository uses, under the
 * same <benchmark/benchmark.h> header and benchmark:: namespace so the
 * bench sources compile unchanged against either library.
 *
 * Why it exists: throughput baselines (BENCH_*.json) must be measured
 * through an optimized timing library, and the system libbenchmark-dev
 * package ships a debug build (its JSON self-reports
 * "library_build_type": "debug"). minibench is compiled by this
 * project's own build, so a Release configure yields a Release timing
 * library — no network fetch, no submodule.
 *
 * Supported surface (see README.md): State ranged-for iteration with
 * adaptive iteration counts, State::range(), user counters with
 * Counter::kIsRate (rate = value / total CPU seconds, or / wall-clock
 * seconds under ->UseRealTime(), matching google-benchmark),
 * BENCHMARK()->Arg()->UseRealTime() registration, DoNotOptimize,
 * Initialize / ReportUnrecognizedArguments / RunSpecifiedBenchmarks /
 * Shutdown, BENCHMARK_MAIN, and the --benchmark_filter /
 * --benchmark_min_time / --benchmark_out / --benchmark_out_format=json
 * / --benchmark_list_tests flags. The JSON reporter emits the same
 * schema google-benchmark emits (context block with host info and
 * caches, one object per run) so downstream tooling and committed
 * BENCH_*.json artifacts keep their shape.
 */
#ifndef MINIBENCH_BENCHMARK_H
#define MINIBENCH_BENCHMARK_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace benchmark
{

/** A user-defined counter attached to a run via State::counters. */
class Counter
{
  public:
    enum Flags : unsigned {
        kDefaults = 0,
        /** Report value / total CPU seconds (wall-clock seconds for a
         *  UseRealTime() benchmark) instead of the raw value. */
        kIsRate = 1u << 0,
    };

    double value = 0.0;
    Flags flags = kDefaults;

    Counter() = default;
    Counter(double v, Flags f = kDefaults) : value(v), flags(f) {}

    operator double() const { return value; }
};

using UserCounters = std::map<std::string, Counter>;

/**
 * Per-run benchmark state. The runner picks an iteration count, the
 * benchmark body loops `for (auto _ : state)`, and the walltime/CPU
 * clocks run exactly while that loop does.
 */
class State
{
  public:
    UserCounters counters;

    /** The i-th Arg() of this instance. */
    std::int64_t range(std::size_t i = 0) const;

    /** Iterations the timed loop will execute (fixed per run). */
    std::uint64_t iterations() const { return max_iterations_; }

    /** Exclude a region from the timed interval. */
    void PauseTiming();
    void ResumeTiming();

    struct StateIterator
    {
        struct Value
        {};

        State *parent = nullptr;
        std::uint64_t cached = 0;

        Value operator*() const { return Value{}; }

        StateIterator &
        operator++()
        {
            --cached;
            return *this;
        }

        // Only the begin-derived operand is inspected; when the cached
        // count hits zero the timers stop (google-benchmark's pattern,
        // which keeps the hot loop to one decrement + one compare).
        bool
        operator!=(const StateIterator &) const
        {
            if (cached != 0)
                return true;
            parent->finish();
            return false;
        }
    };

    StateIterator
    begin()
    {
        start();
        return StateIterator{this, max_iterations_};
    }

    StateIterator end() { return StateIterator{}; }

  private:
    friend struct Runner;

    State(std::uint64_t iters, const std::vector<std::int64_t> &args)
        : max_iterations_(iters), args_(args)
    {}

    void start();
    void finish();

    std::uint64_t max_iterations_;
    const std::vector<std::int64_t> &args_;
    double real_start_ = 0.0, cpu_start_ = 0.0;
    double real_elapsed_ = 0.0, cpu_elapsed_ = 0.0;
    double pause_real_ = 0.0, pause_cpu_ = 0.0;
};

namespace internal
{

/** A registered benchmark family (one BENCHMARK() statement). */
class Benchmark
{
  public:
    using Function = void (*)(State &);

    Benchmark(std::string name, Function fn)
        : name_(std::move(name)), fn_(fn)
    {}

    /** Add an instance run with this argument (chainable). */
    Benchmark *
    Arg(std::int64_t x)
    {
        args_.push_back({x});
        return this;
    }

    /** Add an instance with several arguments (chainable). */
    Benchmark *
    Args(const std::vector<std::int64_t> &xs)
    {
        args_.push_back(xs);
        return this;
    }

    /**
     * Divide kIsRate counters by elapsed wall-clock time instead of
     * process CPU time, for every instance of this family (chainable).
     * Needed whenever the measured work runs on other threads: their
     * CPU seconds add up, so a CPU-time rate cannot show scaling. As
     * in google-benchmark, run names gain a "/real_time" suffix.
     */
    Benchmark *
    UseRealTime()
    {
        use_real_time_ = true;
        return this;
    }

    const std::string &name() const { return name_; }
    Function fn() const { return fn_; }
    bool useRealTime() const { return use_real_time_; }
    /** Per-instance argument lists; empty = one argless instance. */
    const std::vector<std::vector<std::int64_t>> &args() const
    {
        return args_;
    }

  private:
    std::string name_;
    Function fn_;
    std::vector<std::vector<std::int64_t>> args_;
    bool use_real_time_ = false;
};

Benchmark *RegisterBenchmarkInternal(const char *name,
                                     Benchmark::Function fn);

} // namespace internal

/**
 * Defeat dead-code elimination of @p value without fencing anything
 * else (same contract as google-benchmark's DoNotOptimize).
 */
template <class Tp>
inline void
DoNotOptimize(Tp const &value)
{
    asm volatile("" : : "r,m"(value) : "memory");
}

template <class Tp>
inline void
DoNotOptimize(Tp &value)
{
    asm volatile("" : "+r,m"(value) : : "memory");
}

/** Parse and consume recognized --benchmark_* flags from argv. */
void Initialize(int *argc, char **argv);

/** True (after printing them) iff unconsumed arguments remain. */
bool ReportUnrecognizedArguments(int argc, char **argv);

/** Run every registered benchmark that matches the filter. */
void RunSpecifiedBenchmarks();

/** Release library state (no-op placeholder for API parity). */
void Shutdown();

} // namespace benchmark

#define MINIBENCH_CONCAT2(a, b) a##b
#define MINIBENCH_CONCAT(a, b) MINIBENCH_CONCAT2(a, b)

/** Register @p fn; yields the Benchmark* so ->Arg() chains work. */
#define BENCHMARK(fn)                                                  \
    static ::benchmark::internal::Benchmark *MINIBENCH_CONCAT(         \
        _minibench_reg_, __COUNTER__) [[maybe_unused]] =               \
        ::benchmark::internal::RegisterBenchmarkInternal(#fn, fn)

#define BENCHMARK_MAIN()                                               \
    int main(int argc, char **argv)                                    \
    {                                                                  \
        ::benchmark::Initialize(&argc, argv);                          \
        if (::benchmark::ReportUnrecognizedArguments(argc, argv))      \
            return 1;                                                  \
        ::benchmark::RunSpecifiedBenchmarks();                         \
        ::benchmark::Shutdown();                                       \
        return 0;                                                      \
    }

#endif // MINIBENCH_BENCHMARK_H
