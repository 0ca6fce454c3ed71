#include "common/log.hpp"

#include <cstdarg>
#include <cstdio>
#include <mutex>

namespace diag
{

namespace
{

/** Serializes stderr writes so host-parallel workers (fault-campaign
 *  trials, sweep cells) emit whole lines, never interleaved bytes. */
std::mutex &
ioMutex()
{
    static std::mutex m;
    return m;
}

} // namespace

namespace detail
{

std::string
vformat(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    va_list ap2;
    va_copy(ap2, ap);
    const int len = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    std::string out;
    if (len > 0) {
        out.resize(static_cast<size_t>(len));
        std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
    }
    va_end(ap2);
    return out;
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    // Deliberately no unlock: the process dies holding the mutex, and
    // that is fine — nothing after abort() prints.
    ioMutex().lock();
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

void
fatalImpl(const std::string &msg)
{
    ioMutex().lock();
    std::fprintf(stderr, "fatal: %s\n", msg.c_str());
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    const std::lock_guard<std::mutex> lk(ioMutex());
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
informImpl(const std::string &msg)
{
    const std::lock_guard<std::mutex> lk(ioMutex());
    std::fprintf(stderr, "info: %s\n", msg.c_str());
}

} // namespace detail
} // namespace diag
