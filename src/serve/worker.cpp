#include "serve/worker.hpp"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <sstream>

#if defined(__linux__) || defined(__unix__)
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#define DIAG_SERVE_HAS_FORK 1
#else
#define DIAG_SERVE_HAS_FORK 0
#endif

#include "common/log.hpp"
#include "harness/cli.hpp"
#include "harness/runner.hpp"
#include "serve/hash.hpp"

namespace diag::serve
{

namespace
{

/**
 * The uninjected in-process attempt body, shared by the pool-worker
 * path and the forked child. @p tok may be null (no deadline, no
 * cancellation).
 */
AttemptResult
runBody(const ValidatedRequest &v, const host::CancelToken *tok,
        u64 metrics_stride)
{
    harness::RunSpec rs;
    rs.threads = v.req.threads;
    rs.use_simt = v.req.use_simt;
    rs.tolerate_failures = true;
    rs.cancel = tok;
    // Metrics-only tracing: no event mask, so the ring buffer stays
    // empty and only the time series accumulates.
    trace::TraceConfig tc;
    if (metrics_stride > 0) {
        tc.event_mask = 0;
        tc.metrics_stride = metrics_stride;
        tc.buffer_events = 1;
        rs.trace = &tc;
    }
    const harness::EngineRun run = harness::runOnDiag(v.cfg, v.w, rs);

    AttemptResult r;
    r.cycles = run.stats.cycles;
    r.trace = run.trace;
    if (run.stats.halted) {
        if (!run.checked) {
            r.fail = FailKind::Sdc;
            r.reason = "run completed but failed its output check";
            return r;
        }
        r.payload = renderPayload(run.stats, run.checked);
        return r;
    }
    if (run.stats.hostStopped()) {
        r.fail = FailKind::Timeout;
        r.cancelled = tok != nullptr && tok->cancelled();
        r.reason = run.stats.stop_reason;
        return r;
    }
    // Anything else the model stopped for — trap, detected-fault
    // abort, in-sim cycle/instruction budget — is deterministic: the
    // same request replays to the same stop. Terminal.
    r.fail = FailKind::Trap;
    r.reason = run.stats.stop_reason.empty()
                   ? "run stopped without halting"
                   : run.stats.stop_reason;
    return r;
}

#if DIAG_SERVE_HAS_FORK

void
putU32(std::string &s, u32 v)
{
    for (int i = 0; i < 4; ++i)
        s.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

u32
getU32(const unsigned char *p)
{
    return static_cast<u32>(p[0]) | (static_cast<u32>(p[1]) << 8) |
           (static_cast<u32>(p[2]) << 16) |
           (static_cast<u32>(p[3]) << 24);
}

/** Child side: run, serialize, write one checksummed frame, _exit. */
[[noreturn]] void
childMain(int wfd, const AttemptSpec &spec)
{
    if (spec.inject_crash)
        abort(); // a real worker crash: parent sees WIFSIGNALED
    const AttemptResult r = runBody(*spec.v, nullptr, 0);
    if (spec.inject_stall) {
        // A real stall: the result exists but never reaches the
        // parent, which must SIGKILL us at the deadline.
        for (;;)
            pause();
    }
    std::string frame;
    frame.push_back(static_cast<char>(r.fail));
    frame.push_back(r.cancelled ? 1 : 0);
    putU32(frame, static_cast<u32>(r.reason.size()));
    putU32(frame, static_cast<u32>(r.payload.size()));
    putU32(frame, static_cast<u32>(r.cycles & 0xffffffffull));
    putU32(frame, static_cast<u32>(r.cycles >> 32));
    frame += r.reason;
    frame += r.payload;
    const u64 sum = fnv1a(frame);
    for (int i = 0; i < 8; ++i)
        frame.push_back(
            static_cast<char>((sum >> (8 * i)) & 0xff));
    size_t off = 0;
    while (off < frame.size()) {
        const ssize_t n =
            write(wfd, frame.data() + off, frame.size() - off);
        if (n <= 0)
            _exit(3); // parent gone; nothing sane left to do
        off += static_cast<size_t>(n);
    }
    _exit(0);
}

/** Read until EOF or the deadline; true on clean EOF in time. */
bool
readAllWithDeadline(int rfd, u64 budget_ms, std::string *out)
{
    struct pollfd pf;
    pf.fd = rfd;
    pf.events = POLLIN;
    // Coarse 50 ms ticks are plenty: the budget guards whole
    // simulations, not syscalls.
    const int tick_ms = 50;
    u64 waited = 0;
    char buf[4096];
    for (;;) {
        const int pr = poll(&pf, 1, tick_ms);
        if (pr < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (pr > 0) {
            const ssize_t n = read(rfd, buf, sizeof(buf));
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                return false;
            }
            if (n == 0)
                return true; // EOF: child closed its end
            out->append(buf, static_cast<size_t>(n));
            continue;
        }
        waited += tick_ms;
        if (budget_ms > 0 && waited >= budget_ms)
            return false;
    }
}

AttemptResult
runSubprocess(const AttemptSpec &spec)
{
    AttemptResult r;
    int fds[2];
    if (pipe(fds) != 0) {
        r.fail = FailKind::Saturated;
        r.reason = "pipe() failed";
        return r;
    }
    const pid_t pid = fork();
    if (pid < 0) {
        close(fds[0]);
        close(fds[1]);
        r.fail = FailKind::Saturated;
        r.reason = "fork() failed";
        return r;
    }
    if (pid == 0) {
        close(fds[0]);
        childMain(fds[1], spec); // never returns
    }
    close(fds[1]);

    // A stalled worker gets the request deadline plus slack before
    // the supervisor gives up on it; an unbounded request still gets
    // a cap so a stall can never wedge the daemon.
    const u64 kill_budget_ms =
        spec.deadline_ms > 0 ? spec.deadline_ms + 500 : 60000;
    std::string frame;
    const bool got_eof =
        readAllWithDeadline(fds[0], kill_budget_ms, &frame);
    close(fds[0]);

    if (!got_eof) {
        kill(pid, SIGKILL);
        int status = 0;
        waitpid(pid, &status, 0);
        r.fail = FailKind::WorkerStall;
        r.reason = detail::vformat(
            "worker made no progress for %llu ms; killed",
            static_cast<unsigned long long>(kill_budget_ms));
        return r;
    }

    int status = 0;
    waitpid(pid, &status, 0);
    if (WIFSIGNALED(status)) {
        r.fail = FailKind::WorkerCrash;
        r.reason = detail::vformat("worker killed by signal %d",
                                   WTERMSIG(status));
        return r;
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        r.fail = FailKind::WorkerCrash;
        r.reason = detail::vformat(
            "worker exited with status %d",
            WIFEXITED(status) ? WEXITSTATUS(status) : -1);
        return r;
    }

    // Deserialize and verify the frame. Anything short or mismatched
    // counts as a crash — the parent never trusts damaged bytes.
    const size_t kHeader = 1 + 1 + 4 + 4 + 8;
    if (frame.size() < kHeader + 8) {
        r.fail = FailKind::WorkerCrash;
        r.reason = "worker produced a truncated result frame";
        return r;
    }
    const auto *p =
        reinterpret_cast<const unsigned char *>(frame.data());
    const u32 rlen = getU32(p + 2);
    const u32 plen = getU32(p + 6);
    if (frame.size() != kHeader + rlen + plen + 8) {
        r.fail = FailKind::WorkerCrash;
        r.reason = "worker result frame has a bad length";
        return r;
    }
    u64 sum = 0;
    for (int i = 0; i < 8; ++i)
        sum |= static_cast<u64>(
                   p[frame.size() - 8 + static_cast<size_t>(i)])
               << (8 * i);
    if (fnv1a(frame.substr(0, frame.size() - 8)) != sum) {
        r.fail = FailKind::WorkerCrash;
        r.reason = "worker result frame failed its checksum";
        return r;
    }
    r.fail = static_cast<FailKind>(p[0]);
    r.cancelled = p[1] != 0;
    r.cycles = static_cast<u64>(getU32(p + 10)) |
               (static_cast<u64>(getU32(p + 14)) << 32);
    r.reason = frame.substr(kHeader, rlen);
    r.payload = frame.substr(kHeader + rlen, plen);
    return r;
}

#endif // DIAG_SERVE_HAS_FORK

} // namespace

ValidatedRequest
validateRequest(const SimRequest &req)
{
    ValidatedRequest v;
    v.req = req;
    if (!workloads::tryFindWorkload(req.workload, &v.w)) {
        v.error = detail::vformat("unknown workload '%s'",
                                  req.workload.c_str());
        return v;
    }
    if (!harness::tryConfigByName(req.config, &v.cfg)) {
        v.error = detail::vformat("unknown config '%s'",
                                  req.config.c_str());
        return v;
    }
    if (req.threads == 0) {
        v.error = "thread count must be at least 1";
        return v;
    }
    if (req.use_simt && v.w.asm_simt.empty()) {
        v.error = detail::vformat("workload '%s' has no simt variant",
                                  req.workload.c_str());
        return v;
    }
    v.ok = true;
    v.content_key = contentKey(v);
    return v;
}

u64
contentKey(const ValidatedRequest &v)
{
    u64 h = fnv1a(v.req.use_simt ? v.w.asm_simt : v.w.asm_serial);
    h = fnv1a(v.cfg.name, h);
    h = fnv1a64(v.req.threads, h);
    h = fnv1a64(v.req.use_simt ? 1 : 0, h);
    return h;
}

std::string
renderPayload(const sim::RunStats &stats, bool checked)
{
    std::ostringstream os;
    stats.counters.dumpJson(os);
    std::string counters = os.str();
    while (!counters.empty() && counters.back() == '\n')
        counters.pop_back();
    return detail::vformat(
               "{\"cycles\": %llu, \"instructions\": %llu, "
               "\"halted\": %s, \"checked\": %s, \"stats\": ",
               static_cast<unsigned long long>(stats.cycles),
               static_cast<unsigned long long>(stats.instructions),
               stats.halted ? "true" : "false",
               checked ? "true" : "false") +
           counters + "}";
}

AttemptResult
executeAttempt(const AttemptSpec &spec)
{
    panic_if(spec.v == nullptr || !spec.v->ok,
             "executeAttempt needs a validated request");
#if DIAG_SERVE_HAS_FORK
    if (spec.subprocess)
        return runSubprocess(spec);
#endif
    // In-process: injected crashes/stalls are simulated (the
    // classification and retry paths are identical; only the
    // blast-radius differs, which is the point of subprocess mode).
    AttemptResult r;
    if (spec.inject_crash) {
        r.fail = FailKind::WorkerCrash;
        r.reason = "injected worker crash";
        return r;
    }
    if (spec.inject_stall) {
        r.fail = FailKind::WorkerStall;
        r.reason = "injected worker stall";
        return r;
    }
    host::CancelToken local;
    const host::CancelToken *tok = spec.cancel;
    if (tok == nullptr && spec.deadline_ms > 0) {
        local = host::CancelToken::withTimeout(spec.deadline_ms);
        tok = &local;
    }
    return runBody(*spec.v, tok, spec.metrics_stride);
}

} // namespace diag::serve
