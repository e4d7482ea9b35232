/**
 * @file
 * aerobench — the program side of the benchmark (perfbench/README.md).
 *
 *   aerobench gen <star|naive|rolling> <seed> <events> <out.bin>
 *       Generate one workload trace into a binary file and print its
 *       ground truth (expected status, where a violation may fire) as
 *       one JSON line.
 *   aerobench check <trace.bin> <spawn_ns> [--trace]
 *       Check the file the way `aerocheck <trace.bin>` does with its
 *       defaults and print one JSON line: status, violation position,
 *       events consumed, times measured from spawn_ns (the parent's
 *       CLOCK_MONOTONIC reading taken just before it started this
 *       process) and the process's own peak RSS. --trace repeats
 *       aerocheck's call sequence with spans around its calls into the
 *       trace and aerodrome layers (see check_traced).
 *   aerobench host
 *       Print the build and vector-clock SIMD labels as one JSON line.
 *
 * Untraced checks call run_checker_stream itself on a plain
 * AeroDromeOpt, so the measured path is the shipped one; only the event
 * source is wrapped, to timestamp its first block (one branch per
 * 4096-event block).
 */

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include "aerodrome/aerodrome_opt.hpp"
#include "analysis/runner.hpp"
#include "gen/bench_models.hpp"
#include "gen/patterns.hpp"
#include "gen/rolling_stream.hpp"
#include "support/assert.hpp"
#include "support/fault.hpp"
#include "support/rng.hpp"
#include "trace/binary_io.hpp"
#include "trace/stream.hpp"
#include "vc/clock_bank.hpp"

namespace {

using namespace aero;

/** CLOCK_MONOTONIC nanoseconds, the same clock Python's
 *  time.monotonic_ns() reads. */
uint64_t
now_ns()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Cheapest timestamp for per-event spans; converted to ns against
 *  now_ns() over the whole loop. */
inline uint64_t
ticks()
{
#if defined(__x86_64__)
    return __rdtsc();
#else
    return now_ns();
#endif
}

/** Decimal u64 argument; false on anything else. */
bool
parse_u64(const char* s, uint64_t& out)
{
    char* end = nullptr;
    errno = 0;
    out = std::strtoull(s, &end, 10);
    return s[0] >= '0' && s[0] <= '9' && *end == '\0' && errno == 0;
}

const char* const kOpKeys[kNumOps] = {"read",    "write", "acquire",
                                      "release", "fork",  "join",
                                      "begin",   "end"};

// ---------------------------------------------------------------- gen --

/** What the generator knows about its trace: the checker must report
 *  `expect`, and a violation must fire in [min_index, events). */
struct Truth {
    const char* expect = "ok";
    uint64_t min_index = 0;
    std::vector<ThreadId> violators; ///< empty: any thread
};

const gen::BenchModel&
model_row(const std::vector<gen::BenchModel>& rows, const char* name)
{
    for (const auto& m : rows)
        if (m.name == name)
            return m;
    fatal(std::string("no model row ") + name);
}

/** Table 1's avrora row with a seeded permutation of thread and lock
 *  ids; the star generator itself takes no seed. */
Trace
gen_star(uint64_t seed, uint64_t events, Truth& truth)
{
    gen::BenchModel m = model_row(gen::table1_models(), "avrora");
    m.events = events;
    const Trace base = gen::build_model_trace(m);

    Rng rng(seed);
    std::vector<uint32_t> tperm(base.num_threads());
    std::iota(tperm.begin(), tperm.end(), 0u);
    rng.shuffle(tperm);
    std::vector<uint32_t> lperm(base.num_locks());
    std::iota(lperm.begin(), lperm.end(), 0u);
    rng.shuffle(lperm);

    Trace out;
    out.reserve(base.size());
    for (Event e : base.events()) {
        e.tid = tperm[e.tid];
        if (op_targets_thread(e.op))
            e.target = tperm[e.target];
        else if (op_targets_lock(e.op))
            e.target = lperm[e.target];
        out.push(e);
    }
    // make_star closes with a 2-transaction ring on the hub (0) and
    // feeder (1) threads; the violation must fire inside it.
    Trace ring;
    gen::append_ring(ring, 2, 0, 0);
    truth.expect = "violation";
    truth.min_index = out.size() - ring.size();
    truth.violators = {tperm[0], tperm[1]};
    return out;
}

/** Index of the first access to a variable that more than one thread
 *  accesses: no conflict edge, so no violation, can exist before it. */
uint64_t
first_shared_access(const Trace& t)
{
    std::vector<ThreadId> owner(t.num_vars(), kNoThread);
    std::vector<uint8_t> shared(t.num_vars(), 0);
    for (const Event& e : t.events()) {
        if (!op_targets_var(e.op))
            continue;
        if (owner[e.target] == kNoThread)
            owner[e.target] = e.tid;
        else if (owner[e.target] != e.tid)
            shared[e.target] = 1;
    }
    for (size_t i = 0; i < t.size(); ++i)
        if (op_targets_var(t[i].op) && shared[t[i].target])
            return i;
    return t.size();
}

/** Table 2's batik row, seeded through its generator seed. */
Trace
gen_naive(uint64_t seed, uint64_t events, Truth& truth)
{
    gen::BenchModel m = model_row(gen::table2_models(), "batik");
    m.events = events;
    m.seed = seed;
    Trace t = gen::build_model_trace(m);
    truth.expect = "violation";
    truth.min_index = first_shared_access(t);
    return t;
}

/** The rolling server stream, drained once; serializable by
 *  construction. */
Trace
gen_rolling(uint64_t seed, uint64_t events, Truth& truth)
{
    gen::RollingStreamOptions opts;
    opts.seed = seed;
    opts.max_events = events;
    gen::RollingStreamSource src(opts);
    Trace t;
    t.reserve(events);
    std::vector<Event> buf(4096);
    while (size_t got = src.next_n(buf.data(), buf.size()))
        for (size_t i = 0; i < got; ++i)
            t.push(buf[i]);
    truth.expect = "ok";
    truth.min_index = t.size();
    return t;
}

int
cmd_gen(int argc, char** argv)
{
    uint64_t seed = 0, events = 0;
    if (argc != 6 || !parse_u64(argv[3], seed) ||
        !parse_u64(argv[4], events) || events == 0)
        return 2;
    const std::string workload = argv[2];
    Truth truth;
    Trace t;
    if (workload == "star")
        t = gen_star(seed, events, truth);
    else if (workload == "naive")
        t = gen_naive(seed, events, truth);
    else if (workload == "rolling")
        t = gen_rolling(seed, events, truth);
    else
        return 2;
    write_binary_file(argv[5], t);

    std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"events\": %zu, "
                "\"threads\": %u, \"vars\": %u, \"locks\": %u, "
                "\"expect\": \"%s\", \"min_index\": %llu, \"violators\": [",
                workload.c_str(), static_cast<unsigned long long>(seed),
                t.size(), t.num_threads(), t.num_vars(), t.num_locks(),
                truth.expect,
                static_cast<unsigned long long>(truth.min_index));
    for (size_t i = 0; i < truth.violators.size(); ++i)
        std::printf("%s%u", i ? ", " : "", truth.violators[i]);
    std::printf("]}\n");
    return 0;
}

// -------------------------------------------------------------- check --

/** Forwards every call to the opened source and records when the first
 *  non-empty block is handed out: the moment before the first event
 *  reaches the engine. */
class FirstBlockStamp final : public EventSource {
public:
    explicit FirstBlockStamp(EventSource& inner) : inner_(inner) {}

    bool
    next(Event& out) override
    {
        return inner_.next(out);
    }

    size_t
    next_n(Event* out, size_t n) override
    {
        const size_t got = inner_.next_n(out, n);
        if (first_block_ns == 0 && got != 0)
            first_block_ns = now_ns();
        return got;
    }

    const char*
    source_kind() const override
    {
        return inner_.source_kind();
    }

    bool
    dimensions(uint32_t& threads, uint32_t& vars,
               uint32_t& locks) const override
    {
        return inner_.dimensions(threads, vars, locks);
    }

    void
    set_resync(bool on) override
    {
        inner_.set_resync(on);
    }

    const std::vector<StreamError>&
    recovered_errors() const override
    {
        return inner_.recovered_errors();
    }

    uint64_t
    recovered_error_count() const override
    {
        return inner_.recovered_error_count();
    }

    uint64_t first_block_ns = 0;

private:
    EventSource& inner_;
};

/** This process's peak resident set (VmHWM) in KiB, 0 if unreadable.
 *  The kernel starts it afresh at exec, so unlike the parent's wait4
 *  ru_maxrss it holds no trace of the spawning process's memory. */
uint64_t
peak_rss_kb()
{
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0;
    char line[256];
    unsigned long long kb = 0;
    while (std::fgets(line, sizeof line, f))
        if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1)
            break;
    std::fclose(f);
    return kb;
}

void
print_verdict(const RunResult& r, const EventSource& source)
{
    const RunStatus status = r.status();
    std::printf("{\"status\": \"%s\", \"index\": %lld, \"thread\": %lld, "
                "\"events\": %llu, \"source\": \"%s\"",
                run_status_name(status),
                r.details ? static_cast<long long>(r.details->event_index)
                          : -1LL,
                r.details ? static_cast<long long>(r.details->thread) : -1LL,
                static_cast<unsigned long long>(r.events_processed),
                source.source_kind());
}

int
check_untraced(const char* path, uint64_t spawn_ns, uint64_t main_ns)
{
    std::unique_ptr<AtomicityChecker> checker =
        std::make_unique<AeroDromeOpt>(0, 0, 0);
    set_panic_handler(&throwing_panic_handler);
    FaultInjector::instance().arm_from_env();
    std::unique_ptr<std::istream> storage;
    auto opened = open_event_source(path, storage);
    opened->set_resync(false);
    FirstBlockStamp source(*opened);
    const RunResult r = run_checker_stream(*checker, source, RunBudget{});
    const uint64_t verdict_ns = now_ns();

    const uint64_t first =
        source.first_block_ns ? source.first_block_ns : verdict_ns;
    print_verdict(r, source);
    std::printf(", \"main_ns\": %llu, \"setup_ns\": %llu, "
                "\"check_ns\": %llu, \"hwm_kb\": %llu}\n",
                static_cast<unsigned long long>(main_ns - spawn_ns),
                static_cast<unsigned long long>(first - spawn_ns),
                static_cast<unsigned long long>(verdict_ns - spawn_ns),
                static_cast<unsigned long long>(peak_rss_kb()));
    return 0;
}

/** Median cost of one ticks() pair around nothing, in ticks. */
uint64_t
timer_cost_ticks()
{
    std::vector<uint64_t> d(1025);
    for (auto& v : d) {
        const uint64_t a = ticks();
        v = ticks() - a;
    }
    std::nth_element(d.begin(), d.begin() + d.size() / 2, d.end());
    return d[d.size() / 2];
}

/** One ingest block in kTimedBlockMask + 1 gets a span around every
 *  process() call; the others only their block and decode spans. A
 *  per-event span costs two timer reads, so timing every call would
 *  nearly double a cheap engine's time. */
constexpr uint32_t kTimedBlockMask = 7;

/**
 * run_checker_stream's loop, repeated call for call after aerocheck's
 * set-up (construct, open, dimensions() -> reserve()), with spans: one
 * per set-up call, one per block (its next_n and the processing of
 * what that returned), one per next_n (decode), and, in randomly
 * chosen timed blocks, one per process() call, bucketed by op. Inside a
 * timed block the run loop's self time is what the block's processing
 * took beyond its process() spans. Everything stays in memory until
 * the verdict.
 */
int
check_traced(const char* path, uint64_t spawn_ns, uint64_t main_ns)
{
    const uint64_t c0 = now_ns();
    std::unique_ptr<AtomicityChecker> checker =
        std::make_unique<AeroDromeOpt>(0, 0, 0);
    const uint64_t c1 = now_ns();
    set_panic_handler(&throwing_panic_handler);
    FaultInjector::instance().arm_from_env();

    const uint64_t o0 = now_ns();
    std::unique_ptr<std::istream> storage;
    auto source = open_event_source(path, storage);
    source->set_resync(false);
    const uint64_t o1 = now_ns();

    const uint64_t r0 = now_ns();
    uint32_t threads = 0, vars = 0, locks = 0;
    if (source->dimensions(threads, vars, locks) &&
        reserve_hint_sane(threads, vars, locks))
        checker->reserve(threads, vars, locks);
    const uint64_t r1 = now_ns();

    RunResult result;
    const RunBudget budget;
    const size_t block = resolve_ingest_block(0);
    uint64_t op_count[kNumOps] = {};
    uint64_t timed_ticks[kNumOps] = {};
    uint64_t timed_count[kNumOps] = {};
    uint64_t timed_block_ticks = 0;   // processing part of timed blocks
    uint64_t timed_process_ticks = 0; // their process() spans
    uint64_t decode_ticks = 0;
    std::vector<uint64_t> block_ticks; // untimed blocks only
    // xorshift32, seeded per process so each check times other blocks.
    uint32_t rng = static_cast<uint32_t>(ticks()) | 1u;

    const uint64_t loop_ns0 = now_ns();
    const uint64_t loop_t0 = ticks();
    PanicContextScope panic_scope;
    try {
        std::vector<Event> buf(block);
        uint64_t next_poll = 0;
        bool stop = false;
        size_t i = 0;
        while (!stop) {
            rng ^= rng << 13;
            rng ^= rng >> 17;
            rng ^= rng << 5;
            const bool timed = (rng & kTimedBlockMask) == 0;
            const uint64_t b0 = ticks();
            const size_t got = source->next_n(buf.data(), block);
            const uint64_t b1 = ticks();
            decode_ticks += b1 - b0;
            if (got == 0)
                break;
            uint64_t spans = 0;
            for (size_t j = 0; j < got; ++j, ++i) {
                if (i >= next_poll) {
                    // Unlimited budget: the poll reduces to the memory
                    // cap's fault probe, as in run_checker_stream.
                    next_poll = i + budget.check_interval;
                    FaultInjector& faults = FaultInjector::instance();
                    if (faults.armed_for(FaultSite::kAlloc) &&
                        faults.alloc_breach(checker->memory_bytes())) {
                        result.internal_error = "memory cap breached "
                                                "(injected)";
                        stop = true;
                        break;
                    }
                }
                panic_scope.set_index(i);
                ++result.events_processed;
                const size_t op = static_cast<size_t>(buf[j].op);
                ++op_count[op];
                bool fired;
                if (timed) {
                    const uint64_t p0 = ticks();
                    fired = checker->process(buf[j], i);
                    const uint64_t d = ticks() - p0;
                    timed_ticks[op] += d;
                    ++timed_count[op];
                    spans += d;
                } else {
                    fired = checker->process(buf[j], i);
                }
                if (fired) {
                    result.violation = true;
                    stop = true;
                    break;
                }
            }
            const uint64_t b2 = ticks();
            if (timed) {
                timed_block_ticks += b2 - b1;
                timed_process_ticks += spans;
            } else {
                block_ticks.push_back(b2 - b0);
            }
        }
    } catch (const StreamCorruption& e) {
        result.stream_error = e.error();
    } catch (const InternalError& e) {
        result.internal_error = e.what();
    }
    result.stream_errors_recovered = source->recovered_error_count();
    result.details = checker->violation();
    const uint64_t loop_t1 = ticks();
    const uint64_t verdict_ns = now_ns();

    // Everything below is reporting, outside the measured check.
    const double ns_per_tick =
        loop_t1 > loop_t0 ? static_cast<double>(verdict_ns - loop_ns0) /
                                static_cast<double>(loop_t1 - loop_t0)
                          : 1.0;
    auto ns = [ns_per_tick](uint64_t t) {
        return static_cast<double>(t) * ns_per_tick;
    };
    const uint64_t timer_ticks = timer_cost_ticks();

    print_verdict(result, *source);
    std::printf(", \"main_ns\": %llu, \"check_ns\": %llu, "
                "\"construct_ns\": %llu, \"open_ns\": %llu, "
                "\"reserve_ns\": %llu, \"loop_ns\": %llu, "
                "\"decode_ns\": %.0f, \"timer_ns\": %.2f",
                static_cast<unsigned long long>(main_ns - spawn_ns),
                static_cast<unsigned long long>(verdict_ns - spawn_ns),
                static_cast<unsigned long long>(c1 - c0),
                static_cast<unsigned long long>(o1 - o0),
                static_cast<unsigned long long>(r1 - r0),
                static_cast<unsigned long long>(verdict_ns - loop_ns0),
                ns(decode_ticks), ns(timer_ticks));
    std::printf(", \"ops\": {");
    for (size_t k = 0; k < kNumOps; ++k)
        std::printf("%s\"%s\": %llu", k ? ", " : "", kOpKeys[k],
                    static_cast<unsigned long long>(op_count[k]));
    std::printf("}, \"timed\": {");
    for (size_t k = 0; k < kNumOps; ++k)
        std::printf("%s\"%s\": %llu", k ? ", " : "", kOpKeys[k],
                    static_cast<unsigned long long>(timed_count[k]));
    std::printf("}, \"timed_ns\": {");
    for (size_t k = 0; k < kNumOps; ++k)
        std::printf("%s\"%s\": %.0f", k ? ", " : "", kOpKeys[k],
                    ns(timed_ticks[k]));
    std::printf("}, \"timed_block_ns\": %.0f, \"timed_process_ns\": %.0f",
                ns(timed_block_ticks), ns(timed_process_ticks));
    std::printf(", \"counters\": {");
    const StatList counters = checker->counters();
    for (size_t k = 0; k < counters.size(); ++k)
        std::printf("%s\"%s\": %llu", k ? ", " : "",
                    counters[k].first.c_str(),
                    static_cast<unsigned long long>(counters[k].second));
    std::printf("}, \"state_bytes\": %zu, \"hwm_kb\": %llu, \"blocks_ns\": [",
                checker->memory_bytes(),
                static_cast<unsigned long long>(peak_rss_kb()));
    for (size_t k = 0; k < block_ticks.size(); ++k)
        std::printf("%s%.0f", k ? ", " : "", ns(block_ticks[k]));
    std::printf("]}\n");
    return 0;
}

int
cmd_check(int argc, char** argv)
{
    const uint64_t main_ns = now_ns();
    uint64_t spawn_ns = 0;
    if (argc < 4 || argc > 5 || !parse_u64(argv[3], spawn_ns) ||
        spawn_ns > main_ns)
        return 2;
    const bool traced = argc == 5 && std::strcmp(argv[4], "--trace") == 0;
    if (argc == 5 && !traced)
        return 2;
    return traced ? check_traced(argv[2], spawn_ns, main_ns)
                  : check_untraced(argv[2], spawn_ns, main_ns);
}

// --------------------------------------------------------------- host --

const char*
simd_level()
{
#if defined(__AVX2__)
    return "avx2-compiled";
#elif defined(AERO_VC_X86_DISPATCH)
    return vck::detail::kHaveAvx2 ? "avx2-dispatched" : "sse2";
#else
    return "scalar";
#endif
}

int
cmd_host()
{
#if defined(__clang__)
    const char* compiler = "clang";
#elif defined(__GNUC__)
    const char* compiler = "gcc";
#else
    const char* compiler = "unknown";
#endif
    std::printf("{\"simd\": \"%s\", \"compiler\": \"%s %s\", "
                "\"build_type\": \"%s\"}\n",
                simd_level(), compiler, __VERSION__, AEROBENCH_BUILD_TYPE);
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    const std::string cmd = argc > 1 ? argv[1] : "";
    try {
        int rc = 2;
        if (cmd == "gen")
            rc = cmd_gen(argc, argv);
        else if (cmd == "check")
            rc = cmd_check(argc, argv);
        else if (cmd == "host")
            rc = cmd_host();
        if (rc == 2)
            std::fprintf(stderr,
                         "usage: %s gen <star|naive|rolling> <seed> "
                         "<events> <out.bin>\n"
                         "       %s check <trace.bin> <spawn_ns> [--trace]\n"
                         "       %s host\n",
                         argv[0], argv[0], argv[0]);
        return rc;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "aerobench: %s\n", e.what());
        return 1;
    }
}
