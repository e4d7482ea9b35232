/**
 * @file
 * hostref — the benchmark's host-speed yardstick (perfbench/README.md,
 * "Host speed").
 *
 *   hostref <spawn_ns>
 *       Run one fixed unit of work and print, as one JSON line, the
 *       nanoseconds from spawn_ns (the parent's CLOCK_MONOTONIC reading
 *       taken just before it started this process) to its end.
 *
 * The work is elementwise max/compare of random pairs of 192-wide u32
 * rows (a vector-clock join and leq over a 3 MiB table), then LEB128
 * decoding of 1 MiB of fixed bytes, three times: the kinds of work a
 * check does, in a fresh process, as a check is. It is a separate
 * program that links nothing from the repository, so no change to the
 * checker, its library or its build flags can move its time. run.py
 * runs it between checks and divides each check's time by it.
 */

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

namespace {

uint64_t
now_ns()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

uint64_t
reference_work()
{
    constexpr size_t kRows = 4096, kDim = 192;
    uint64_t x = 0x9e3779b97f4a7c15ull;
    auto rnd = [&x]() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    std::vector<uint32_t> table(kRows * kDim);
    for (auto& v : table)
        v = static_cast<uint32_t>(rnd() & 0xffff);
    std::vector<uint8_t> bytes(size_t{1} << 20);
    for (auto& b : bytes)
        b = static_cast<uint8_t>(rnd());

    uint64_t acc = 0;
    for (int it = 0; it < 10000; ++it) {
        uint32_t* a = &table[(rnd() % kRows) * kDim];
        const uint32_t* b = &table[(rnd() % kRows) * kDim];
        bool leq = true;
        for (size_t k = 0; k < kDim; ++k) {
            leq &= a[k] <= b[k];
            a[k] = std::max(a[k], b[k] + 1);
        }
        acc += leq;
    }
    for (int rep = 0; rep < 3; ++rep) {
        uint64_t v = 0;
        unsigned shift = 0;
        for (uint8_t c : bytes) {
            v |= static_cast<uint64_t>(c & 0x7f) << shift;
            shift += 7;
            if (!(c & 0x80) || shift > 56) {
                acc += v;
                v = 0;
                shift = 0;
            }
        }
    }
    return acc;
}

} // namespace

int
main(int argc, char** argv)
{
    char* end = nullptr;
    errno = 0;
    const uint64_t spawn_ns =
        argc == 2 ? std::strtoull(argv[1], &end, 10) : 0;
    if (argc != 2 || *end != '\0' || errno != 0 || spawn_ns == 0 ||
        spawn_ns > now_ns()) {
        std::fprintf(stderr, "usage: %s <spawn_ns>\n", argv[0]);
        return 2;
    }
    // Printing the result keeps the compiler from dropping the work.
    const uint64_t acc = reference_work();
    const uint64_t ref_ns = now_ns() - spawn_ns;
    std::printf("{\"ref_ns\": %llu, \"acc\": %llu}\n",
                static_cast<unsigned long long>(ref_ns),
                static_cast<unsigned long long>(acc));
    return 0;
}
