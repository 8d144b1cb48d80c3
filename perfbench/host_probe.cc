/**
 * @file
 * fp_hostprobe: measures how fast the host runs, while the benchmark
 * runs beside it.
 *
 *   fp_hostprobe LOG SECONDS
 *
 * On a shared host the same simulation runs 20-30% slower for minutes
 * at a time, and a fixed CPU-bound loop slows with it: neighbours take
 * the shared caches, memory and the package's clock budget. This program
 * repeats one fixed unit of work (integer hashing in registers, then
 * dependent loads across a working set larger than a core's L2) and
 * every 64 units appends "<steady-clock ns> <units done>" to LOG, for at
 * most SECONDS or until it is killed. run.py starts it next to the
 * benchmark processes, reads from LOG the probe's rate during each timed
 * window, and scales each window's time towards a fixed reference rate
 * (README.md). The probe uses only the standard library, so no change to
 * the simulator changes its work.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <utility>
#include <vector>

namespace {

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

constexpr std::uint32_t chase_slots = 1u << 23;  // 32 MiB of uint32_t
constexpr int hash_steps = 100000;
constexpr int chase_steps = 700;
constexpr std::uint64_t units_per_line = 64;

/** Keeps the compiler from dropping the work. */
volatile std::uint64_t sink;

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 3) {
        std::fprintf(stderr, "usage: fp_hostprobe LOG SECONDS\n");
        return 2;
    }
    std::FILE *log = std::fopen(argv[1], "w");
    const double seconds = std::atof(argv[2]);
    if (!log || !(seconds > 0.0)) {
        std::fprintf(stderr, "fp_hostprobe: bad arguments\n");
        return 2;
    }

    // One random cycle through every slot (Sattolo's shuffle), so each
    // load depends on the one before and none repeats for a long time.
    std::uint64_t state = 1;
    std::vector<std::uint32_t> next(chase_slots);
    std::iota(next.begin(), next.end(), 0u);
    for (std::uint32_t i = chase_slots - 1; i > 0; --i)
        std::swap(next[i], next[splitmix64(state) % i]);

    using Clock = std::chrono::steady_clock;
    auto now_ns = [] {
        return static_cast<long long>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now().time_since_epoch())
                .count());
    };
    const long long stop = now_ns() + static_cast<long long>(seconds * 1e9);
    std::uint64_t units = 0;
    std::uint64_t sum = 0;
    std::uint32_t at = 0;
    std::fprintf(log, "%lld 0\n", now_ns());
    std::fflush(log);
    for (;;) {
        for (int i = 0; i < hash_steps; ++i)
            sum += splitmix64(state);
        for (int i = 0; i < chase_steps; ++i)
            at = next[at];
        sink = sum + at;
        if (++units % units_per_line)
            continue;
        const long long t = now_ns();
        std::fprintf(log, "%lld %llu\n", t,
                     static_cast<unsigned long long>(units));
        std::fflush(log);
        if (t >= stop)
            return 0;
    }
}
