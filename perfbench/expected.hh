/**
 * @file
 * Recorded simulation results the benchmark's correctness gate checks.
 *
 * The model has not been validated against hardware, so the reference
 * is the repository's own recorded output: the RunResult of each
 * benchmark workload at seed 42 (EXPERIMENTS.md Figure 9 speedups, at
 * full byte precision), at the benchmark scale and at the self-test
 * scale. At a seed with no record, the first simulation of the run is
 * the reference and every later one must reproduce it exactly.
 */

#ifndef FP_PERFBENCH_EXPECTED_HH
#define FP_PERFBENCH_EXPECTED_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace fp::perfbench {

/** The simulated outcome one operation must reproduce. */
struct ExpectedResult
{
    Tick single_gpu_time = 0;
    Tick total_time = 0;
    std::uint64_t wire_bytes = 0;
    std::uint64_t payload_bytes = 0;
    std::uint64_t header_bytes = 0;
    std::uint64_t data_bytes = 0;
    std::uint64_t messages = 0;
    std::uint64_t finepack_packets = 0;
    std::uint64_t useful_bytes = 0;
    std::uint64_t protocol_bytes = 0;
    std::uint64_t wasted_bytes = 0;

    bool operator==(const ExpectedResult &) const = default;
};

/** The record for (workload, seed, scale), or nullptr if none. */
const ExpectedResult *findRecorded(const std::string &workload,
                                   std::uint64_t seed, double scale);

} // namespace fp::perfbench

#endif // FP_PERFBENCH_EXPECTED_HH
