/**
 * @file
 * Exact heap-allocation count for the benchmark binary.
 *
 * alloc_counter.cc replaces the global operator new family, so every
 * allocation the simulator libraries make through new, std::vector,
 * std::function, std::make_shared and friends is counted, not only the
 * two hand-placed common::AllocCounters seams. The benchmark is single
 * threaded and reads the count around the calls it attributes to a
 * layer; the difference of two reads is that layer's allocation count.
 */

#ifndef FP_PERFBENCH_ALLOC_COUNTER_HH
#define FP_PERFBENCH_ALLOC_COUNTER_HH

#include <cstdint>

namespace fp::perfbench {

/** Allocations made through operator new since process start. */
std::uint64_t allocationCount();

} // namespace fp::perfbench

#endif // FP_PERFBENCH_ALLOC_COUNTER_HH
