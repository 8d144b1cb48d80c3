/**
 * @file
 * Process-wide heap-allocation count.
 *
 * common/counted_new.cc replaces the global operator new family and
 * bumps one relaxed atomic per allocation, so every allocation the
 * simulator makes through new, std::vector, std::function,
 * std::make_shared and friends is counted. That TU is linked into the
 * executables of the root build (fptrace, tests, benches, examples),
 * never into the fp_sim libraries: an executable that brings its own
 * operator new keeps it, and heapAllocations() then stays 0.
 *
 * The count is process-wide: under a parallel sweep every shard folds
 * into the same total, so a delta attributes allocations to one run
 * only while that run is the only thing allocating.
 */

#ifndef FP_COMMON_HEAP_ALLOCATIONS_HH
#define FP_COMMON_HEAP_ALLOCATIONS_HH

#include <atomic>
#include <cstdint>

namespace fp::common {

/** Bumped by the replacement operator new (common/counted_new.cc). */
inline std::atomic<std::uint64_t> heap_allocation_count{0};

/** Heap allocations through operator new since process start. */
inline std::uint64_t
heapAllocations()
{
    return heap_allocation_count.load(std::memory_order_relaxed);
}

} // namespace fp::common

#endif // FP_COMMON_HEAP_ALLOCATIONS_HH
