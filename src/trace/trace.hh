/**
 * @file
 * Workload traces: the interface between algorithm execution and the
 * timing simulation.
 *
 * A workload run produces one IterationWork per program iteration: for
 * every GPU, a compute descriptor (flops + local memory traffic), the
 * ordered stream of remote stores the kernel emits (post L1 coalescing),
 * and the address ranges a bulk-DMA implementation of the same program
 * would copy. Per-destination consumption ranges provide the oracle for
 * classifying delivered bytes as useful or wasted (paper Figure 10).
 */

#ifndef FP_TRACE_TRACE_HH
#define FP_TRACE_TRACE_HH

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hh"
#include "interconnect/store.hh"

namespace fp::trace {

/** A DMA copy a memcpy-paradigm implementation would perform. */
struct DmaCopy
{
    GpuId dst = invalid_gpu;
    icn::AddrRange range;
};

/** One GPU's work within one iteration. */
struct GpuIterationWork
{
    /** Arithmetic operations executed by the kernel. */
    double flops = 0.0;
    /** Local (HBM) memory traffic in bytes. */
    std::uint64_t local_bytes = 0;
    /** Remote stores in issue order (addresses are destination-local). */
    std::vector<icn::Store> remote_stores;
    /** What the bulk-DMA paradigm copies at the kernel boundary. */
    std::vector<DmaCopy> dma_copies;
    /**
     * Extra local memory traffic only the memcpy paradigm pays (halo
     * packing / unpacking kernels when the communicated data is strided
     * in memory). Charged by the bulk-DMA and infinite-bandwidth
     * paradigms, not by the store-based ones.
     */
    std::uint64_t dma_extra_local_bytes = 0;
};

/** One iteration across all GPUs. */
struct IterationWork
{
    std::vector<GpuIterationWork> per_gpu;
    /**
     * consumed[g]: destination-local address ranges GPU g actually reads
     * from its replicas before they are next overwritten.
     */
    std::vector<std::vector<icn::AddrRange>> consumed;

    std::uint32_t numGpus() const
    { return static_cast<std::uint32_t>(per_gpu.size()); }
};

/** A complete multi-iteration trace plus workload metadata. */
struct WorkloadTrace
{
    std::string workload;
    std::string comm_pattern;
    std::uint32_t num_gpus = 0;
    std::vector<IterationWork> iterations;
    /**
     * Reference single-GPU work per iteration (flops, local bytes);
     * used to compute the strong-scaling baseline.
     */
    std::vector<std::pair<double, std::uint64_t>> single_gpu_work;

    std::uint32_t numIterations() const
    { return static_cast<std::uint32_t>(iterations.size()); }

    /** Totals across all iterations/GPUs. */
    std::uint64_t totalRemoteStores() const;
    std::uint64_t totalRemoteStoreBytes() const;
};

/** Sorted, disjoint interval set over byte addresses. */
class IntervalSet
{
  public:
    /** Add [base, base+size). */
    void add(Addr base, std::uint64_t size);
    void add(const icn::AddrRange &range) { add(range.base, range.size); }

    /** Merge overlapping/touching intervals; idempotent. */
    void normalize();

    /** Total bytes covered (normalizes first). */
    std::uint64_t totalBytes();

    /** Bytes covered by both this and @p other. */
    std::uint64_t intersectBytes(IntervalSet &other);

    /** Number of disjoint intervals after normalization. */
    std::size_t intervalCount();

    bool contains(Addr addr);

    const std::vector<std::pair<Addr, Addr>> &intervals();

  private:
    std::vector<std::pair<Addr, Addr>> _spans; // [begin, end)
    bool _dirty = false;
};

/**
 * The information content of one iteration's updates to one GPU:
 * unique updated bytes and the consumed (useful) subset. Identical for
 * every transfer paradigm, which is what makes the Figure 10 byte
 * classification well-defined.
 */
struct UpdateSummary
{
    std::uint64_t unique_bytes = 0;
    std::uint64_t useful_bytes = 0;
};

/**
 * Byte coverage of one iteration's updates, counted in one linear pass
 * over its consumed ranges and stores (DESIGN.md §4). Coverage lives
 * in 128 B line granules keyed by (destination, line address) in a
 * flat open-addressed table, so memory grows with the lines touched,
 * never with the address span. A granule holds two 64-bit words of
 * consumed bytes and two of written bytes; a range or store crossing a
 * line boundary splits across granules. Stores whose destination is
 * at or above the GPU count are ignored. The table is cleared, not
 * freed, between iterations.
 */
class CoverageLedger
{
  public:
    /**
     * Summaries of @p iter for destinations [0, @p num_gpus); the
     * reference is valid until the next call.
     */
    const std::vector<UpdateSummary> &summarize(const IterationWork &iter,
                                                std::uint32_t num_gpus);

  private:
    /** One 128 B line of one destination; dst == invalid_gpu: empty. */
    struct Granule
    {
        Addr line = 0;
        GpuId dst = invalid_gpu;
        std::array<std::uint64_t, 2> consumed{};
        std::array<std::uint64_t, 2> written{};
    };
    using Mask = std::array<std::uint64_t, 2> Granule::*;

    /**
     * OR bytes [base, base + size) of @p dst into the @p mask of each
     * granule they touch, creating missing granules.
     */
    void cover(GpuId dst, Addr base, std::uint64_t size, Mask mask);
    /**
     * The slot holding (@p dst, @p line), or the empty slot that ends
     * its probe.
     */
    std::size_t find(GpuId dst, Addr line) const;
    /** Double the table and re-insert every granule. */
    void grow();

    /** Open-addressed granules, a power of two long, at most half full. */
    std::vector<Granule> _table = std::vector<Granule>(1024);
    std::size_t _used = 0;
    /** The slot cover() last touched (consecutive stores share lines). */
    std::size_t _last = 0;
    std::vector<UpdateSummary> _summaries;
};

/** Unique and useful bytes summed over all iterations and destinations. */
UpdateSummary summarizeTrace(const WorkloadTrace &trace);

/** Binary trace serialization (stores only; data payloads dropped). */
void writeTrace(const WorkloadTrace &trace, std::ostream &os);
WorkloadTrace readTrace(std::istream &is);

} // namespace fp::trace

#endif // FP_TRACE_TRACE_HH
