/**
 * @file
 * Message-lifecycle latency attribution.
 *
 * The LatencyCollector rebuilds every remote store's trail from the
 * pipeline milestones (interconnect/pipeline_observer.hh): issue,
 * fabric injection (for FinePack traffic the window flush, tagged with
 * its FlushReason), first-link serialization, and ingress arrival +
 * commit. The driver subscribes it when SimConfig::latency is set.
 *
 * Matching: storeBuffered appends the store's issue tick to a list
 * per (src, dst, window); windowFlushed moves that list onto a FIFO
 * per (src, dst), which the pair's next finepack_packet pops (the
 * matching check::ProtocolOracle relies on). Raw stores and atomics
 * issue at their inject tick; write-combine lines and DMA chunks carry
 * no per-store trail. Trails are keyed by WireMessage::seq until the
 * message commits.
 *
 * Stage definitions (docs/latency.md):
 *   residency      inject   - issue    per store; RWQ coalescing wait
 *   serialization  tx_end   - inject   source queueing + wire TX
 *   propagation    arrival  - tx_end   switch hop + downlink + flight
 *   ingress_wait   commit   - arrival  ingress HBM drain queueing
 *   total          commit   - issue    per store, end to end
 */

#ifndef FP_OBS_LATENCY_HH
#define FP_OBS_LATENCY_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stats.hh"
#include "common/sync.h"
#include "common/types.hh"
#include "interconnect/pipeline_observer.hh"

namespace fp::obs {

/**
 * Aggregates per-message / per-store latency stages into StatGroup
 * histograms: a system-wide "latency" group (stage histograms plus
 * residency-by-flush-reason and total-by-size-class breakdowns) and
 * one "latency.dst<g>" group per destination GPU. All values are in
 * ticks (picoseconds); buckets are powers of two from 4 ns to ~68 ms.
 *
 * Thread safety: beginRun() and the milestone hooks serialize on an
 * internal fp::Mutex, so a collector may be fed from concurrent
 * producers (future parallel DES shards). The histogram accessors
 * return references without locking: read them only once the run has
 * quiesced (no hook in flight), which is when the driver and the
 * tests consult them.
 */
class LatencyCollector : public icn::PipelineObserver
{
  public:
    LatencyCollector();

    LatencyCollector(const LatencyCollector &) = delete;
    LatencyCollector &operator=(const LatencyCollector &) = delete;

    /** Reset and (re)build the per-destination groups for a run. */
    void beginRun(std::uint32_t num_gpus) FP_EXCLUDES(_mu);

    // ---- Pipeline milestones (interconnect/pipeline_observer.hh) ------
    void storeBuffered(GpuId src, GpuId dst, std::uint32_t window,
                       const icn::Store &store, bool queue_hit,
                       std::uint32_t overwritten_bytes,
                       Tick tick) FP_EXCLUDES(_mu) override;
    void windowFlushed(GpuId src, std::uint32_t window,
                       const finepack::FlushedPartition &flushed,
                       finepack::FlushReason reason,
                       Tick tick) FP_EXCLUDES(_mu) override;
    void messageInjected(const icn::WireMessage &msg,
                         Tick tick) FP_EXCLUDES(_mu) override;
    void linkTransmit(std::uint32_t link, const icn::WireMessage &msg,
                      Tick enqueued, Tick start,
                      Tick tx_ticks) FP_EXCLUDES(_mu) override;
    /** Samples every stage of the message's trail. */
    void messageCommitted(const icn::WireMessage &msg, Tick arrival,
                          Tick drain_start,
                          Tick commit) FP_EXCLUDES(_mu) override;

    std::uint64_t messages() const FP_EXCLUDES(_mu);
    std::uint64_t stores() const FP_EXCLUDES(_mu);
    /** Messages dropped for missing / non-monotonic milestones. */
    std::uint64_t violations() const FP_EXCLUDES(_mu);

    // Stage histograms: quiescent-read only (see class comment).
    const common::Histogram &residency() const { return _residency; }
    const common::Histogram &serialization() const { return _serialization; }
    const common::Histogram &propagation() const { return _propagation; }
    const common::Histogram &ingressWait() const { return _ingress_wait; }
    const common::Histogram &total() const { return _total; }

  private:
    /** One store's issue tick and size. */
    struct Issue
    {
        Tick tick = 0;
        std::uint32_t size = 0;
    };

    /** A flushed window's or injected message's milestones. */
    struct Trail
    {
        Tick created = 0;
        Tick tx_start = max_tick;
        Tick tx_end = max_tick;
        std::optional<finepack::FlushReason> reason;
        std::vector<Issue> stores;
    };

    /** Stage histograms for one destination GPU. */
    struct DstStats
    {
        std::unique_ptr<common::StatGroup> group;
        common::Histogram residency;
        common::Histogram serialization;
        common::Histogram propagation;
        common::Histogram ingress_wait;
        common::Histogram total;
    };

    void initHistogram(common::Histogram &hist);
    void rebuildLocked(std::uint32_t num_gpus) FP_REQUIRES(_mu);
    std::size_t pairIndex(GpuId src, GpuId dst) const FP_REQUIRES(_mu);

    mutable fp::Mutex _mu;
    std::unique_ptr<common::StatGroup> _group;
    common::Scalar _messages FP_GUARDED_BY(_mu);
    common::Scalar _stores FP_GUARDED_BY(_mu);
    common::Scalar _violations FP_GUARDED_BY(_mu);
    // Histograms and per-destination groups are mutated only under
    // _mu (record/beginRun); the unlocked accessors above require the
    // run to have quiesced, so they stay unannotated by design.
    common::Histogram _residency;
    common::Histogram _serialization;
    common::Histogram _propagation;
    common::Histogram _ingress_wait;
    common::Histogram _total;
    /** Residency by FlushReason, indexed by the enum's value. */
    std::vector<common::Histogram> _residency_by_reason;
    /** Store end-to-end latency by size class (<=4 B .. <=128 B). */
    std::vector<common::Histogram> _total_by_size;
    std::vector<DstStats> _dst FP_GUARDED_BY(_mu);
    std::vector<double> _edges;

    std::uint32_t _num_gpus FP_GUARDED_BY(_mu) = 0;
    /** Buffered stores per (src, dst) pair, then per window slot. */
    std::vector<std::vector<std::vector<Issue>>> _buffered
        FP_GUARDED_BY(_mu);
    /** Flushed windows awaiting their packet, per (src, dst) pair. */
    std::vector<std::deque<Trail>> _flushed FP_GUARDED_BY(_mu);
    /** Injected, uncommitted messages by WireMessage::seq. */
    std::unordered_map<std::uint64_t, Trail> _in_flight FP_GUARDED_BY(_mu);
};

/** Size-class index for a store of @p size bytes: 0 => <=4 B ... */
std::size_t latencySizeClass(std::uint32_t size);

/** Number of store size classes. */
inline constexpr std::size_t latency_size_class_count = 6;

/** Label for size class @p i, e.g. "le8". */
const char *latencySizeClassName(std::size_t i);

} // namespace fp::obs

#endif // FP_OBS_LATENCY_HH
