/**
 * @file
 * The pipeline milestone interface: the one surface through which
 * instruments watch a remote store travel egress -> remote write queue
 * -> fabric -> ingress. Each milestone has exactly one call site:
 *
 *   milestone         fired by                  when
 *   storeBuffered     finepack::RwqPartition    a store merged into a window
 *   windowFlushed     finepack::RwqPartition    a window was captured
 *   messageInjected   icn::SwitchedFabric       a message entered its uplink
 *   linkTransmit      icn::Link                 a message began serializing
 *   messageCommitted  gpu::IngressPort          a message arrived and drained
 *
 * Each producer holds one PipelineObserver pointer, null when no
 * instrument is on, so the off path is one pointer test per milestone.
 * The driver attaches a fan-out to the subscribers SimConfig turned on
 * (docs/observability.md). Subscribers record, never schedule, so
 * attaching one cannot change the simulation. Forward declarations
 * only: this header sits below every producer and subscriber.
 */

#ifndef FP_ICN_PIPELINE_OBSERVER_HH
#define FP_ICN_PIPELINE_OBSERVER_HH

#include <cstdint>

#include "common/types.hh"

namespace fp::finepack {
struct FlushedPartition;
enum class FlushReason : std::uint8_t;
} // namespace fp::finepack

namespace fp::icn {

struct Store;
struct WireMessage;

/**
 * The link id a SwitchedFabric reports in linkTransmit(): GPU @p gpu's
 * uplink is 2 * gpu, its downlink 2 * gpu + 1.
 */
constexpr std::uint32_t
fabricLinkId(GpuId gpu, bool downlink)
{
    return 2 * gpu + (downlink ? 1 : 0);
}

/** Receives the pipeline milestones; every hook defaults to a no-op. */
class PipelineObserver
{
  public:
    virtual ~PipelineObserver() = default;

    /**
     * GPU @p src's write queue merged @p store (after line and
     * window-grid splitting) into window slot @p window of its @p dst
     * partition; on a @p queue_hit it overwrote @p overwritten_bytes
     * in place. A window flushed to admit the store reports first.
     */
    virtual void
    storeBuffered(GpuId /*src*/, GpuId /*dst*/, std::uint32_t /*window*/,
                  const Store & /*store*/, bool /*queue_hit*/,
                  std::uint32_t /*overwritten_bytes*/, Tick /*tick*/) {}

    /**
     * GPU @p src captured window slot @p window for packetization; it
     * injects one finepack_packet per flush, in flush order per dst.
     */
    virtual void
    windowFlushed(GpuId /*src*/, std::uint32_t /*window*/,
                  const finepack::FlushedPartition & /*flushed*/,
                  finepack::FlushReason /*reason*/, Tick /*tick*/) {}

    /** @p msg entered the fabric; msg.seq now identifies it. */
    virtual void
    messageInjected(const WireMessage & /*msg*/, Tick /*tick*/) {}

    /**
     * Link @p link (see fabricLinkId) began serializing @p msg at
     * @p start for @p tx_ticks; it was enqueued at @p enqueued.
     */
    virtual void
    linkTransmit(std::uint32_t /*link*/, const WireMessage & /*msg*/,
                 Tick /*enqueued*/, Tick /*start*/, Tick /*tx_ticks*/) {}

    /**
     * @p msg arrived at its destination's ingress at @p arrival; its
     * stores drain into memory from @p drain_start until @p commit.
     */
    virtual void
    messageCommitted(const WireMessage & /*msg*/, Tick /*arrival*/,
                     Tick /*drain_start*/, Tick /*commit*/) {}
};

} // namespace fp::icn

#endif // FP_ICN_PIPELINE_OBSERVER_HH
