/**
 * Unit tests for the latency attribution collector (obs/latency.hh),
 * driven through the pipeline milestones: stage arithmetic, the
 * per-window / per-pair matching of buffered stores to packets,
 * milestone validation, and the size-class breakdown.
 */

#include <gtest/gtest.h>

#include "finepack/remote_write_queue.hh"
#include "interconnect/message.hh"
#include "obs/latency.hh"

using namespace fp;
using namespace fp::obs;

namespace {

using finepack::FlushReason;

icn::WireMessage
message(icn::MessageKind kind, std::uint64_t seq, GpuId src = 0,
        GpuId dst = 1)
{
    icn::WireMessage msg;
    msg.kind = kind;
    msg.src = src;
    msg.dst = dst;
    msg.seq = seq;
    return msg;
}

/** Buffer one store of @p size into window @p window at @p tick. */
void
buffer(LatencyCollector &c, std::uint32_t window, std::uint32_t size,
       Tick tick, GpuId src = 0, GpuId dst = 1)
{
    c.storeBuffered(src, dst, window, icn::Store(0x1000, size, src, dst),
                    false, 0, tick);
}

void
flush(LatencyCollector &c, std::uint32_t window, Tick tick, GpuId src = 0,
      GpuId dst = 1)
{
    finepack::FlushedPartition flushed;
    flushed.dst = dst;
    c.windowFlushed(src, window, flushed, FlushReason::release, tick);
}

/**
 * Inject at 1000, serialize on the uplink [1200, 1500) and the
 * downlink after it, arrive at 2000, commit at 2400.
 */
void
deliver(LatencyCollector &c, const icn::WireMessage &msg,
        Tick arrival = 2000, Tick commit = 2400)
{
    c.messageInjected(msg, 1000);
    c.linkTransmit(icn::fabricLinkId(msg.src, false), msg, 1000, 1200,
                   300);
    c.linkTransmit(icn::fabricLinkId(msg.dst, true), msg, 1600, 1700,
                   300);
    c.messageCommitted(msg, arrival, arrival, commit);
}

} // namespace

TEST(LatencyCollectorTest, RecordsMessageStages)
{
    LatencyCollector collector;
    collector.beginRun(2);

    buffer(collector, 0, 4, 800);
    buffer(collector, 0, 16, 900);
    flush(collector, 0, 1000);
    deliver(collector, message(icn::MessageKind::finepack_packet, 1));

    EXPECT_EQ(collector.messages(), 1u);
    EXPECT_EQ(collector.stores(), 2u);
    EXPECT_EQ(collector.violations(), 0u);

    // serialization = tx_end - inject, propagation = arrival - tx_end,
    // ingress_wait = commit - arrival; only the first link counts.
    EXPECT_EQ(collector.serialization().total(), 1u);
    EXPECT_DOUBLE_EQ(collector.serialization().min(), 500.0);
    EXPECT_DOUBLE_EQ(collector.propagation().min(), 500.0);
    EXPECT_DOUBLE_EQ(collector.ingressWait().min(), 400.0);

    // Per-store: residency = inject - issue, total = commit - issue.
    EXPECT_EQ(collector.residency().total(), 2u);
    EXPECT_DOUBLE_EQ(collector.residency().min(), 100.0);
    EXPECT_DOUBLE_EQ(collector.residency().max(), 200.0);
    EXPECT_EQ(collector.total().total(), 2u);
    EXPECT_DOUBLE_EQ(collector.total().min(), 1500.0);
    EXPECT_DOUBLE_EQ(collector.total().max(), 1600.0);
}

TEST(LatencyCollectorTest, PacketsClaimFlushedWindowsInFlushOrder)
{
    LatencyCollector collector;
    collector.beginRun(2);

    // Window 1 flushes before window 0; the first packet injected for
    // the pair carries window 1's stores, the second window 0's.
    buffer(collector, 0, 4, 100);
    buffer(collector, 1, 8, 200);
    buffer(collector, 1, 8, 300);
    flush(collector, 1, 1000);
    flush(collector, 0, 1000);

    deliver(collector, message(icn::MessageKind::finepack_packet, 1));
    EXPECT_EQ(collector.stores(), 2u);
    EXPECT_DOUBLE_EQ(collector.residency().max(), 800.0);

    deliver(collector, message(icn::MessageKind::finepack_packet, 2));
    EXPECT_EQ(collector.stores(), 3u);
    EXPECT_DOUBLE_EQ(collector.residency().max(), 900.0);
    EXPECT_EQ(collector.violations(), 0u);
}

TEST(LatencyCollectorTest, RawStoresIssueAtInject)
{
    LatencyCollector collector;
    collector.beginRun(2);

    icn::WireMessage raw = message(icn::MessageKind::raw_store, 1);
    raw.stores.emplace_back(0x1000, 4, 0, 1);
    raw.stores.emplace_back(0x2000, 64, 0, 1);
    deliver(collector, raw);

    EXPECT_EQ(collector.stores(), 2u);
    EXPECT_DOUBLE_EQ(collector.residency().max(), 0.0);
    EXPECT_DOUBLE_EQ(collector.total().min(), 1400.0);
}

TEST(LatencyCollectorTest, EmptyStampsContributeMessageStagesOnly)
{
    LatencyCollector collector;
    collector.beginRun(2);

    icn::WireMessage line = message(icn::MessageKind::write_combine_line, 1);
    line.stores.emplace_back(0x1000, 4, 0, 1);
    deliver(collector, line);

    EXPECT_EQ(collector.messages(), 1u);
    EXPECT_EQ(collector.stores(), 0u);
    EXPECT_EQ(collector.residency().total(), 0u);
    EXPECT_EQ(collector.serialization().total(), 1u);
}

TEST(LatencyCollectorTest, RejectsMissingAndNonMonotonicMilestones)
{
    LatencyCollector collector;
    collector.beginRun(2);
    const auto kind = icn::MessageKind::dma_chunk;

    // Never serialized on a link.
    icn::WireMessage untransmitted = message(kind, 1);
    collector.messageInjected(untransmitted, 1000);
    collector.messageCommitted(untransmitted, 2000, 2000, 2400);
    EXPECT_EQ(collector.messages(), 0u);
    EXPECT_EQ(collector.violations(), 1u);

    // Serialization started before the inject.
    icn::WireMessage backwards = message(kind, 2);
    collector.messageInjected(backwards, 1000);
    collector.linkTransmit(0, backwards, 900, 900, 50);
    collector.messageCommitted(backwards, 2000, 2000, 2400);
    EXPECT_EQ(collector.messages(), 0u);
    EXPECT_EQ(collector.violations(), 2u);

    // Commit before arrival.
    deliver(collector, message(kind, 3), 2000, 1999);
    EXPECT_EQ(collector.violations(), 3u);

    // A store issued after its inject drops the store, not the message.
    buffer(collector, 0, 4, 1001);
    flush(collector, 0, 1001);
    deliver(collector, message(icn::MessageKind::finepack_packet, 4));
    EXPECT_EQ(collector.messages(), 1u);
    EXPECT_EQ(collector.stores(), 0u);
    EXPECT_EQ(collector.violations(), 4u);
}

TEST(LatencyCollectorTest, BeginRunResets)
{
    LatencyCollector collector;
    collector.beginRun(4);
    buffer(collector, 0, 8, 800, 3, 2);
    flush(collector, 0, 1000, 3, 2);
    deliver(collector, message(icn::MessageKind::finepack_packet, 1, 3, 2));
    EXPECT_EQ(collector.messages(), 1u);

    // Stores still buffered at the reset do not leak into the next run.
    buffer(collector, 0, 8, 800);
    collector.beginRun(2);
    EXPECT_EQ(collector.messages(), 0u);
    EXPECT_EQ(collector.stores(), 0u);
    EXPECT_EQ(collector.total().total(), 0u);
    flush(collector, 0, 1000);
    deliver(collector, message(icn::MessageKind::finepack_packet, 1));
    EXPECT_EQ(collector.stores(), 0u);
}

TEST(LatencySizeClassTest, BoundariesAndNames)
{
    EXPECT_EQ(latencySizeClass(1), 0u);
    EXPECT_EQ(latencySizeClass(4), 0u);
    EXPECT_EQ(latencySizeClass(5), 1u);
    EXPECT_EQ(latencySizeClass(8), 1u);
    EXPECT_EQ(latencySizeClass(16), 2u);
    EXPECT_EQ(latencySizeClass(32), 3u);
    EXPECT_EQ(latencySizeClass(64), 4u);
    EXPECT_EQ(latencySizeClass(128), 5u);
    // Anything larger than a cache line folds into the top class.
    EXPECT_EQ(latencySizeClass(4096), 5u);

    EXPECT_STREQ(latencySizeClassName(0), "le4");
    EXPECT_STREQ(latencySizeClassName(5), "le128");
}
