/**
 * Unit tests for obs::FlowCollector, driven through its pipeline
 * milestones: window accounting, the width-doubling merge, contention
 * attribution (occupant charging and the self-charge fallback),
 * conservation arithmetic, and the deterministic sorted-key JSON
 * emission.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/json.hh"
#include "interconnect/message.hh"
#include "obs/flow.hh"
#include "../support/mini_json.hh"

using namespace fp;
using namespace fp::obs;
using fp::testing::parseJson;

namespace {

/** A message of @p wire bytes, @p payload of them TLP payload. */
icn::WireMessage
message(GpuId src, GpuId dst, std::uint64_t wire, std::uint64_t payload,
        std::uint64_t data, std::uint64_t stores = 0)
{
    icn::WireMessage msg;
    msg.src = src;
    msg.dst = dst;
    msg.payload_bytes = payload;
    msg.header_bytes = wire - payload;
    msg.data_bytes = data;
    msg.packed_store_count = stores;
    return msg;
}

void
transmit(FlowCollector &flows, std::uint32_t link, GpuId src, GpuId dst,
         Tick enqueued, Tick start, Tick tx_ticks, std::uint64_t wire_bytes)
{
    flows.linkTransmit(link, message(src, dst, wire_bytes, wire_bytes,
                                     wire_bytes),
                       enqueued, start, tx_ticks);
}

std::string
dump(const FlowCollector &flows)
{
    std::ostringstream os;
    common::JsonWriter json(os);
    flows.dumpJson(json);
    return os.str();
}

} // namespace

TEST(FlowCollectorTest, WindowAccountingSplitsAcrossBoundaries)
{
    FlowCollector flows(100); // 100-tick windows
    flows.beginRun(2);
    std::uint32_t up = flows.registerLink("up0", //
                                          FlowCollector::LinkKind::uplink, 0);

    // Serialization spans [50, 250): 50 ticks in window 0, 100 in
    // window 1, 50 in window 2. Start (tick 50) bins msgs/bytes in
    // window 0 only.
    transmit(flows, up, 0, 1, 50, 50, 200, 640);
    flows.endRun(300);

    const auto &link = flows.links()[up];
    ASSERT_EQ(link.windows.size(), 3u);
    EXPECT_EQ(link.windows[0].busy_ticks, 50u);
    EXPECT_EQ(link.windows[1].busy_ticks, 100u);
    EXPECT_EQ(link.windows[2].busy_ticks, 50u);
    EXPECT_EQ(link.windows[0].msgs, 1u);
    EXPECT_EQ(link.windows[0].wire_bytes, 640u);
    EXPECT_EQ(link.windows[1].msgs, 0u);
    EXPECT_EQ(link.busy_ticks, 200u);
    EXPECT_EQ(link.wait_ticks, 0u);
    EXPECT_DOUBLE_EQ(flows.linkUtilization(link), 200.0 / 300.0);
}

TEST(FlowCollectorTest, WindowDoublingConservesTotals)
{
    FlowCollector flows(10); // tiny windows force doubling
    flows.beginRun(2);
    std::uint32_t up = flows.registerLink("up0", //
                                          FlowCollector::LinkKind::uplink, 0);

    // A first message inside the initial budget...
    transmit(flows, up, 0, 1, 0, 0, 100, 256);
    Tick width_before = flows.windowTicks();
    EXPECT_EQ(width_before, 10u);
    // ... then one far beyond 1024 * 10 ticks, forcing merges.
    transmit(flows, up, 0, 1, 200000, 200000, 50, 64);
    flows.endRun(200050);

    EXPECT_GT(flows.windowTicks(), width_before);
    const auto &link = flows.links()[up];
    // The budget bound held and nothing was lost in the merges.
    EXPECT_LE(link.windows.size(), 1024u + 1);
    Tick busy = 0;
    std::uint64_t msgs = 0;
    std::uint64_t bytes = 0;
    for (const auto &w : link.windows) {
        busy += w.busy_ticks;
        msgs += w.msgs;
        bytes += w.wire_bytes;
    }
    EXPECT_EQ(busy, link.busy_ticks);
    EXPECT_EQ(msgs, link.msgs);
    EXPECT_EQ(bytes, link.wire_bytes);
}

TEST(FlowCollectorTest, WaitChargedToOccupantFlow)
{
    FlowCollector flows(1000);
    flows.beginRun(3);
    std::uint32_t down = flows.registerLink(
        "down2", FlowCollector::LinkKind::downlink, 2);

    // Flow g0->g2 occupies [0, 100); g1->g2 enqueued at 10 starts at
    // 100 after 90 ticks behind the occupant, the link's last
    // transmission.
    transmit(flows, down, 0, 2, 0, 0, 100, 512);
    transmit(flows, down, 1, 2, 10, 100, 80, 256);
    flows.endRun(200);

    EXPECT_EQ(flows.flow(0, 2).delay_caused_ticks, 90u);
    EXPECT_EQ(flows.flow(0, 2).delay_suffered_ticks, 0u);
    EXPECT_EQ(flows.flow(1, 2).delay_suffered_ticks, 90u);
    EXPECT_EQ(flows.flow(1, 2).delay_caused_ticks, 0u);
    EXPECT_EQ(flows.flow(1, 2).downlink_wait_ticks, 90u);
    EXPECT_EQ(flows.flow(1, 2).uplink_wait_ticks, 0u);
    EXPECT_EQ(flows.interferenceTicks(0, 1), 90u);
    EXPECT_EQ(flows.interferenceTicks(1, 0), 0u);
    EXPECT_EQ(flows.totalWaitTicks(), 90u);

    const auto &link = flows.links()[down];
    ASSERT_EQ(link.interference.size(), 1u);
    // Keyed (delayer flow index, delayed flow index): 0*3+2 by 1*3+2.
    auto it = link.interference.begin();
    EXPECT_EQ(it->first.first, 2u);
    EXPECT_EQ(it->first.second, 5u);
    EXPECT_EQ(it->second, 90u);
}

TEST(FlowCollectorTest, UnknownOccupantSelfChargesToReconcile)
{
    FlowCollector flows(1000);
    flows.beginRun(2);
    std::uint32_t up = flows.registerLink("up1", //
                                          FlowCollector::LinkKind::uplink, 1);

    // No earlier transmission on the link (collector attached
    // mid-run): the waiting flow charges itself so the matrix total
    // still equals wait_ticks.
    transmit(flows, up, 1, 0, 0, 40, 60, 128);
    flows.endRun(100);

    EXPECT_EQ(flows.flow(1, 0).delay_suffered_ticks, 40u);
    EXPECT_EQ(flows.flow(1, 0).delay_caused_ticks, 40u);
    EXPECT_EQ(flows.flow(1, 0).uplink_wait_ticks, 40u);
    EXPECT_EQ(flows.interferenceTicks(1, 1), 40u);
    EXPECT_EQ(flows.totalWaitTicks(), 40u);
}

TEST(FlowCollectorTest, ConservationLedgerAndPackingEfficiency)
{
    FlowCollector flows;
    flows.beginRun(2);
    // wire 100, payload 80, data 50, 10 stores.
    flows.messageInjected(message(0, 1, 100, 80, 50, 10), 0);
    flows.messageInjected(message(0, 1, 100, 80, 50, 10), 0);
    flows.messageCommitted(message(0, 1, 100, 100, 50), 0, 0, 0);
    flows.messageCommitted(message(0, 1, 100, 100, 50), 0, 0, 0);
    flows.endRun(1);

    const auto &flow = flows.flow(0, 1);
    EXPECT_EQ(flow.injected_msgs, 2u);
    EXPECT_EQ(flow.injected_wire_bytes, 200u);
    EXPECT_EQ(flow.injected_data_bytes, 100u);
    EXPECT_EQ(flow.packed_stores, 20u);
    EXPECT_EQ(flow.committed_msgs, flow.injected_msgs);
    EXPECT_EQ(flow.committed_wire_bytes, flow.injected_wire_bytes);
    EXPECT_EQ(flow.committed_data_bytes, flow.injected_data_bytes);
    EXPECT_DOUBLE_EQ(flows.packingEfficiency(), 0.5);
    EXPECT_EQ(flows.activeFlows(), 1u);
    EXPECT_FALSE(flows.flow(1, 0).active());
}

TEST(FlowCollectorTest, HottestLinksOrderByBusyThenName)
{
    FlowCollector flows(1000);
    flows.beginRun(2);
    std::uint32_t a = flows.registerLink("b_link", //
                                         FlowCollector::LinkKind::uplink, 0);
    std::uint32_t b = flows.registerLink("a_link", //
                                         FlowCollector::LinkKind::uplink, 1);
    std::uint32_t c = flows.registerLink("c_link", //
                                         FlowCollector::LinkKind::downlink, 0);

    transmit(flows, a, 0, 1, 0, 0, 50, 64);
    transmit(flows, b, 1, 0, 0, 0, 50, 64);
    transmit(flows, c, 0, 1, 0, 0, 200, 64);
    flows.endRun(300);

    auto order = flows.hottestLinks(2);
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], c);  // busiest first
    EXPECT_EQ(order[1], b);  // tie broken by name: a_link < b_link
}

TEST(FlowCollectorTest, JsonKeysAreSortedAndDeterministic)
{
    auto drive = [](FlowCollector &flows) {
        flows.beginRun(3);
        // Register links in a deliberately unsorted name order.
        std::uint32_t z = flows.registerLink(
            "up2", FlowCollector::LinkKind::uplink, 2);
        std::uint32_t a = flows.registerLink(
            "down0", FlowCollector::LinkKind::downlink, 0);
        std::uint32_t m = flows.registerLink(
            "up0", FlowCollector::LinkKind::uplink, 0);
        flows.messageInjected(message(2, 0, 100, 80, 60, 4), 0);
        flows.messageInjected(message(0, 1, 50, 40, 30, 2), 0);
        transmit(flows, z, 2, 0, 0, 0, 100, 100);
        transmit(flows, m, 0, 1, 0, 0, 50, 50);
        transmit(flows, a, 2, 0, 0, 20, 30, 100);
        flows.messageCommitted(message(2, 0, 100, 100, 60), 0, 0, 0);
        flows.messageCommitted(message(0, 1, 50, 50, 30), 0, 0, 0);
        flows.endRun(500);
    };

    FlowCollector first, second;
    drive(first);
    drive(second);
    std::string text = dump(first);
    // Byte-identical across identically-driven collectors.
    EXPECT_EQ(text, dump(second));

    // Links and flows emit in lexicographic key order regardless of
    // registration / traffic order.
    EXPECT_LT(text.find("\"down0\""), text.find("\"up0\""));
    EXPECT_LT(text.find("\"up0\""), text.find("\"up2\""));
    EXPECT_LT(text.find("\"g0->g1\""), text.find("\"g2->g0\""));

    auto doc = parseJson(text);
    EXPECT_EQ(doc.at("gpus").number, 3.0);
    EXPECT_EQ(doc.at("totals").at("wait_ticks").number, 20.0);
    EXPECT_EQ(doc.at("totals").at("active_flows").number, 2.0);
    // Inactive flows are omitted.
    EXPECT_EQ(doc.at("flows").object.size(), 2u);
    EXPECT_FALSE(doc.at("flows").has("g1->g0"));
    // 3x3 matrix in index order; self-charge landed on (2, 2).
    ASSERT_EQ(doc.at("matrix").at("delay_ticks").array.size(), 3u);
    EXPECT_EQ(doc.at("matrix").at("delay_ticks").array[2].array[2].number,
              20.0);

    // Per-window utilization stays within [0, 1].
    for (const auto &[name, link] : doc.at("links").object) {
        for (const auto &util : link.at("windows").at("utilization").array) {
            EXPECT_GE(util.number, 0.0) << name;
            EXPECT_LE(util.number, 1.0) << name;
        }
    }
}

TEST(FlowCollectorTest, BeginRunResetsEverything)
{
    FlowCollector flows(10);
    flows.beginRun(2);
    std::uint32_t up = flows.registerLink("up0", //
                                          FlowCollector::LinkKind::uplink, 0);
    flows.messageInjected(message(0, 1, 100, 80, 60, 4), 0);
    transmit(flows, up, 0, 1, 0, 0, 50000, 100);
    flows.endRun(50000);
    ASSERT_GT(flows.windowTicks(), 10u); // doubling happened

    flows.beginRun(4);
    EXPECT_EQ(flows.numGpus(), 4u);
    EXPECT_EQ(flows.windowTicks(), 10u); // width reset
    EXPECT_EQ(flows.links().size(), 0u);
    EXPECT_EQ(flows.activeFlows(), 0u);
    EXPECT_EQ(flows.totalBusyTicks(), 0u);
    EXPECT_EQ(flows.endTick(), 0u);
}
