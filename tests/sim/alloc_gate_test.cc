/**
 * @file
 * Runtime heap-allocation gate. The test binary links the counting
 * operator new (common/counted_new.cc), so common::heapAllocations()
 * sees every allocation a run makes: component setup, queue-owned
 * one-shot events, wire messages, std::function captures and
 * container growth alike. Each case replays pagerank or sssp (scale
 * 0.05, seed 42, 4 GPUs) under one event-driven paradigm and asserts
 * the run's allocations stay at or under a recorded ceiling; the
 * allocations per remote store are printed beside it. A change that
 * lowers a count lowers its ceiling too, so the gate only ever
 * tightens.
 *
 * The same file checks that the count is reproducible (two identical
 * runs in one process allocate the same) and that the flight recorder
 * allocates nothing per record once its ring is built.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>

#include "check/invariant.hh"
#include "common/heap_allocations.hh"
#include "obs/flight_recorder.hh"
#include "sim/driver.hh"
#include "sim/trace_cache.hh"
#include "workloads/workload.hh"

using namespace fp;
using namespace fp::sim;

namespace {

const trace::WorkloadTrace &
smallTrace(const std::string &name)
{
    workloads::WorkloadParams params;
    params.num_gpus = 4;
    params.scale = 0.05;
    params.seed = 42;
    return TraceCache::instance().get(name, params);
}

/** Heap allocations made by one SimulationDriver run. */
std::uint64_t
heapOfRun(const trace::WorkloadTrace &trace, Paradigm paradigm,
          const SimConfig &config = {})
{
    std::uint64_t before = common::heapAllocations();
    SimulationDriver(config).run(trace, paradigm);
    return common::heapAllocations() - before;
}

struct GateCase
{
    const char *workload;
    Paradigm paradigm;
    /** Most heap allocations one run may make. */
    std::uint64_t ceiling;
};

void
PrintTo(const GateCase &gate, std::ostream *os)
{
    *os << gate.workload << " / " << toString(gate.paradigm);
}

class AllocGateTest : public ::testing::TestWithParam<GateCase>
{};

} // namespace

TEST_P(AllocGateTest, RunStaysUnderRecordedCeiling)
{
    const GateCase &gate = GetParam();
    const trace::WorkloadTrace &trace = smallTrace(gate.workload);
    std::uint64_t allocs = heapOfRun(trace, gate.paradigm);
    std::uint64_t stores = trace.totalRemoteStores();
    ASSERT_GT(allocs, 0u) << "the counting operator new is not linked";
    std::printf("%s / %s: %llu allocations, %.3f allocs/store "
                "(ceiling %llu)\n",
                gate.workload, toString(gate.paradigm),
                static_cast<unsigned long long>(allocs),
                static_cast<double>(allocs) / static_cast<double>(stores),
                static_cast<unsigned long long>(gate.ceiling));
    EXPECT_LE(allocs, gate.ceiling);
}

// Ceilings: the first run in a process with FP_CHECK on, which also
// fills the invariant registry's name table (8 allocations, 26 under
// finepack); with FP_CHECK off a run makes that many fewer.
INSTANTIATE_TEST_SUITE_P(
    PagerankAndSssp, AllocGateTest,
    ::testing::Values(
        GateCase{"pagerank", Paradigm::p2p_stores, 15298},
        GateCase{"pagerank", Paradigm::finepack, 9891},
        GateCase{"pagerank", Paradigm::write_combine, 406487},
        GateCase{"pagerank", Paradigm::gps, 407973},
        GateCase{"pagerank", Paradigm::bulk_dma, 732},
        GateCase{"sssp", Paradigm::p2p_stores, 35610},
        GateCase{"sssp", Paradigm::finepack, 20874},
        GateCase{"sssp", Paradigm::write_combine, 923018},
        GateCase{"sssp", Paradigm::gps, 901586},
        GateCase{"sssp", Paradigm::bulk_dma, 1256}),
    [](const ::testing::TestParamInfo<GateCase> &info) {
        std::string name = std::string(info.param.workload) + "_" +
                           toString(info.param.paradigm);
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

TEST(AllocGate, IdenticalRunsAllocateTheSame)
{
    const trace::WorkloadTrace &trace = smallTrace("pagerank");
    std::uint64_t first = heapOfRun(trace, Paradigm::finepack);
    std::uint64_t second = heapOfRun(trace, Paradigm::finepack);
    std::uint64_t third = heapOfRun(trace, Paradigm::finepack);
    EXPECT_EQ(second, third);
    // With FP_CHECK on, the first run also enters each invariant name
    // into the process-wide InvariantRegistry; nothing else may carry
    // over from one run to the next.
    if (!check::invariants_enabled) {
        EXPECT_EQ(first, second);
    } else {
        EXPECT_GE(first, second);
    }
}

TEST(AllocGate, FlightRecorderAllocatesNothingPerRecord)
{
    const trace::WorkloadTrace &trace = smallTrace("pagerank");
    // The first run fills the process-lifetime tables (see above).
    heapOfRun(trace, Paradigm::finepack);
    std::uint64_t plain = heapOfRun(trace, Paradigm::finepack);

    // Build the ring before the first count is taken.
    obs::FlightRecorder recorder;
    SimConfig config;
    config.recorder = &recorder;
    std::uint64_t recorded = heapOfRun(trace, Paradigm::finepack, config);

    ASSERT_GT(recorder.recordsWritten(), recorder.capacity())
        << "the ring never wrapped";
    // Attaching any observer grows two empty lists by one entry each:
    // the queue's observer list and the driver's pipeline fan-out.
    // Everything else the recorder does per event, flush and inject
    // must allocate nothing.
    constexpr std::uint64_t observer_lists = 2;
    EXPECT_EQ(recorded, plain + observer_lists);
}
