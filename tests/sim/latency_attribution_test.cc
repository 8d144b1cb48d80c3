/**
 * End-to-end tests for latency attribution through the simulation
 * driver: every delivered message must carry a complete, monotonic
 * milestone trail (violations == 0) on real workloads across
 * paradigms (tests/sim/observability_test.cc shows attaching the
 * collector does not perturb them); the aggregate latency profile must
 * be invariant under same-tick schedule perturbation; and full-detail
 * traces must carry balanced issue->commit flow event chains.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <tuple>
#include <vector>

#include "obs/latency.hh"
#include "obs/trace_event.hh"
#include "sim/driver.hh"
#include "sim/trace_cache.hh"
#include "workloads/workload.hh"
#include "../support/mini_json.hh"

using namespace fp;
using namespace fp::sim;
using fp::testing::parseJson;

namespace {

const trace::WorkloadTrace &
smallTrace(const std::string &name, std::uint32_t num_gpus = 4,
           double scale = 0.05)
{
    workloads::WorkloadParams params;
    params.num_gpus = num_gpus;
    params.scale = scale;
    params.seed = 42;
    return TraceCache::instance().get(name, params);
}

/** Order-independent summary of everything the collector aggregated. */
using LatencyDigest =
    std::tuple<std::uint64_t, std::uint64_t, std::uint64_t,
               std::vector<std::vector<std::uint64_t>>>;

LatencyDigest
digest(const obs::LatencyCollector &collector)
{
    std::vector<std::vector<std::uint64_t>> counts;
    for (const common::Histogram *hist :
         {&collector.residency(), &collector.serialization(),
          &collector.propagation(), &collector.ingressWait(),
          &collector.total()})
        counts.push_back(hist->counts());
    return {collector.messages(), collector.stores(),
            collector.violations(), std::move(counts)};
}

} // namespace

TEST(LatencyAttributionTest, MilestonesMonotonicAcrossWorkloads)
{
    for (const char *workload : {"pagerank", "sssp"}) {
        for (Paradigm paradigm :
             {Paradigm::finepack, Paradigm::bulk_dma}) {
            obs::LatencyCollector collector;
            SimConfig config;
            config.latency = &collector;
            RunResult result = SimulationDriver(config).run(
                smallTrace(workload), paradigm);

            SCOPED_TRACE(std::string(workload) + " / "
                         + std::to_string(static_cast<int>(paradigm)));
            // Milestone validation happens at commit; any missing or
            // reordered milestone shows up here, and checking builds
            // additionally hard-fail via FP_INVARIANT.
            EXPECT_EQ(collector.violations(), 0u);
            EXPECT_GT(collector.messages(), 0u);
            EXPECT_EQ(collector.messages(),
                      static_cast<std::uint64_t>(result.messages));
            if (paradigm == Paradigm::finepack) {
                // FinePack stores carry per-store issue stamps.
                EXPECT_GT(collector.stores(), 0u);
                EXPECT_GT(collector.residency().total(), 0u);
            }
            EXPECT_EQ(collector.serialization().total(),
                      collector.messages());
            EXPECT_EQ(collector.propagation().total(),
                      collector.messages());
            EXPECT_EQ(collector.ingressWait().total(),
                      collector.messages());
        }
    }
}

TEST(LatencyAttributionTest, DigestStableUnderScheduleShuffle)
{
    // Two GPUs: each downlink has a single source, so message arrival
    // order (and therefore the latency aggregate) is schedule
    // independent even under same-tick tie-break permutation.
    const auto &trace = smallTrace("pagerank", /*num_gpus=*/2);

    std::vector<LatencyDigest> digests;
    for (std::uint64_t seed : {0ull, 1ull, 12345ull}) {
        obs::LatencyCollector collector;
        SimConfig config;
        config.latency = &collector;
        config.tie_break_shuffle_seed = seed;
        SimulationDriver(config).run(trace, Paradigm::finepack);
        digests.push_back(digest(collector));
    }
    EXPECT_EQ(digests[0], digests[1]);
    EXPECT_EQ(digests[0], digests[2]);
}

TEST(LatencyAttributionTest, FullDetailTraceCarriesFlowChains)
{
    obs::TraceSink tracer(obs::TraceDetail::full);
    SimConfig config;
    config.tracer = &tracer;
    SimulationDriver(config).run(smallTrace("pagerank"),
                                 Paradigm::finepack);

    std::ostringstream os;
    tracer.write(os);
    auto events = parseJson(os.str()).at("traceEvents");

    // Every flow id must open with exactly one "s" and close with
    // exactly one "f" (steps in between are per-hop).
    std::map<double, int> starts, ends;
    std::size_t flow_events = 0;
    for (const auto &e : events.array) {
        const std::string &ph = e.at("ph").string;
        if (ph != "s" && ph != "t" && ph != "f")
            continue;
        ++flow_events;
        double id = e.at("id").number;
        if (ph == "s")
            ++starts[id];
        if (ph == "f") {
            ++ends[id];
            EXPECT_EQ(e.at("bp").string, "e");
        }
    }
    ASSERT_GT(flow_events, 0u);
    EXPECT_EQ(starts.size(), ends.size());
    for (const auto &[id, n] : starts)
        EXPECT_EQ(n, 1) << "flow " << id;
    for (const auto &[id, n] : ends)
        EXPECT_EQ(n, 1) << "flow " << id;
}

TEST(LatencyAttributionTest, NoFlowEventsBelowFullDetail)
{
    obs::TraceSink tracer(obs::TraceDetail::flush);
    SimConfig config;
    config.tracer = &tracer;
    SimulationDriver(config).run(smallTrace("jacobi"),
                                 Paradigm::finepack);
    std::ostringstream os;
    tracer.write(os);
    auto events = parseJson(os.str()).at("traceEvents");
    for (const auto &e : events.array) {
        const std::string &ph = e.at("ph").string;
        EXPECT_TRUE(ph != "s" && ph != "t" && ph != "f") << ph;
    }
}
