/**
 * End-to-end tests for the observability layer wired through the
 * simulation driver. The InstrumentNeutrality gate attaches each
 * instrument alone and all together to a checked finepack run: every
 * simulated output must stay bit-identical and every instrument is
 * reusable across runs. The ProfilerDigest and FabricDigest cases run
 * the same gate on further workloads and check that the host and
 * fabric sections appear only on request. The other cases check the
 * trace, time series and stat groups of a traced run, the live
 * watchdog and the partial-run flag.
 */

#include <gtest/gtest.h>

#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <tuple>

#include "obs/flight_recorder.hh"
#include "obs/flow.hh"
#include "obs/health.hh"
#include "obs/latency.hh"
#include "obs/metrics.hh"
#include "obs/profiler.hh"
#include "obs/sampler.hh"
#include "obs/trace_event.hh"
#include "sim/driver.hh"
#include "sim/trace_cache.hh"
#include "workloads/workload.hh"
#include "../support/mini_json.hh"

using namespace fp;
using namespace fp::sim;
using fp::testing::JsonValue;
using fp::testing::parseJson;

namespace {

const trace::WorkloadTrace &
smallTrace(const std::string &name, double scale = 0.05)
{
    workloads::WorkloadParams params;
    params.num_gpus = 4;
    params.scale = scale;
    params.seed = 42;
    return TraceCache::instance().get(name, params);
}

struct Instruments
{
    obs::TraceSink tracer;
    obs::PeriodicSampler sampler{10 * ticks_per_us};
    obs::MetricsCapture metrics;

    explicit Instruments(
        obs::TraceDetail detail = obs::TraceDetail::full)
        : tracer(detail)
    {}

    SimConfig
    config() const
    {
        SimConfig c;
        c.tracer = const_cast<obs::TraceSink *>(&tracer);
        c.sampler = const_cast<obs::PeriodicSampler *>(&sampler);
        c.metrics = const_cast<obs::MetricsCapture *>(&metrics);
        return c;
    }
};

/** Instruments a run can carry, as bits of a subscriber mask. */
enum Instrument : unsigned {
    profiler = 1u << 0,
    flows = 1u << 1,
    recorder = 1u << 2,
    latency = 1u << 3,
    tracer = 1u << 4,
};

/** Every instrument the neutrality gate can attach. */
struct Observers
{
    obs::Profiler profiler;
    obs::FlowCollector flows;
    obs::FlightRecorder recorder; // default 256-slot ring
    /** Built on demand: a live collector adds stats groups. */
    std::optional<obs::LatencyCollector> latency;
    obs::TraceSink tracer{obs::TraceDetail::full};

    /** Point @p config at the instruments selected by @p mask. */
    void
    attach(SimConfig &config, unsigned mask)
    {
        if (mask & Instrument::profiler)
            config.profiler = &profiler;
        if (mask & Instrument::flows)
            config.flows = &flows;
        if (mask & Instrument::recorder)
            config.recorder = &recorder;
        if (mask & Instrument::latency)
            config.latency = &latency.emplace();
        if (mask & Instrument::tracer)
            config.tracer = &tracer;
    }
};

/** One checked finepack run with a sampler and stats capture. */
struct CheckedRun
{
    obs::PeriodicSampler sampler{10 * ticks_per_us};
    obs::MetricsCapture metrics;
    RunResult result;

    CheckedRun(const trace::WorkloadTrace &trace, Observers *inst = nullptr,
               unsigned mask = 0)
    {
        SimConfig config;
        config.check = true;
        config.sampler = &sampler;
        config.metrics = &metrics;
        if (inst)
            inst->attach(config, mask);
        result = SimulationDriver(config).run(trace, Paradigm::finepack);
    }

    /** The stats document; optional sections only when passed. */
    std::string
    document(const obs::Profiler *host = nullptr,
             const obs::FlowCollector *fabric = nullptr,
             bool partial = false) const
    {
        std::ostringstream os;
        metrics.writeDocument(os, &sampler, host, fabric, partial);
        return os.str();
    }
};

/** Every simulated RunResult field, for whole-result comparison. */
auto
fields(const RunResult &r)
{
    return std::tuple(r.oracle_digest, r.oracle_transactions,
                      r.oracle_stores, r.oracle_bytes, r.total_time,
                      r.wire_bytes, r.payload_bytes, r.header_bytes,
                      r.data_bytes, r.messages, r.useful_bytes,
                      r.protocol_bytes, r.wasted_bytes, r.finepack_packets,
                      r.events_processed, r.interrupted);
}

struct Subscribers
{
    const char *name;
    unsigned mask;
};

void
PrintTo(const Subscribers &subscribers, std::ostream *os)
{
    *os << subscribers.name;
}

/** The uninstrumented references for one trace. */
struct Reference
{
    /** Checked, with sampler and stats capture. */
    CheckedRun plain;
    /** Checked, without sampler or stats capture. */
    RunResult bare;

    explicit Reference(const trace::WorkloadTrace &trace) : plain(trace)
    {
        SimConfig config;
        config.check = true;
        bare = SimulationDriver(config).run(trace, Paradigm::finepack);
    }
};

/**
 * The neutrality gate: a checked finepack run of @p trace carrying the
 * instruments in @p mask must match both references bit for bit, and
 * every attached instrument must have observed the run it rode on.
 */
void
expectNeutral(const trace::WorkloadTrace &trace, const Reference &reference,
              unsigned mask)
{
    const CheckedRun &plain = reference.plain;
    Observers inst;
    CheckedRun observed(trace, &inst, mask);
    const RunResult &r = observed.result;

    // The oracle verified real work ...
    ASSERT_GT(plain.result.oracle_transactions, 0u);
    ASSERT_NE(plain.result.oracle_digest, 0u);
    // ... and every attached instrument observed the run it rode on.
    if (mask & profiler) {
        ASSERT_GT(inst.profiler.events(), 0u);
        EXPECT_EQ(inst.profiler.events(), r.events_processed);
    }
    if (mask & flows) {
        ASSERT_GT(inst.flows.activeFlows(), 0u);
        ASSERT_GT(inst.flows.totalBusyTicks(), 0u);
    }
    if (mask & recorder) {
        // Every executed event became a ring record, the RWQ and
        // fabric taps fired, and the queue counters were published.
        ASSERT_GT(inst.recorder.eventsSeen(), 0u);
        EXPECT_EQ(inst.recorder.eventsSeen(), r.events_processed);
        EXPECT_GT(inst.recorder.kindCount(obs::FlightKind::rwq_flush), 0u);
        EXPECT_GT(inst.recorder.kindCount(obs::FlightKind::fabric_inject),
                  0u);
        EXPECT_EQ(inst.recorder.queueProcessed(), r.events_processed);
        EXPECT_EQ(inst.recorder.queueDepth(), 0u);
    }
    if (mask & latency) {
        ASSERT_GT(inst.latency->messages(), 0u);
        EXPECT_EQ(inst.latency->violations(), 0u);
    }
    if (mask & tracer) {
        ASSERT_GT(inst.tracer.eventCount(), 0u);
    }

    EXPECT_EQ(fields(r), fields(plain.result));
    EXPECT_EQ(fields(r), fields(reference.bare));
    // The serialized stats document (groups + timeseries + provenance)
    // is byte-identical: no instrument registers StatGroups that a plain
    // run lacks, except the latency collector, whose groups the plain
    // document cannot carry.
    if (!(mask & latency)) {
        EXPECT_EQ(observed.document(), plain.document());
    }
    // The host and fabric sections appear only when explicitly
    // requested (see the *SectionAppearsOnlyWhenRequested cases).
    auto without = parseJson(observed.document());
    EXPECT_FALSE(without.has("host"));
    EXPECT_FALSE(without.has("fabric"));
    EXPECT_TRUE(without.has("provenance"));
}

class InstrumentNeutrality : public ::testing::TestWithParam<Subscribers>
{};

} // namespace

TEST(ObservabilityTest, TraceCoversThePipeline)
{
    Instruments inst;
    SimulationDriver(inst.config())
        .run(smallTrace("pagerank"), Paradigm::finepack);
    ASSERT_GT(inst.tracer.eventCount(), 0u);

    std::ostringstream os;
    inst.tracer.write(os);
    auto events = parseJson(os.str()).at("traceEvents");

    bool saw_kernel = false, saw_flush = false, saw_packet = false,
         saw_link = false, saw_ingress = false, saw_meta = false;
    for (const auto &e : events.array) {
        const std::string &ph = e.at("ph").string;
        if (ph == "M") {
            saw_meta = true;
            continue;
        }
        if (!e.has("cat"))
            continue;
        const std::string &cat = e.at("cat").string;
        saw_kernel |= e.at("name").string == "kernel";
        saw_flush |= cat == "rwq_flush";
        saw_packet |= cat == "packetizer";
        saw_link |= cat == "link";
        saw_ingress |= cat == "ingress";
    }
    EXPECT_TRUE(saw_meta);
    EXPECT_TRUE(saw_kernel);
    EXPECT_TRUE(saw_flush);
    EXPECT_TRUE(saw_packet);
    EXPECT_TRUE(saw_link);
    EXPECT_TRUE(saw_ingress);
}

TEST(ObservabilityTest, FlushDetailOmitsPerStoreEvents)
{
    Instruments full(obs::TraceDetail::full);
    Instruments flush(obs::TraceDetail::flush);
    const auto &trace = smallTrace("jacobi");
    SimulationDriver(full.config()).run(trace, Paradigm::finepack);
    SimulationDriver(flush.config()).run(trace, Paradigm::finepack);
    EXPECT_LT(flush.tracer.eventCount(), full.tracer.eventCount());

    std::ostringstream os;
    flush.tracer.write(os);
    auto events = parseJson(os.str()).at("traceEvents");
    for (const auto &e : events.array) {
        if (!e.has("cat"))
            continue;
        // Per-store enqueue instants are full-detail only.
        EXPECT_NE(e.at("cat").string, "rwq");
        EXPECT_NE(e.at("cat").string, "ingress");
    }
}

TEST(ObservabilityTest, SamplerRecordsRwqOccupancySeries)
{
    Instruments inst;
    // pagerank scatters enough stores per iteration for the remote
    // write queue to stay occupied across sample boundaries.
    SimulationDriver(inst.config())
        .run(smallTrace("pagerank", 0.3), Paradigm::finepack);

    bool saw_rwq_track = false, saw_nonzero = false;
    std::size_t points = 0;
    for (const auto &series : inst.sampler.series()) {
        points = std::max(points, series.ticks.size());
        if (series.name.find(".rwq.entries[") == std::string::npos)
            continue;
        saw_rwq_track = true;
        for (double v : series.values)
            saw_nonzero |= v > 0.0;
    }
    EXPECT_TRUE(saw_rwq_track);
    EXPECT_TRUE(saw_nonzero);
    EXPECT_GE(points, 2u);
}

TEST(ObservabilityTest, MetricsDocumentContainsPipelineGroups)
{
    Instruments inst;
    SimulationDriver(inst.config())
        .run(smallTrace("pagerank"), Paradigm::finepack);
    ASSERT_TRUE(inst.metrics.captured());

    std::ostringstream os;
    inst.metrics.writeDocument(os, &inst.sampler);
    auto doc = parseJson(os.str());
    EXPECT_DOUBLE_EQ(doc.at("schema_version").number, 1.0);

    bool saw_egress_histogram = false, saw_uplink = false;
    for (const auto &group : doc.at("groups").array) {
        const std::string &name = group.at("name").string;
        if (name.find("egress") != std::string::npos &&
            group.at("histograms").has("store_size_bytes")) {
            const JsonValue &hist =
                group.at("histograms").at("store_size_bytes");
            saw_egress_histogram = hist.at("total").number > 0.0;
        }
        saw_uplink |= name.find("fabric.up") != std::string::npos;
    }
    EXPECT_TRUE(saw_egress_histogram);
    EXPECT_TRUE(saw_uplink);

    // Time series ride along in the same document.
    const JsonValue &timeseries = doc.at("timeseries");
    EXPECT_GT(timeseries.at("tracks").object.size(), 0u);
}

TEST(ObservabilityTest, InstrumentedRunsAreDeterministic)
{
    const auto &trace = smallTrace("sssp");
    auto run = [&](Instruments &inst) {
        SimulationDriver(inst.config()).run(trace, Paradigm::finepack);
    };
    Instruments a, b;
    run(a);
    run(b);
    EXPECT_EQ(a.tracer.eventCount(), b.tracer.eventCount());
    ASSERT_EQ(a.sampler.series().size(), b.sampler.series().size());
    for (std::size_t i = 0; i < a.sampler.series().size(); ++i) {
        EXPECT_EQ(a.sampler.series()[i].ticks,
                  b.sampler.series()[i].ticks);
        EXPECT_EQ(a.sampler.series()[i].values,
                  b.sampler.series()[i].values);
    }
}

TEST_P(InstrumentNeutrality, InstrumentedRunIsBitIdenticalToPlainRun)
{
    const auto &trace = smallTrace("pagerank");
    // Shared across parameters.
    static const Reference reference(trace);
    expectNeutral(trace, reference, GetParam().mask);
}

INSTANTIATE_TEST_SUITE_P(
    EachSubscriberAndAll, InstrumentNeutrality,
    ::testing::Values(Subscribers{"profiler", profiler},
                      Subscribers{"flows", flows},
                      Subscribers{"recorder", recorder},
                      Subscribers{"latency", latency},
                      Subscribers{"tracer", tracer},
                      Subscribers{"all", profiler | flows | recorder |
                                             latency | tracer}),
    [](const ::testing::TestParamInfo<Subscribers> &info) {
        return std::string(info.param.name);
    });

TEST_P(InstrumentNeutrality, InstrumentsAreReusableAcrossRuns)
{
    const unsigned mask = GetParam().mask;
    const auto &trace = smallTrace("jacobi");
    Observers inst;
    obs::PeriodicSampler sampler(10 * ticks_per_us);
    SimConfig config;
    config.sampler = &sampler;
    inst.attach(config, mask);
    SimulationDriver driver(config);
    RunResult first = driver.run(trace, Paradigm::finepack);
    std::size_t first_events = inst.tracer.eventCount();
    RunResult second = driver.run(trace, Paradigm::finepack);

    // beginRun() resets every instrument, so both reps stand alone and
    // simulate identically.
    ASSERT_GT(second.messages, 0u);
    EXPECT_EQ(fields(first), fields(second));
    for (const auto &series : sampler.series()) {
        // Series from the second run only: ticks restart near zero.
        ASSERT_FALSE(series.ticks.empty());
        EXPECT_EQ(series.ticks.front(), 0u);
    }
    if (mask & profiler) {
        // The profiler alone folds both reps into one aggregate.
        EXPECT_EQ(inst.profiler.events(),
                  first.events_processed + second.events_processed);
    }
    if (mask & flows) {
        EXPECT_EQ(inst.flows.endTick(), second.total_time);
        std::uint64_t injected = 0;
        for (GpuId src = 0; src < inst.flows.numGpus(); ++src)
            for (GpuId dst = 0; dst < inst.flows.numGpus(); ++dst)
                injected += inst.flows.flow(src, dst).injected_wire_bytes;
        EXPECT_EQ(injected, second.wire_bytes);
    }
    if (mask & latency) {
        EXPECT_EQ(inst.latency->messages(), second.messages);
    }
    if (mask & tracer) {
        EXPECT_GT(inst.tracer.eventCount(), first_events);
    }
}

TEST(ProfilerDigest, ProfiledRunIsBitIdenticalToPlainRun)
{
    // The gate on a second workload, profiler alone.
    const auto &trace = smallTrace("jacobi");
    expectNeutral(trace, Reference(trace), profiler);
}

TEST(ProfilerDigest, HostSectionAppearsOnlyWhenRequested)
{
    Observers inst;
    CheckedRun run(smallTrace("jacobi"), &inst, profiler);

    auto without = parseJson(run.document());
    EXPECT_FALSE(without.has("host"));
    EXPECT_TRUE(without.has("provenance"));

    auto with = parseJson(run.document(&inst.profiler));
    ASSERT_TRUE(with.has("host"));
    EXPECT_GT(with.at("host").at("events").number, 0.0);
    EXPECT_GT(with.at("host").at("queue").at("pushes").number, 0.0);
    // Opting in must not disturb the simulated sections.
    EXPECT_EQ(with.at("groups").array.size(),
              without.at("groups").array.size());
}

TEST(FabricDigest, ObservedRunIsBitIdenticalToPlainRun)
{
    // The gate on a third workload, flow collector alone.
    const auto &trace = smallTrace("sssp");
    expectNeutral(trace, Reference(trace), flows);
}

TEST(FabricDigest, FabricSectionAppearsOnlyWhenRequested)
{
    Observers inst;
    CheckedRun run(smallTrace("pagerank"), &inst, flows);

    auto without = parseJson(run.document());
    EXPECT_FALSE(without.has("fabric"));
    EXPECT_TRUE(without.has("provenance"));

    auto with = parseJson(run.document(nullptr, &inst.flows));
    ASSERT_TRUE(with.has("fabric"));
    EXPECT_GT(with.at("fabric").at("totals").at("busy_ticks").number, 0.0);
    EXPECT_GT(with.at("fabric").at("totals").at("active_flows").number,
              0.0);
    // Opting in must not disturb the simulated sections.
    EXPECT_EQ(with.at("groups").array.size(),
              without.at("groups").array.size());
}

TEST(HealthDigest, WatchdogRunIsBitIdenticalToPlainRun)
{
    const auto &trace = smallTrace("sssp");
    CheckedRun plain(trace);

    // Full run-health rig: recorder attached to the driver AND a live
    // watchdog thread beating every 1 ms while the simulation runs,
    // with heartbeats routed to a file so test output stays clean.
    Observers inst;
    obs::HealthMonitor::Options options;
    options.heartbeat_ns = 1'000'000ULL;
    options.heartbeat_path =
        ::testing::TempDir() + "health_digest_heartbeat.ndjson";
    obs::HealthMonitor monitor(options);
    monitor.attachRecorder(&inst.recorder);
    monitor.start();
    CheckedRun watched(trace, &inst, recorder);
    monitor.stop();

    EXPECT_EQ(fields(watched.result), fields(plain.result));
    EXPECT_EQ(watched.document(), plain.document());
}

TEST(HealthDigest, PartialFlagOnlyAppearsWhenRequested)
{
    const auto &trace = smallTrace("jacobi");
    CheckedRun run(trace);

    // Complete documents carry no "partial" key at all -- the key's
    // absence is what keeps historical digests stable.
    auto complete = parseJson(run.document());
    EXPECT_FALSE(complete.has("partial"));
    EXPECT_TRUE(complete.has("provenance"));

    auto partial = parseJson(run.document(nullptr, nullptr, true));
    ASSERT_TRUE(partial.has("partial"));
    EXPECT_TRUE(partial.at("partial").boolean);
    // The flag is a prefix splice: every other section is untouched.
    EXPECT_EQ(partial.at("groups").array.size(),
              complete.at("groups").array.size());
}
