/**
 * @file
 * Golden instrument outputs: pins, across commits, every byte the
 * instruments produce. Each case replays pagerank or sssp (scale 0.05,
 * seed 42, 4 GPUs) under one event-driven paradigm with the latency
 * and flow collectors, the sampler, a full-detail tracer and (under
 * finepack) the protocol oracle attached, and compares FNV-1a digests
 * of the stats document (fabric section in, provenance out), the
 * Chrome trace and the RunResult against recorded constants. A change
 * that means to alter an output re-records them and says why.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <streambuf>
#include <string>

#include "check/digest.hh"
#include "obs/flow.hh"
#include "obs/latency.hh"
#include "obs/metrics.hh"
#include "obs/sampler.hh"
#include "obs/trace_event.hh"
#include "sim/driver.hh"
#include "sim/trace_cache.hh"
#include "workloads/workload.hh"

using namespace fp;
using namespace fp::sim;

namespace {

/** An output stream buffer that folds everything written into a Digest. */
class DigestBuf : public std::streambuf
{
  public:
    std::uint64_t value() const { return _digest.value(); }

  protected:
    int_type
    overflow(int_type ch) override
    {
        if (!traits_type::eq_int_type(ch, traits_type::eof()))
            _digest.updateByte(static_cast<std::uint8_t>(ch));
        return traits_type::not_eof(ch);
    }

    std::streamsize
    xsputn(const char *s, std::streamsize n) override
    {
        _digest.update(s, static_cast<std::size_t>(n));
        return n;
    }

  private:
    check::Digest _digest;
};

/** Drop `"provenance":{...},`: it names the build, not the run. */
std::string
withoutProvenance(const std::string &doc)
{
    std::size_t begin = doc.find("\"provenance\":");
    std::size_t end = doc.find(",\"groups\":", begin);
    if (begin == std::string::npos || end == std::string::npos)
        return doc;
    return doc.substr(0, begin) + doc.substr(end + 1);
}

std::uint64_t
resultDigest(const RunResult &r)
{
    check::Digest d;
    for (std::uint64_t v :
         {static_cast<std::uint64_t>(r.paradigm), r.total_time,
          r.wire_bytes, r.payload_bytes, r.header_bytes, r.data_bytes,
          r.messages, r.useful_bytes, r.protocol_bytes, r.wasted_bytes,
          std::bit_cast<std::uint64_t>(r.avg_stores_per_packet),
          r.finepack_packets, r.wc_alone_wire_bytes, r.wc_line_wire_bytes,
          r.uncompressed_wire_bytes, r.oracle_transactions,
          r.oracle_stores, r.oracle_bytes, r.oracle_value_bytes,
          r.oracle_digest, static_cast<std::uint64_t>(r.interrupted)})
        d.updateU64(v);
    return d.value();
}

struct GoldenCase
{
    const char *workload;
    Paradigm paradigm;
    std::uint64_t stats, trace, result;
};

void
PrintTo(const GoldenCase &golden, std::ostream *os)
{
    *os << golden.workload << " / " << toString(golden.paradigm);
}

class GoldenInstrumentTest : public ::testing::TestWithParam<GoldenCase>
{};

} // namespace

TEST_P(GoldenInstrumentTest, OutputsMatchRecordedDigests)
{
    const GoldenCase &golden = GetParam();
    workloads::WorkloadParams params;
    params.num_gpus = 4;
    params.scale = 0.05;
    params.seed = 42;
    const trace::WorkloadTrace &trace =
        TraceCache::instance().get(golden.workload, params);

    obs::TraceSink tracer(obs::TraceDetail::full);
    obs::PeriodicSampler sampler(10 * ticks_per_us);
    obs::MetricsCapture metrics;
    obs::LatencyCollector latency;
    obs::FlowCollector flows;
    SimConfig config;
    config.tracer = &tracer;
    config.sampler = &sampler;
    config.metrics = &metrics;
    config.latency = &latency;
    config.flows = &flows;
    config.check = golden.paradigm == Paradigm::finepack;
    RunResult result = SimulationDriver(config).run(trace, golden.paradigm);

    // The instruments saw real work.
    ASSERT_GT(latency.messages(), 0u);
    ASSERT_GT(flows.activeFlows(), 0u);
    ASSERT_GT(tracer.eventCount(), 0u);
    if (config.check) {
        ASSERT_EQ(result.oracle_transactions, result.finepack_packets);
    }

    std::ostringstream doc;
    metrics.writeDocument(doc, &sampler, nullptr, &flows);
    check::Digest stats;
    stats.update(withoutProvenance(doc.str()));

    flows.emitTrace(tracer);
    DigestBuf trace_digest;
    std::ostream trace_out(&trace_digest);
    tracer.write(trace_out);
    trace_out.flush();

    std::uint64_t result_digest = resultDigest(result);
    std::printf("%s / %s: 0x%016llxull, 0x%016llxull, 0x%016llxull\n",
                golden.workload, toString(golden.paradigm),
                static_cast<unsigned long long>(stats.value()),
                static_cast<unsigned long long>(trace_digest.value()),
                static_cast<unsigned long long>(result_digest));
    EXPECT_EQ(stats.value(), golden.stats) << "stats document";
    EXPECT_EQ(trace_digest.value(), golden.trace) << "Chrome trace";
    EXPECT_EQ(result_digest, golden.result) << "RunResult";
}

// Digests: stats document, Chrome trace, RunResult.
INSTANTIATE_TEST_SUITE_P(
    PagerankAndSssp, GoldenInstrumentTest,
    ::testing::Values(
        GoldenCase{"pagerank", Paradigm::p2p_stores, 0x35223c6447ad38b8ull,
                   0xbb5e52fa9d6a28caull, 0x8d1a119485d03f63ull},
        GoldenCase{"pagerank", Paradigm::finepack, 0xfb4ceb0375f85ebeull,
                   0xe57d0d25660282c4ull, 0x7ee45968c2b5cc83ull},
        GoldenCase{"pagerank", Paradigm::write_combine, 0xdb465df4fa16b66dull,
                   0x19095b0f83f2a011ull, 0x189d4744d43a2ac3ull},
        GoldenCase{"pagerank", Paradigm::gps, 0xdb465df4fa16b66dull,
                   0xccd3c914efab4180ull, 0xec98b459600dcabaull},
        GoldenCase{"pagerank", Paradigm::bulk_dma, 0x2d7653e431568392ull,
                   0xcd42ee2b583d3fa9ull, 0x622280512504689eull},
        GoldenCase{"sssp", Paradigm::p2p_stores, 0xfa3e7087f9bea820ull,
                   0xb2af7645785cb111ull, 0x26fcb4b3499daf2bull},
        GoldenCase{"sssp", Paradigm::finepack, 0x7c0860216bd7e92aull,
                   0x9bd866dee9763a87ull, 0x5df5052d834c9a7aull},
        GoldenCase{"sssp", Paradigm::write_combine, 0xac2943524cd436baull,
                   0xb0ed8c6b77c892b4ull, 0x8421c287fe2c0ad0ull},
        GoldenCase{"sssp", Paradigm::gps, 0x22ed4088b1191d5dull,
                   0xc44dd06a8a5785d2ull, 0x56c63d7040a3e187ull},
        GoldenCase{"sssp", Paradigm::bulk_dma, 0xe8458f0d2f6b57b9ull,
                   0xe897ed5d3ffd2881ull, 0x700f234afbed9a77ull}),
    [](const ::testing::TestParamInfo<GoldenCase> &info) {
        std::string name = std::string(info.param.workload) + "_" +
                           toString(info.param.paradigm);
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });
