/**
 * @file
 * The coverage ledger against a reference: an IntervalSet union of an
 * iteration's stores and consumed ranges per destination, the update
 * summary the ledger replaced. Checked on crafted edge cases and on
 * every iteration and destination of all eight workloads.
 */

#include <gtest/gtest.h>

#include <string>

#include "trace/trace.hh"
#include "workloads/workload.hh"

using namespace fp;
using namespace fp::trace;

namespace {

/** Sorts and merges every store to and consumed range of @p dst. */
UpdateSummary
referenceSummary(const IterationWork &iter, GpuId dst)
{
    IntervalSet updated;
    for (const auto &gpu : iter.per_gpu)
        for (const auto &store : gpu.remote_stores)
            if (store.dst == dst)
                updated.add(store.addr, store.size);

    IntervalSet consumed;
    if (dst < iter.consumed.size())
        for (const auto &range : iter.consumed[dst])
            consumed.add(range);

    UpdateSummary summary;
    summary.unique_bytes = updated.totalBytes();
    summary.useful_bytes = updated.intersectBytes(consumed);
    return summary;
}

/** Compare @p ledger's summaries of @p iter with the reference. */
void
expectMatchesReference(CoverageLedger &ledger, const IterationWork &iter,
                       std::uint32_t num_gpus, const std::string &what)
{
    const auto &summaries = ledger.summarize(iter, num_gpus);
    ASSERT_EQ(summaries.size(), num_gpus) << what;
    for (GpuId dst = 0; dst < num_gpus; ++dst) {
        UpdateSummary expected = referenceSummary(iter, dst);
        EXPECT_EQ(summaries[dst].unique_bytes, expected.unique_bytes)
            << what << ", dst " << dst;
        EXPECT_EQ(summaries[dst].useful_bytes, expected.useful_bytes)
            << what << ", dst " << dst;
    }
}

IterationWork
emptyIteration(std::uint32_t num_gpus)
{
    IterationWork iter;
    iter.per_gpu.resize(num_gpus);
    iter.consumed.resize(num_gpus);
    return iter;
}

} // namespace

TEST(CoverageLedgerTest, OverlappingAndDuplicateStores)
{
    IterationWork iter = emptyIteration(2);
    auto &stores = iter.per_gpu[0].remote_stores;
    stores.emplace_back(0x1000, 8, 0, 1);
    stores.emplace_back(0x1000, 8, 0, 1); // duplicate
    stores.emplace_back(0x1004, 16, 0, 1); // overlaps the first
    iter.per_gpu[1].remote_stores.emplace_back(0x1010, 8, 1, 1);
    iter.consumed[1].push_back({0x1000, 12});

    CoverageLedger ledger;
    const auto &summaries = ledger.summarize(iter, 2);
    EXPECT_EQ(summaries[1].unique_bytes, 24u);
    EXPECT_EQ(summaries[1].useful_bytes, 12u);
    EXPECT_EQ(summaries[0].unique_bytes, 0u);
    expectMatchesReference(ledger, iter, 2, "overlap");
}

TEST(CoverageLedgerTest, StoresCrossingLineAndPageBoundaries)
{
    IterationWork iter = emptyIteration(2);
    auto &stores = iter.per_gpu[0].remote_stores;
    stores.emplace_back(0x107c, 8, 0, 1);  // crosses a 128 B line
    stores.emplace_back(0x1ff8, 16, 0, 1); // crosses a 4 KiB page
    stores.emplace_back(0x3040, 300, 0, 1); // spans three lines
    iter.consumed[1].push_back({0x1080, 2});
    iter.consumed[1].push_back({0x2000, 0x1100});

    CoverageLedger ledger;
    const auto &summaries = ledger.summarize(iter, 2);
    EXPECT_EQ(summaries[1].unique_bytes, 8u + 16u + 300u);
    EXPECT_EQ(summaries[1].useful_bytes, 2u + 8u + 0xc0u);
    expectMatchesReference(ledger, iter, 2, "crossing");
}

TEST(CoverageLedgerTest, TouchingOverlappingAndEmptyConsumedRanges)
{
    IterationWork iter = emptyIteration(2);
    iter.per_gpu[0].remote_stores.emplace_back(0x0, 256, 0, 1);
    iter.consumed[1].push_back({0x10, 16});
    iter.consumed[1].push_back({0x20, 16}); // touches the first
    iter.consumed[1].push_back({0x18, 32}); // overlaps both
    iter.consumed[1].push_back({0x40, 0});  // empty
    iter.consumed[1].push_back({0xf0, 64}); // runs past the store

    CoverageLedger ledger;
    const auto &summaries = ledger.summarize(iter, 2);
    EXPECT_EQ(summaries[1].unique_bytes, 256u);
    EXPECT_EQ(summaries[1].useful_bytes, 0x28u + 0x10u);
    expectMatchesReference(ledger, iter, 2, "ranges");
}

TEST(CoverageLedgerTest, StoresWithoutReadersAndReadersWithoutStores)
{
    IterationWork iter = emptyIteration(3);
    // GPU 1 is sent bytes nobody reads; GPU 2 reads bytes nobody sent.
    iter.per_gpu[0].remote_stores.emplace_back(0x500, 64, 0, 1);
    iter.consumed[2].push_back({0x500, 64});

    CoverageLedger ledger;
    const auto &summaries = ledger.summarize(iter, 3);
    EXPECT_EQ(summaries[1].unique_bytes, 64u);
    EXPECT_EQ(summaries[1].useful_bytes, 0u);
    EXPECT_EQ(summaries[2].unique_bytes, 0u);
    EXPECT_EQ(summaries[2].useful_bytes, 0u);
    expectMatchesReference(ledger, iter, 3, "unmatched");
}

TEST(CoverageLedgerTest, IgnoresDestinationsBeyondTheGpuCount)
{
    // readTrace does not validate dst yet, so a loaded trace can name a
    // GPU the system does not have.
    IterationWork iter = emptyIteration(2);
    iter.per_gpu[0].remote_stores.emplace_back(0x100, 8, 0, 1);
    iter.per_gpu[0].remote_stores.emplace_back(0x100, 8, 0, 2);
    iter.per_gpu[0].remote_stores.emplace_back(0x100, 8, 0, invalid_gpu);
    iter.consumed[1].push_back({0x100, 8});

    CoverageLedger ledger;
    const auto &summaries = ledger.summarize(iter, 2);
    EXPECT_EQ(summaries[1].unique_bytes, 8u);
    EXPECT_EQ(summaries[1].useful_bytes, 8u);
    EXPECT_EQ(summaries[0].unique_bytes, 0u);
}

TEST(CoverageLedgerTest, ClearsBetweenIterations)
{
    IterationWork first = emptyIteration(2);
    first.per_gpu[0].remote_stores.emplace_back(0x200, 32, 0, 1);
    first.consumed[1].push_back({0x200, 32});
    IterationWork second = emptyIteration(2);
    second.per_gpu[0].remote_stores.emplace_back(0x210, 32, 0, 1);

    CoverageLedger ledger;
    EXPECT_EQ(ledger.summarize(first, 2)[1].useful_bytes, 32u);
    const auto &summaries = ledger.summarize(second, 2);
    EXPECT_EQ(summaries[1].unique_bytes, 32u);
    EXPECT_EQ(summaries[1].useful_bytes, 0u);
}

TEST(CoverageLedgerTest, GrowsPastItsFirstTable)
{
    // Enough scattered lines to force several table doublings.
    IterationWork iter = emptyIteration(2);
    for (Addr i = 0; i < 20000; ++i) {
        iter.per_gpu[0].remote_stores.emplace_back(i * 4096 + (i % 120),
                                                   8, 0, 1);
        if (i % 3 == 0)
            iter.consumed[1].push_back({i * 4096, 64});
    }
    CoverageLedger ledger;
    expectMatchesReference(ledger, iter, 2, "scattered");
}

class CoverageLedgerWorkloads : public ::testing::TestWithParam<std::string>
{};

TEST_P(CoverageLedgerWorkloads, MatchesReferenceOnEveryIteration)
{
    workloads::WorkloadParams params;
    params.num_gpus = 4;
    params.scale = 0.05;
    params.seed = 42;
    WorkloadTrace trace =
        workloads::createWorkload(GetParam())->generateTrace(params);

    // One ledger for the whole trace, as summarizeTrace uses it.
    CoverageLedger ledger;
    UpdateSummary total;
    for (std::uint32_t i = 0; i < trace.numIterations(); ++i) {
        expectMatchesReference(ledger, trace.iterations[i],
                               trace.num_gpus,
                               GetParam() + " iteration " +
                                   std::to_string(i));
        for (GpuId dst = 0; dst < trace.num_gpus; ++dst) {
            UpdateSummary one = referenceSummary(trace.iterations[i], dst);
            total.unique_bytes += one.unique_bytes;
            total.useful_bytes += one.useful_bytes;
        }
    }
    UpdateSummary summary = summarizeTrace(trace);
    EXPECT_EQ(summary.unique_bytes, total.unique_bytes);
    EXPECT_EQ(summary.useful_bytes, total.useful_bytes);
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, CoverageLedgerWorkloads,
    ::testing::Values("jacobi", "pagerank", "sssp", "als", "ct", "eqwp",
                      "diffusion", "hit"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });
