/**
 * Property tests for the word-level byte-enable math of a remote write
 * queue entry (packed cost, run walk, written span, range set and
 * test), each checked against a bit-by-bit reference kept here, and
 * for the recycling of a window's preallocated SRAM slots.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/random.hh"
#include "finepack/packetizer.hh"
#include "finepack/remote_write_queue.hh"

using namespace fp;
using namespace fp::finepack;
using fp::icn::Store;

namespace {

using Runs = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

constexpr std::uint32_t line_bits = ByteMask::size();

/** The mask's runs, one bit at a time. */
Runs
referenceRuns(const ByteMask &mask)
{
    Runs runs;
    std::uint32_t i = 0;
    while (i < line_bits) {
        if (!mask.test(i)) {
            ++i;
            continue;
        }
        std::uint32_t start = i;
        while (i < line_bits && mask.test(i))
            ++i;
        runs.emplace_back(start, i - start);
    }
    return runs;
}

std::uint64_t
referenceCost(const ByteMask &mask, std::uint32_t subheader)
{
    std::uint64_t cost = 0;
    for (const auto &[start, len] : referenceRuns(mask))
        cost += subheader + len;
    return cost;
}

std::pair<std::uint32_t, std::uint32_t>
referenceSpan(const ByteMask &mask)
{
    std::uint32_t first = 0;
    while (first < line_bits && !mask.test(first))
        ++first;
    if (first == line_bits)
        return {0, 0};
    std::uint32_t last = line_bits;
    while (!mask.test(last - 1))
        --last;
    return {first, last};
}

Runs
walkedRuns(const QueueEntry &entry)
{
    Runs runs;
    entry.forEachRun([&runs](std::uint32_t start, std::uint32_t len) {
        runs.emplace_back(start, len);
    });
    return runs;
}

ByteMask
maskFromWords(std::uint64_t lo, std::uint64_t hi)
{
    ByteMask mask;
    for (std::uint32_t i = 0; i < 64; ++i) {
        if ((lo >> i) & 1)
            mask.set(i);
        if ((hi >> i) & 1)
            mask.set(64 + i);
    }
    return mask;
}

/** Every word-level query agrees with its bit-by-bit reference. */
void
expectMatchesReference(const ByteMask &mask)
{
    QueueEntry entry;
    entry.mask = mask;
    SCOPED_TRACE(::testing::Message()
                 << std::hex << "words 0x" << mask.word(1) << " 0x"
                 << mask.word(0));
    Runs runs = referenceRuns(mask);
    EXPECT_EQ(walkedRuns(entry), runs);
    EXPECT_EQ(entry.runCount(), runs.size());
    std::uint32_t bytes = 0;
    for (std::uint32_t i = 0; i < line_bits; ++i)
        bytes += mask.test(i) ? 1 : 0;
    EXPECT_EQ(entry.validBytes(), bytes);
    EXPECT_EQ(mask.none(), bytes == 0);
    EXPECT_EQ(entry.writtenSpan(), referenceSpan(mask));
    for (std::uint32_t subheader = 2; subheader <= 6; ++subheader) {
        FinePackConfig config = configWithSubheader(subheader);
        EXPECT_EQ(entry.packedCost(config), referenceCost(mask, subheader))
            << "sub-header " << subheader;
    }
}

Store
dataStore(Addr addr, std::uint32_t size, std::uint8_t value)
{
    Store store(addr, size, 0, 1);
    store.data.assign(size, value);
    return store;
}

} // namespace

TEST(ByteMaskProperty, RandomMasksMatchBitwiseReference)
{
    common::Rng rng(20231);
    for (int trial = 0; trial < 2000; ++trial) {
        // Dense words, sparse words and long runs: AND/OR-ing random
        // words shifts the bit density.
        std::uint64_t lo = rng.next();
        std::uint64_t hi = rng.next();
        switch (trial % 4) {
          case 1: lo &= rng.next(); hi &= rng.next(); break;
          case 2: lo |= rng.next(); hi |= rng.next(); break;
          case 3: lo &= rng.next() & rng.next(); hi = 0; break;
          default: break;
        }
        expectMatchesReference(maskFromWords(lo, hi));
    }
}

TEST(ByteMaskProperty, EdgeMasksMatchBitwiseReference)
{
    const std::uint64_t all = ~std::uint64_t{0};
    const std::uint64_t top = std::uint64_t{1} << 63;
    expectMatchesReference(maskFromWords(0, 0));
    expectMatchesReference(maskFromWords(all, all));
    expectMatchesReference(maskFromWords(all, 0));
    expectMatchesReference(maskFromWords(0, all));
    expectMatchesReference(maskFromWords(1, 0));
    expectMatchesReference(maskFromWords(0, top));
    // Runs that cross the byte 63/64 word boundary, and runs that end
    // or start exactly on it.
    expectMatchesReference(maskFromWords(top, 1));
    expectMatchesReference(maskFromWords(top | (top >> 1), 0x7));
    expectMatchesReference(maskFromWords(top, 0));
    expectMatchesReference(maskFromWords(0, 1));
    expectMatchesReference(maskFromWords(top | 1, 1 | top));
    expectMatchesReference(
        maskFromWords(0xaaaaaaaaaaaaaaaaull, 0x5555555555555555ull));
}

TEST(ByteMaskProperty, RangeSetAndTestMatchBitwiseReference)
{
    common::Rng rng(77);
    for (int trial = 0; trial < 2000; ++trial) {
        ByteMask mask = maskFromWords(rng.next() & rng.next(),
                                      rng.next() & rng.next());
        auto start = static_cast<std::uint32_t>(rng.below(line_bits));
        auto len = static_cast<std::uint32_t>(
            1 + rng.below(line_bits - start));

        bool any = false;
        std::uint32_t already = 0;
        ByteMask expected = mask;
        for (std::uint32_t i = start; i < start + len; ++i) {
            any = any || mask.test(i);
            already += mask.test(i) ? 1 : 0;
            expected.set(i);
        }
        EXPECT_EQ(mask.anyInRange(start, len), any);
        EXPECT_EQ(mask.setRange(start, len), already);
        for (std::uint32_t i = 0; i < line_bits; ++i)
            ASSERT_EQ(mask.test(i), expected.test(i))
                << "byte " << i << " after setRange(" << start << ", "
                << len << ")";
        expectMatchesReference(mask);
    }
}

TEST(QueueEntryTest, TimingOnlyBytesReadZeroAfterFirstPayload)
{
    QueueEntry entry;
    entry.data.fill(0xee); // a previous occupant's bytes
    entry.write(0, 4, nullptr);
    EXPECT_FALSE(entry.has_data);
    const std::uint8_t payload[2] = {7, 9};
    EXPECT_EQ(entry.write(2, 2, payload), 2u);
    ASSERT_TRUE(entry.has_data);
    EXPECT_EQ(entry.data[0], 0);
    EXPECT_EQ(entry.data[1], 0);
    EXPECT_EQ(entry.data[2], 7);
    EXPECT_EQ(entry.data[3], 9);
}

TEST(RwqSlotRecycling, RefilledSlotsCarryNoStaleState)
{
    FinePackConfig config = defaultConfig();
    RwqPartition partition(1, config);
    std::vector<FlushedPartition> sink;
    // Fill every slot with payload-carrying stores (64 x 37 B of
    // packed cost fits the 4 KiB payload).
    for (std::uint32_t i = 0; i < config.queue_entries; ++i)
        partition.push(dataStore(0x10000 + i * 128, 32,
                                 static_cast<std::uint8_t>(i + 1)),
                       sink);
    ASSERT_TRUE(sink.empty());
    FlushedPartition first = partition.flush(FlushReason::release);
    ASSERT_EQ(first.entries.size(), config.queue_entries);
    for (const QueueEntry &entry : first.entries)
        EXPECT_TRUE(entry.has_data);

    // Refill the same lines with 4 B timing-only stores inside the
    // bytes the first fill enabled.
    for (std::uint32_t i = 0; i < config.queue_entries; ++i)
        partition.push(Store(0x10000 + i * 128 + 8, 4, 0, 1), sink);
    ASSERT_TRUE(sink.empty());
    FlushedPartition second = partition.flush(FlushReason::release);
    ASSERT_EQ(second.entries.size(), config.queue_entries);
    for (const QueueEntry &entry : second.entries) {
        EXPECT_FALSE(entry.has_data) << "line " << entry.line_addr;
        EXPECT_EQ(entry.validBytes(), 4u);
        EXPECT_EQ(entry.writtenSpan(), std::make_pair(8u, 12u));
    }
    Packetizer packetizer(0, config);
    FinePackTransaction txn = packetizer.packetize(second);
    ASSERT_EQ(txn.size(), config.queue_entries);
    for (const SubPacket &sub : txn.subPackets()) {
        EXPECT_EQ(sub.length, 4u);
        EXPECT_TRUE(sub.data.empty());
    }
    EXPECT_EQ(partition.availablePayload(), config.max_payload);

    // A payload store joining a recycled line: the bytes a timing-only
    // store enabled read as zero, never as the first fill's value.
    partition.push(Store(0x10000, 4, 0, 1), sink);
    partition.push(dataStore(0x10004, 4, 0x5a), sink);
    FlushedPartition third = partition.flush(FlushReason::release);
    ASSERT_EQ(third.entries.size(), 1u);
    const QueueEntry &entry = third.entries[0];
    EXPECT_TRUE(entry.has_data);
    EXPECT_EQ(entry.validBytes(), 8u);
    for (std::uint32_t i = 0; i < 4; ++i)
        EXPECT_EQ(entry.data[i], 0) << "byte " << i;
    for (std::uint32_t i = 4; i < 8; ++i)
        EXPECT_EQ(entry.data[i], 0x5a) << "byte " << i;
}

TEST(RwqSlotRecycling, ConflictsSeeOnlyLiveLinesAcrossWindows)
{
    FinePackConfig config = configWithSubheader(3); // 16 KiB windows
    config.windows_per_partition = 2;
    config.validate();
    RwqPartition partition(1, config);
    std::vector<FlushedPartition> sink;

    // Window 0 holds lines of region A, window 1 lines of region B.
    const Addr region_a = 0x0;
    const Addr region_b = 0x100000;
    for (Addr line = 0; line < 8; ++line) {
        partition.push(Store(region_a + line * 128, 16, 0, 1), sink);
        partition.push(Store(region_b + line * 128 + 64, 16, 0, 1), sink);
    }
    ASSERT_TRUE(sink.empty());
    partition.flush(FlushReason::release, sink);
    ASSERT_EQ(sink.size(), 2u);
    sink.clear();

    // Recycle both windows' slots for regions C and D, whose lines
    // reuse the slots region A's and B's lines held.
    const Addr region_c = 0x200000;
    const Addr region_d = 0x300000;
    for (Addr line = 0; line < 4; ++line) {
        partition.push(Store(region_c + line * 128 + 32, 8, 0, 1), sink);
        partition.push(Store(region_d + line * 128, 8, 0, 1), sink);
    }
    ASSERT_TRUE(sink.empty());

    for (std::uint32_t w = 0; w < partition.windowCount(); ++w) {
        const RwqWindow &window = partition.window(w);
        EXPECT_EQ(window.entryCount(), 4u);
        // Stale tags and enables of the flushed regions never match.
        for (Addr line = 0; line < 8; ++line) {
            EXPECT_FALSE(window.conflicts(region_a + line * 128, 128));
            EXPECT_FALSE(window.conflicts(region_b + line * 128, 128));
        }
    }
    // Live lines conflict on their enabled bytes only.
    bool c_hit = false;
    bool d_hit = false;
    bool c_low_bytes = false;
    for (std::uint32_t w = 0; w < partition.windowCount(); ++w) {
        const RwqWindow &window = partition.window(w);
        c_hit = c_hit || window.conflicts(region_c + 3 * 128 + 36, 1);
        d_hit = d_hit || window.conflicts(region_d + 2 * 128 + 4, 4);
        c_low_bytes = c_low_bytes || window.conflicts(region_c + 128, 32);
    }
    EXPECT_TRUE(c_hit);
    EXPECT_TRUE(d_hit);
    EXPECT_FALSE(c_low_bytes);

    EXPECT_FALSE(partition.flushIfConflict(
        region_a, 1024, FlushReason::load_conflict, sink));
    EXPECT_TRUE(sink.empty());
    EXPECT_TRUE(partition.flushIfConflict(
        region_d + 128, 8, FlushReason::load_conflict, sink));
    ASSERT_EQ(sink.size(), 2u);
    for (const FlushedPartition &flushed : sink) {
        ASSERT_EQ(flushed.entries.size(), 4u);
        for (const QueueEntry &entry : flushed.entries)
            EXPECT_EQ(entry.validBytes(), 8u);
    }
    EXPECT_TRUE(partition.empty());
}
