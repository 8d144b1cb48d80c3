/**
 * @file
 * The FinePack remote write queue (paper Section IV-B, Figure 8).
 *
 * One partition per destination GPU. Each partition holds one or more
 * base+offset *windows* (open outer transactions); the paper evaluates
 * one window per partition and discusses multiple windows as a remedy
 * for access streams that straddle alignment boundaries (Section IV-C).
 * Each window is a fully associative SRAM indexed by address at
 * cache-line (128 B) granularity; every entry holds an address tag, a
 * line of data, and per-byte enables. Stores to the same bytes
 * overwrite in place (legal under the GPU weak memory model); stores to
 * new addresses accumulate while they fit the window and the
 * outer-transaction payload budget.
 *
 * This class is purely functional (no timing); the GPU egress port
 * wraps it into the discrete-event simulation.
 */

#ifndef FP_FINEPACK_REMOTE_WRITE_QUEUE_HH
#define FP_FINEPACK_REMOTE_WRITE_QUEUE_HH

#include <array>
#include <bit>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/bitutil.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "finepack/config.hh"
#include "interconnect/pipeline_observer.hh"
#include "interconnect/store.hh"

namespace fp::common {
class EventQueue;
} // namespace fp::common

namespace fp::finepack {

/**
 * The per-byte write enables of one line, held as the two 64-bit words
 * of a 128-bit SRAM row: byte i of the line is bit i % 64 of word
 * i / 64. Every query works on whole words (popcount, count-trailing /
 * count-leading zeros), never bit by bit.
 */
class ByteMask
{
  public:
    /** Bits in the mask: the widest line an entry holds. */
    static constexpr std::uint32_t size() { return max_entry_bytes; }

    bool
    test(std::uint32_t i) const
    {
        return (_words[i >> 6] >> (i & 63)) & 1;
    }

    void
    set(std::uint32_t i)
    {
        _words[i >> 6] |= std::uint64_t{1} << (i & 63);
    }

    /** Clear every enable (a slot handed to a new line). */
    void reset() { _words = {}; }

    /**
     * Enable bytes [start, start + len), 1 <= len, start + len <=
     * size(). @return how many of them were already enabled.
     */
    std::uint32_t setRange(std::uint32_t start, std::uint32_t len);

    /** Is any byte of [start, start + len) enabled? */
    bool anyInRange(std::uint32_t start, std::uint32_t len) const;

    /** Number of enabled bytes. */
    std::uint32_t
    count() const
    {
        return common::popcount64(_words[0]) +
               common::popcount64(_words[1]);
    }

    bool none() const { return (_words[0] | _words[1]) == 0; }

    /**
     * Number of maximal enabled runs: the enabled bytes whose lower
     * neighbour is disabled (the carry from word 0's top bit joins a
     * run that crosses byte 63/64).
     */
    std::uint32_t
    runCount() const
    {
        std::uint64_t starts0 = _words[0] & ~(_words[0] << 1);
        std::uint64_t starts1 =
            _words[1] & ~((_words[1] << 1) | (_words[0] >> 63));
        return common::popcount64(starts0) + common::popcount64(starts1);
    }

    /**
     * Call @p fn(start, length) for every maximal enabled run, in
     * ascending byte order.
     */
    template <typename Fn>
    void
    forEachRun(Fn &&fn) const
    {
        std::uint32_t start = find(0, true);
        while (start < size()) {
            std::uint32_t end = find(start, false);
            fn(start, end - start);
            start = find(end, true);
        }
    }

    /**
     * [first, last) span from the first enabled byte to one past the
     * last; (0, 0) for an empty mask.
     */
    std::pair<std::uint32_t, std::uint32_t> span() const;

    std::uint64_t word(std::uint32_t i) const { return _words[i]; }

  private:
    /**
     * First byte at or after @p from whose enable equals @p enabled;
     * size() when there is none.
     */
    std::uint32_t
    find(std::uint32_t from, bool enabled) const
    {
        for (std::uint32_t w = from >> 6; w < _words.size(); ++w) {
            std::uint64_t bits = enabled ? _words[w] : ~_words[w];
            if (w == from >> 6)
                bits &= ~std::uint64_t{0} << (from & 63);
            if (bits)
                return w * 64 +
                       static_cast<std::uint32_t>(std::countr_zero(bits));
        }
        return size();
    }

    std::array<std::uint64_t, 2> _words{};
};

/**
 * One line buffered in a remote write queue window: an SRAM row of
 * address tag, inline line data and byte enables. It owns no heap
 * memory, so a window's slots are allocated once and recycled.
 */
struct QueueEntry
{
    /** Line-aligned tag address (device-local, destination GPU). */
    Addr line_addr = 0;
    /**
     * Line data; only bytes with their enable set are meaningful, and
     * only when has_data is set.
     */
    std::array<std::uint8_t, max_entry_bytes> data{};
    /** Per-byte write enables. */
    ByteMask mask;
    /** True when at least one merged store carried payload bytes. */
    bool has_data = false;

    /**
     * Merge a store of @p size bytes at line offset @p offset. @p bytes
     * is its payload, or nullptr for a timing-only store. The first
     * payload-carrying store zeroes the line, so bytes enabled by
     * timing-only stores read as zero, never as a previous occupant's
     * data. @return the bytes whose enable was already set
     * (overwritten in place).
     */
    std::uint32_t write(std::uint32_t offset, std::uint32_t size,
                        const std::uint8_t *bytes);

    /**
     * The packed cost of this entry in a FinePack payload: one
     * sub-header per contiguous enabled run plus every enabled byte.
     */
    std::uint64_t
    packedCost(const FinePackConfig &config) const
    {
        return mask.count() +
               std::uint64_t{config.subheader_bytes} * mask.runCount();
    }

    /** Number of contiguous enabled runs (sub-packets at packetize). */
    std::uint32_t runCount() const { return mask.runCount(); }

    /** Call @p fn(start byte, length) for every run, ascending. */
    template <typename Fn>
    void
    forEachRun(Fn &&fn) const
    {
        mask.forEachRun(std::forward<Fn>(fn));
    }

    /**
     * [first, last) written-byte span of the line (first enabled byte
     * to one past the last); (0, 0) for an empty mask.
     */
    std::pair<std::uint32_t, std::uint32_t>
    writtenSpan() const
    {
        return mask.span();
    }

    /** Number of enabled bytes. */
    std::uint32_t validBytes() const { return mask.count(); }
};

/** Why a window was flushed (for statistics / Figure analysis). */
enum class FlushReason : std::uint8_t {
    window_violation,   ///< incoming store outside every open window
    payload_full,       ///< payload budget could not fit the store
    entries_full,       ///< all SRAM entries in use, store missed
    release,            ///< system-scoped release (fence / kernel end)
    load_conflict,      ///< remote load matched a queued store
    atomic_conflict,    ///< remote atomic matched a queued store
};

/** Number of FlushReason values (for per-reason accounting arrays). */
inline constexpr std::size_t flush_reason_count = 6;

const char *toString(FlushReason reason);

/** The contents of one flushed window, ready to packetize. */
struct FlushedPartition
{
    GpuId dst = invalid_gpu;
    /** Base address register value (already shifted left). */
    Addr window_base = 0;
    std::vector<QueueEntry> entries;
    /** Program stores that were folded into these entries. */
    std::uint64_t packed_store_count = 0;
    /** Why the window flushed (set by RwqPartition::captureWindow). */
    FlushReason reason = FlushReason::release;

    bool empty() const { return entries.empty(); }
};

/**
 * One base+offset window: the register state of Figure 8 (base address
 * register, available-payload-length register, store counter) plus its
 * share of the partition's SRAM entries.
 */
class RwqWindow
{
  public:
    RwqWindow(const FinePackConfig &config, std::uint32_t entry_budget);

    bool empty() const { return _used == 0; }
    std::size_t entryCount() const { return _used; }
    std::uint64_t bufferedStores() const { return _buffered_stores; }

    /** Base address register; invalid_addr when the window is empty. */
    Addr baseAddrRegister() const { return _base_register; }
    Addr windowLo() const;
    Addr windowHi() const;

    /** The available-payload-length register (paper Figure 8). */
    std::uint64_t availablePayload() const { return _available_payload; }

    /** Does @p store fall inside this (non-empty) window? */
    bool covers(const icn::Store &store) const;

    /**
     * Can @p store be accepted without flushing? Checks the paper's two
     * conditions - window containment (unless empty) and the
     * conservative payload budget - plus SRAM entry capacity.
     */
    bool accepts(const icn::Store &store) const;

    /** Would @p store be rejected by the payload budget alone? */
    bool payloadBound(const icn::Store &store) const;

    /** Would @p store be rejected by SRAM entry capacity alone? */
    bool entryBound(const icn::Store &store) const;

    /** The observable outcome of one insert (for hooks/statistics). */
    struct InsertOutcome
    {
        /** The store merged into an already-buffered line. */
        bool queue_hit = false;
        /** Bytes whose enable was already set (overwritten in place). */
        std::uint32_t overwritten_bytes = 0;
    };

    /** Insert a store; accepts(store) must be true. */
    InsertOutcome insert(const icn::Store &store);

    /** Does any buffered byte overlap [addr, addr+size)? */
    bool conflicts(Addr addr, std::uint32_t size) const;

    /**
     * Copy out everything buffered, sorted by line address, and free
     * every slot. One allocation: the returned entries.
     */
    FlushedPartition take(GpuId dst);

    /** Lifetime statistics. */
    std::uint64_t queueHits() const { return _queue_hits; }
    std::uint64_t bytesElided() const { return _bytes_elided; }

  private:
    static constexpr std::uint32_t no_slot = ~std::uint32_t{0};

    /** The slot tagged @p line, or no_slot; probes the last hit first. */
    std::uint32_t find(Addr line) const;

    FinePackConfig _config;
    std::uint32_t _entry_budget;

    Addr _base_register = invalid_addr;
    std::uint64_t _available_payload;
    std::uint64_t _buffered_stores = 0;

    /**
     * The window's SRAM, allocated once: _entry_budget line slots, of
     * which the first _used hold lines. _tags[i] is slot i's line
     * address, kept apart so a lookup scans 8 B per slot.
     */
    std::vector<QueueEntry> _slots;
    std::vector<Addr> _tags;
    std::uint32_t _used = 0;
    /** The slot the last insert wrote (the first one find() probes). */
    std::uint32_t _last_hit = 0;
    /** take()'s sort scratch: slot indices in line-address order. */
    std::vector<std::uint32_t> _order;

    std::uint64_t _queue_hits = 0;
    std::uint64_t _bytes_elided = 0;
};

/**
 * One partition of the remote write queue: every state element that
 * coalesces stores toward a single destination GPU.
 */
class RwqPartition
{
  public:
    RwqPartition(GpuId dst, const FinePackConfig &config);

    /**
     * Buffer one store. Any windows that must flush to make room
     * (window violation with all windows busy, payload budget, or
     * entry capacity) are appended to @p sink; the store then seeds or
     * joins a window. A store crossing a window-grid boundary (only
     * possible when the addressable range is smaller than two cache
     * lines) is split at the boundary.
     *
     * The store must not cross a 128 B line boundary and must not be
     * an atomic (the egress port handles those cases).
     */
    void push(const icn::Store &store,
              std::vector<FlushedPartition> &sink);

    /**
     * Convenience wrapper for the common single-flush case; panics if
     * the push produced more than one flush (use the sink overload
     * when the window can be smaller than a cache line).
     */
    std::optional<FlushedPartition> push(const icn::Store &store);

    /**
     * Flush all windows (synchronization); empty windows contribute
     * nothing. Returns one FlushedPartition per non-empty window,
     * oldest first. The single-window convenience form returns the
     * first (or an empty result).
     */
    void flush(FlushReason reason,
               std::vector<FlushedPartition> &sink);
    FlushedPartition flush(FlushReason reason);

    /**
     * Flush only if @p addr..addr+size overlaps a buffered store (the
     * same-address load / atomic ordering rule). Per the paper, a
     * conflict triggers a full partition flush, like a synchronization
     * would. @return true when a conflict existed.
     */
    bool flushIfConflict(Addr addr, std::uint32_t size,
                         FlushReason reason,
                         std::vector<FlushedPartition> &sink);
    std::optional<FlushedPartition>
    flushIfConflict(Addr addr, std::uint32_t size, FlushReason reason);

    bool empty() const;
    std::size_t entryCount() const;
    std::uint64_t bufferedStores() const;

    /** Number of configured windows. */
    std::uint32_t windowCount() const
    { return static_cast<std::uint32_t>(_windows.size()); }
    const RwqWindow &window(std::uint32_t i) const;

    // Single-window convenience accessors (panic when windowCount()>1).
    std::uint64_t availablePayload() const;
    Addr baseAddrRegister() const;
    Addr windowLo() const;
    Addr windowHi() const;

    /**
     * Attach the pipeline observer (nullptr detaches): storeBuffered
     * and windowFlushed fire in the order the hardware commits them,
     * as GPU @p src, stamped with @p clock's current tick. The caller
     * keeps ownership of both.
     */
    void
    setObserver(icn::PipelineObserver *observer, GpuId src,
                const common::EventQueue &clock)
    {
        _observer = observer;
        _src = src;
        _clock = &clock;
    }

    /** Lifetime statistics. */
    std::uint64_t storesPushed() const { return _stores_pushed; }
    std::uint64_t bytesPushed() const { return _bytes_pushed; }
    std::uint64_t bytesElided() const;
    std::uint64_t flushes(FlushReason reason) const;
    std::uint64_t queueHits() const;

  private:
    void pushPiece(const icn::Store &store,
                   std::vector<FlushedPartition> &sink);
    /** Flush @p window into @p sink, notifying the observer in order. */
    void captureWindow(RwqWindow &window, FlushReason reason,
                       std::vector<FlushedPartition> &sink);
    /** Insert into @p window, notifying the observer in order. */
    void insertObserved(RwqWindow &window,
                        const icn::Store &store);
    void recordFlush(FlushReason reason);
    /** Move @p index to the back of the LRU order (most recent). */
    void touch(std::uint32_t index);

    GpuId _dst;
    FinePackConfig _config;
    icn::PipelineObserver *_observer = nullptr;
    GpuId _src = invalid_gpu;
    const common::EventQueue *_clock = nullptr;

    std::vector<RwqWindow> _windows;
    /** LRU order of window indices; back = most recently used. */
    std::vector<std::uint32_t> _lru;

    std::uint64_t _stores_pushed = 0;
    std::uint64_t _bytes_pushed = 0;
    std::uint64_t _flush_counts[flush_reason_count] = {};
};

/**
 * The complete remote write queue: one partition per peer GPU.
 */
class RemoteWriteQueue
{
  public:
    /**
     * @param self     The GPU this queue belongs to (owns no partition).
     * @param num_gpus Total GPUs in the system.
     */
    RemoteWriteQueue(GpuId self, std::uint32_t num_gpus,
                     const FinePackConfig &config);

    /** Buffer a store for its destination partition. */
    void push(const icn::Store &store,
              std::vector<FlushedPartition> &sink);

    /** Convenience wrapper; see RwqPartition::push(store). */
    std::optional<FlushedPartition> push(const icn::Store &store);

    /** Flush one destination's partition (first window's contents). */
    FlushedPartition flush(GpuId dst, FlushReason reason);

    /** Flush every partition (system-scoped release). */
    std::vector<FlushedPartition> flushAll(FlushReason reason);

    /** Same-address ordering check for loads/atomics. */
    bool flushIfConflict(GpuId dst, Addr addr, std::uint32_t size,
                         FlushReason reason,
                         std::vector<FlushedPartition> &sink);
    std::optional<FlushedPartition>
    flushIfConflict(GpuId dst, Addr addr, std::uint32_t size,
                    FlushReason reason);

    RwqPartition &partition(GpuId dst);
    const RwqPartition &partition(GpuId dst) const;

    /** Attach the pipeline observer to every partition (see above). */
    void setObserver(icn::PipelineObserver *observer,
                     const common::EventQueue &clock);

    GpuId self() const { return _self; }
    std::uint32_t numGpus() const { return _num_gpus; }
    const FinePackConfig &config() const { return _config; }

    /** Total SRAM data bytes across partitions (Table III: 192*128). */
    std::uint64_t totalSramBytes() const;

  private:
    GpuId _self;
    std::uint32_t _num_gpus;
    FinePackConfig _config;
    std::vector<RwqPartition> _partitions; // indexed by dst, self unused
};

} // namespace fp::finepack

#endif // FP_FINEPACK_REMOTE_WRITE_QUEUE_HH
