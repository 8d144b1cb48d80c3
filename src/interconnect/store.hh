/**
 * @file
 * The store record: the unit of fine-grained peer-to-peer communication.
 *
 * A Store represents one memory-write access as it egresses the source
 * GPU's L1 cache (after intra-warp coalescing), destined for a peer GPU's
 * memory. Addresses are device-local physical addresses on the destination
 * GPU; the destination id is carried separately.
 */

#ifndef FP_ICN_STORE_HH
#define FP_ICN_STORE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace fp::icn {

/**
 * A single remote store as seen at the GPU's network egress port.
 * alignas(16) pads it to 64 B: vectors of one or two 56 B stores fall
 * in glibc's fastbins and replay sssp write-combine ~10% slower.
 */
struct alignas(16) Store
{
    /** Device-local byte address on the destination GPU. */
    Addr addr = 0;
    /** Number of bytes written (1..128 after L1 coalescing). */
    std::uint32_t size = 0;
    /** Issuing GPU. */
    GpuId src = invalid_gpu;
    /** GPU whose memory is written. */
    GpuId dst = invalid_gpu;
    /**
     * Optional payload bytes (size() == 0 or == size). Timing-only
     * simulations omit the data; functional tests carry it so that
     * coalescing/packetization round trips can be checked for value
     * preservation.
     */
    std::vector<std::uint8_t> data;
    /** Remote atomics bypass coalescing and flush aliasing queue entries. */
    bool is_atomic = false;

    Store() = default;

    Store(Addr a, std::uint32_t s, GpuId src_gpu, GpuId dst_gpu)
        : addr(a), size(s), src(src_gpu), dst(dst_gpu)
    {}

    /** Inclusive first byte / exclusive last byte convenience. */
    Addr begin() const { return addr; }
    Addr end() const { return addr + size; }

    bool
    overlaps(const Store &other) const
    {
        return begin() < other.end() && other.begin() < end();
    }
};

/** A contiguous address range, used for DMA copies and consumption sets. */
struct AddrRange
{
    Addr base = 0;
    std::uint64_t size = 0;

    Addr begin() const { return base; }
    Addr end() const { return base + size; }

    bool contains(Addr a) const { return a >= base && a < base + size; }

    bool
    overlaps(const AddrRange &other) const
    {
        return begin() < other.end() && other.begin() < end();
    }
};

} // namespace fp::icn

#endif // FP_ICN_STORE_HH
