/**
 * @file
 * Small bit-manipulation and alignment helpers used throughout the
 * interconnect and FinePack models.
 */

#ifndef FP_COMMON_BITUTIL_HH
#define FP_COMMON_BITUTIL_HH

#include <array>
#include <bit>
#include <cstdint>

#include "common/logging.hh"
#include "common/types.hh"

namespace fp::common {

/** True iff @p value is a power of two (zero is not). */
constexpr bool
isPowerOfTwo(std::uint64_t value)
{
    return value != 0 && (value & (value - 1)) == 0;
}

/** Round @p value down to a multiple of @p align (power of two). */
constexpr std::uint64_t
alignDown(std::uint64_t value, std::uint64_t align)
{
    return value & ~(align - 1);
}

/** Round @p value up to a multiple of @p align (power of two). */
constexpr std::uint64_t
alignUp(std::uint64_t value, std::uint64_t align)
{
    return (value + align - 1) & ~(align - 1);
}

/** Round @p value up to a multiple of arbitrary (non-zero) @p unit. */
constexpr std::uint64_t
roundUpTo(std::uint64_t value, std::uint64_t unit)
{
    return ((value + unit - 1) / unit) * unit;
}

/** Ceiling division. */
constexpr std::uint64_t
divCeil(std::uint64_t a, std::uint64_t b)
{
    return (a + b - 1) / b;
}

/** Number of bits needed to represent values in [0, n). */
constexpr unsigned
bitsFor(std::uint64_t n)
{
    if (n <= 1)
        return 0;
    return 64u - static_cast<unsigned>(std::countl_zero(n - 1));
}

/** Extract bits [lo, hi] (inclusive) of @p value. */
constexpr std::uint64_t
bits(std::uint64_t value, unsigned hi, unsigned lo)
{
    std::uint64_t mask = hi >= 63 ? ~0ull : ((1ull << (hi + 1)) - 1);
    return (value & mask) >> lo;
}

/**
 * Number of set bits in @p value: a branch-free SWAR count that
 * inlines. The baseline x86-64 target has no popcnt instruction, so
 * std::popcount compiles to a library call there.
 */
constexpr unsigned
popcount64(std::uint64_t value)
{
    value -= (value >> 1) & 0x5555555555555555ull;
    value = (value & 0x3333333333333333ull) +
            ((value >> 2) & 0x3333333333333333ull);
    value = (value + (value >> 4)) & 0x0f0f0f0f0f0f0f0full;
    return static_cast<unsigned>((value * 0x0101010101010101ull) >> 56);
}

/** A mask with the low @p n bits set. */
constexpr std::uint64_t
mask(unsigned n)
{
    return n >= 64 ? ~0ull : (1ull << n) - 1;
}

/**
 * The two words of a 128-bit byte mask (one bit per byte of a 128 B
 * line, bit i of word i / 64) that enable bytes [start, start + len),
 * start + len <= 128.
 */
constexpr std::array<std::uint64_t, 2>
lineRangeWords(std::uint32_t start, std::uint32_t len)
{
    const std::uint32_t end = start + len;
    auto below = [](std::uint32_t bit, std::uint32_t word) {
        return bit >= word * 64 + 64 ? ~std::uint64_t{0}
               : bit > word * 64     ? mask(bit - word * 64)
                                     : std::uint64_t{0};
    };
    return {below(end, 0) & ~below(start, 0),
            below(end, 1) & ~below(start, 1)};
}

} // namespace fp::common

#endif // FP_COMMON_BITUTIL_HH
