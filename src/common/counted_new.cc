/**
 * @file
 * Replacement global operator new family that counts every heap
 * allocation into common::heap_allocation_count (one relaxed atomic
 * increment) and forwards to malloc / aligned_alloc.
 *
 * Linked into each executable of the root build, not into the fp_sim
 * libraries (see common/heap_allocations.hh): perfbench builds the same
 * libraries and links its own replacement, and a program may hold only
 * one.
 */

#include <cstdlib>
#include <new>

#include "common/heap_allocations.hh"

namespace {

void *
countedMalloc(std::size_t size) noexcept
{
    fp::common::heap_allocation_count.fetch_add(1,
                                                std::memory_order_relaxed);
    return std::malloc(size == 0 ? 1 : size);
}

void *
countedAlignedAlloc(std::size_t size, std::align_val_t align) noexcept
{
    fp::common::heap_allocation_count.fetch_add(1,
                                                std::memory_order_relaxed);
    std::size_t alignment = static_cast<std::size_t>(align);
    if (alignment < sizeof(void *))
        alignment = sizeof(void *);
    // aligned_alloc wants a size that is a nonzero multiple of the
    // alignment.
    std::size_t rounded = (size + alignment - 1) / alignment * alignment;
    return std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded);
}

void *
orThrow(void *p)
{
    if (!p)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *operator new(std::size_t size) { return orThrow(countedMalloc(size)); }
void *operator new[](std::size_t size) { return orThrow(countedMalloc(size)); }

void *
operator new(std::size_t size, std::align_val_t align)
{
    return orThrow(countedAlignedAlloc(size, align));
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return orThrow(countedAlignedAlloc(size, align));
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return countedMalloc(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return countedMalloc(size);
}

void *
operator new(std::size_t size, std::align_val_t align,
             const std::nothrow_t &) noexcept
{
    return countedAlignedAlloc(size, align);
}

void *
operator new[](std::size_t size, std::align_val_t align,
               const std::nothrow_t &) noexcept
{
    return countedAlignedAlloc(size, align);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
