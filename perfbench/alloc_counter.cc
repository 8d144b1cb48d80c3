#include "alloc_counter.hh"

#include <cstdlib>
#include <new>

namespace {

// A plain counter: the benchmark runs every simulation on its main
// thread and starts no other threads.
std::uint64_t allocations = 0;

void *
countedAlloc(std::size_t size)
{
    ++allocations;
    if (size == 0)
        size = 1;
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t size, std::align_val_t align)
{
    ++allocations;
    auto alignment = static_cast<std::size_t>(align);
    if (alignment < sizeof(void *))
        alignment = sizeof(void *);
    // aligned_alloc wants a size that is a multiple of the alignment.
    std::size_t rounded = (size + alignment - 1) / alignment * alignment;
    if (rounded == 0)
        rounded = alignment;
    if (void *p = std::aligned_alloc(alignment, rounded))
        return p;
    throw std::bad_alloc();
}

} // namespace

namespace fp::perfbench {

std::uint64_t
allocationCount()
{
    return allocations;
}

} // namespace fp::perfbench

void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(size);
    } catch (const std::bad_alloc &) {
        return nullptr;
    }
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(size);
    } catch (const std::bad_alloc &) {
        return nullptr;
    }
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}

void *
operator new[](std::size_t size, std::align_val_t align)
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
