#include "trace/trace.hh"

#include <algorithm>
#include <bit>
#include <istream>
#include <ostream>

#include "common/bitutil.hh"
#include "common/logging.hh"

namespace fp::trace {

std::uint64_t
WorkloadTrace::totalRemoteStores() const
{
    std::uint64_t total = 0;
    for (const auto &iter : iterations)
        for (const auto &gpu : iter.per_gpu)
            total += gpu.remote_stores.size();
    return total;
}

std::uint64_t
WorkloadTrace::totalRemoteStoreBytes() const
{
    std::uint64_t total = 0;
    for (const auto &iter : iterations)
        for (const auto &gpu : iter.per_gpu)
            for (const auto &store : gpu.remote_stores)
                total += store.size;
    return total;
}

void
IntervalSet::add(Addr base, std::uint64_t size)
{
    if (size == 0)
        return;
    _spans.emplace_back(base, base + size);
    _dirty = true;
}

void
IntervalSet::normalize()
{
    if (!_dirty)
        return;
    std::sort(_spans.begin(), _spans.end());
    std::vector<std::pair<Addr, Addr>> merged;
    for (const auto &span : _spans) {
        if (!merged.empty() && span.first <= merged.back().second) {
            merged.back().second =
                std::max(merged.back().second, span.second);
        } else {
            merged.push_back(span);
        }
    }
    _spans = std::move(merged);
    _dirty = false;
}

std::uint64_t
IntervalSet::totalBytes()
{
    normalize();
    std::uint64_t total = 0;
    for (const auto &[begin, end] : _spans)
        total += end - begin;
    return total;
}

std::uint64_t
IntervalSet::intersectBytes(IntervalSet &other)
{
    normalize();
    other.normalize();
    std::uint64_t total = 0;
    std::size_t i = 0, j = 0;
    while (i < _spans.size() && j < other._spans.size()) {
        Addr lo = std::max(_spans[i].first, other._spans[j].first);
        Addr hi = std::min(_spans[i].second, other._spans[j].second);
        if (lo < hi)
            total += hi - lo;
        if (_spans[i].second < other._spans[j].second)
            ++i;
        else
            ++j;
    }
    return total;
}

std::size_t
IntervalSet::intervalCount()
{
    normalize();
    return _spans.size();
}

bool
IntervalSet::contains(Addr addr)
{
    normalize();
    auto it = std::upper_bound(
        _spans.begin(), _spans.end(), addr,
        [](Addr a, const std::pair<Addr, Addr> &span) {
            return a < span.first;
        });
    if (it == _spans.begin())
        return false;
    --it;
    return addr >= it->first && addr < it->second;
}

const std::vector<std::pair<Addr, Addr>> &
IntervalSet::intervals()
{
    normalize();
    return _spans;
}

namespace {

constexpr unsigned line_shift = 7; // 128 B granules
constexpr std::uint64_t line_bytes = std::uint64_t{1} << line_shift;

/** Fibonacci hash of (dst, line) onto a table of @p size slots. */
std::size_t
slotHash(GpuId dst, Addr line, std::size_t size)
{
    const std::uint64_t key = line + std::uint64_t{dst} * 0xc2b2ae3d27d4eb4full;
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >>
                                    (std::countl_zero(size) + 1));
}

} // namespace

void
CoverageLedger::grow()
{
    std::vector<Granule> old(_table.size() * 2);
    old.swap(_table);
    for (const Granule &g : old)
        if (g.dst != invalid_gpu)
            _table[find(g.dst, g.line)] = g;
}

std::size_t
CoverageLedger::find(GpuId dst, Addr line) const
{
    const std::size_t wrap = _table.size() - 1;
    std::size_t slot = slotHash(dst, line, _table.size());
    while (_table[slot].dst != invalid_gpu &&
           (_table[slot].dst != dst || _table[slot].line != line))
        slot = (slot + 1) & wrap;
    return slot;
}

void
CoverageLedger::cover(GpuId dst, Addr base, std::uint64_t size, Mask mask)
{
    const Addr end = base + size;
    for (Addr at = base; at < end;) {
        const Addr line = at >> line_shift;
        const auto offset = static_cast<std::uint32_t>(at & (line_bytes - 1));
        const auto len = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(end - at, line_bytes - offset));
        at += len;
        Granule *g = &_table[_last];
        if (g->line != line || g->dst != dst) {
            if (2 * (_used + 1) > _table.size())
                grow();
            _last = find(dst, line);
            g = &_table[_last];
            if (g->dst == invalid_gpu) {
                g->dst = dst;
                g->line = line;
                ++_used;
            }
        }
        const auto words = common::lineRangeWords(offset, len);
        (g->*mask)[0] |= words[0];
        (g->*mask)[1] |= words[1];
    }
}

const std::vector<UpdateSummary> &
CoverageLedger::summarize(const IterationWork &iter, std::uint32_t num_gpus)
{
    std::fill(_table.begin(), _table.end(), Granule{});
    _used = 0;
    _summaries.assign(num_gpus, UpdateSummary{});

    const auto consumers = std::min<std::size_t>(iter.consumed.size(),
                                                 num_gpus);
    for (GpuId g = 0; g < consumers; ++g)
        for (const auto &range : iter.consumed[g])
            cover(g, range.base, range.size, &Granule::consumed);
    for (const auto &gpu : iter.per_gpu)
        for (const auto &store : gpu.remote_stores)
            if (store.dst < num_gpus)
                cover(store.dst, store.addr, store.size, &Granule::written);

    for (const Granule &g : _table) {
        if (g.dst == invalid_gpu)
            continue;
        UpdateSummary &summary = _summaries.at(g.dst);
        summary.unique_bytes += common::popcount64(g.written[0]) +
                                common::popcount64(g.written[1]);
        summary.useful_bytes +=
            common::popcount64(g.written[0] & g.consumed[0]) +
            common::popcount64(g.written[1] & g.consumed[1]);
    }
    return _summaries;
}

UpdateSummary
summarizeTrace(const WorkloadTrace &trace)
{
    CoverageLedger ledger;
    UpdateSummary total;
    for (const auto &iter : trace.iterations) {
        for (const UpdateSummary &summary :
             ledger.summarize(iter, trace.num_gpus)) {
            total.unique_bytes += summary.unique_bytes;
            total.useful_bytes += summary.useful_bytes;
        }
    }
    return total;
}

namespace {

constexpr std::uint64_t trace_magic = 0x46504b5452414345ull; // "FPKTRACE"

template <typename T>
void
writePod(std::ostream &os, const T &value)
{
    os.write(reinterpret_cast<const char *>(&value), sizeof(T));
}

template <typename T>
T
readPod(std::istream &is)
{
    T value{};
    is.read(reinterpret_cast<char *>(&value), sizeof(T));
    fp_assert(static_cast<bool>(is), "truncated trace stream");
    return value;
}

void
writeString(std::ostream &os, const std::string &s)
{
    writePod<std::uint32_t>(os, static_cast<std::uint32_t>(s.size()));
    os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string
readString(std::istream &is)
{
    auto len = readPod<std::uint32_t>(is);
    std::string s(len, '\0');
    is.read(s.data(), len);
    fp_assert(static_cast<bool>(is), "truncated trace stream");
    return s;
}

} // namespace

void
writeTrace(const WorkloadTrace &trace, std::ostream &os)
{
    writePod(os, trace_magic);
    writeString(os, trace.workload);
    writeString(os, trace.comm_pattern);
    writePod(os, trace.num_gpus);
    writePod<std::uint32_t>(os, trace.numIterations());

    for (const auto &iter : trace.iterations) {
        writePod<std::uint32_t>(os, iter.numGpus());
        for (const auto &gpu : iter.per_gpu) {
            writePod(os, gpu.flops);
            writePod(os, gpu.local_bytes);
            writePod(os, gpu.dma_extra_local_bytes);
            writePod<std::uint64_t>(os, gpu.remote_stores.size());
            for (const auto &store : gpu.remote_stores) {
                writePod(os, store.addr);
                writePod(os, store.size);
                writePod(os, store.src);
                writePod(os, store.dst);
                writePod<std::uint8_t>(os, store.is_atomic ? 1 : 0);
            }
            writePod<std::uint64_t>(os, gpu.dma_copies.size());
            for (const auto &copy : gpu.dma_copies) {
                writePod(os, copy.dst);
                writePod(os, copy.range.base);
                writePod(os, copy.range.size);
            }
        }
        writePod<std::uint32_t>(os,
                                static_cast<std::uint32_t>(
                                    iter.consumed.size()));
        for (const auto &ranges : iter.consumed) {
            writePod<std::uint64_t>(os, ranges.size());
            for (const auto &range : ranges) {
                writePod(os, range.base);
                writePod(os, range.size);
            }
        }
    }

    writePod<std::uint32_t>(os, static_cast<std::uint32_t>(
                                    trace.single_gpu_work.size()));
    for (const auto &[flops, bytes] : trace.single_gpu_work) {
        writePod(os, flops);
        writePod(os, bytes);
    }
}

WorkloadTrace
readTrace(std::istream &is)
{
    auto magic = readPod<std::uint64_t>(is);
    fp_assert(magic == trace_magic, "bad trace magic");

    WorkloadTrace trace;
    trace.workload = readString(is);
    trace.comm_pattern = readString(is);
    trace.num_gpus = readPod<std::uint32_t>(is);
    auto num_iters = readPod<std::uint32_t>(is);

    trace.iterations.resize(num_iters);
    for (auto &iter : trace.iterations) {
        auto num_gpus = readPod<std::uint32_t>(is);
        iter.per_gpu.resize(num_gpus);
        for (auto &gpu : iter.per_gpu) {
            gpu.flops = readPod<double>(is);
            gpu.local_bytes = readPod<std::uint64_t>(is);
            gpu.dma_extra_local_bytes = readPod<std::uint64_t>(is);
            auto num_stores = readPod<std::uint64_t>(is);
            gpu.remote_stores.resize(num_stores);
            for (auto &store : gpu.remote_stores) {
                store.addr = readPod<Addr>(is);
                store.size = readPod<std::uint32_t>(is);
                store.src = readPod<GpuId>(is);
                store.dst = readPod<GpuId>(is);
                store.is_atomic = readPod<std::uint8_t>(is) != 0;
            }
            auto num_copies = readPod<std::uint64_t>(is);
            gpu.dma_copies.resize(num_copies);
            for (auto &copy : gpu.dma_copies) {
                copy.dst = readPod<GpuId>(is);
                copy.range.base = readPod<Addr>(is);
                copy.range.size = readPod<std::uint64_t>(is);
            }
        }
        auto num_consumed = readPod<std::uint32_t>(is);
        iter.consumed.resize(num_consumed);
        for (auto &ranges : iter.consumed) {
            auto num_ranges = readPod<std::uint64_t>(is);
            ranges.resize(num_ranges);
            for (auto &range : ranges) {
                range.base = readPod<Addr>(is);
                range.size = readPod<std::uint64_t>(is);
            }
        }
    }

    auto num_work = readPod<std::uint32_t>(is);
    trace.single_gpu_work.resize(num_work);
    for (auto &[flops, bytes] : trace.single_gpu_work) {
        flops = readPod<double>(is);
        bytes = readPod<std::uint64_t>(is);
    }
    return trace;
}

} // namespace fp::trace
