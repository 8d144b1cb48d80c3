#include "finepack/write_combine.hh"

#include <algorithm>

#include "common/bitutil.hh"
#include "common/logging.hh"

namespace fp::finepack {

WriteCombineBuffer::WriteCombineBuffer(GpuId src, GpuId dst,
                                       std::uint32_t num_lines,
                                       std::uint32_t line_bytes)
    : _src(src), _dst(dst), _num_lines(num_lines), _line_bytes(line_bytes)
{
    fp_assert(num_lines > 0, "write-combine buffer needs capacity");
    fp_assert(common::isPowerOfTwo(line_bytes), "line size power of two");
    fp_assert(line_bytes <= max_entry_bytes,
              "line size exceeds the inline entry");
}

std::optional<WcLine>
WriteCombineBuffer::push(const icn::Store &store)
{
    fp_assert(store.dst == _dst, "store routed to wrong WC buffer");
    fp_assert(store.size > 0 && store.size <= _line_bytes,
              "store size out of range");
    fp_assert(common::alignDown(store.begin(), _line_bytes) ==
                  common::alignDown(store.end() - 1, _line_bytes),
              "store crosses a line boundary");

    ++_stores_pushed;

    Addr line_addr = common::alignDown(store.addr, _line_bytes);
    auto offset = static_cast<std::uint32_t>(store.addr - line_addr);

    std::optional<WcLine> evicted;

    auto it = _lines.find(line_addr);
    if (it == _lines.end()) {
        if (_lines.size() >= _num_lines) {
            // Evict the least recently written line.
            Addr victim = _lru.back();
            _lru.pop_back();
            auto vit = _lines.find(victim);
            fp_assert(vit != _lines.end(), "LRU bookkeeping broken");
            evicted = std::move(vit->second.line);
            _lines.erase(vit);
        }
        WcLine line;
        line.entry.line_addr = line_addr;
        _lru.push_front(line_addr);
        it = _lines.emplace(line_addr, Slot{std::move(line), _lru.begin()})
                 .first;
    } else {
        // Move to MRU position.
        _lru.erase(it->second.lru_it);
        _lru.push_front(line_addr);
        it->second.lru_it = _lru.begin();
    }

    Slot &slot = it->second;
    _bytes_elided += slot.line.entry.write(
        offset, store.size, store.data.empty() ? nullptr : store.data.data());
    ++slot.line.folded;

    return evicted;
}

std::vector<WcLine>
WriteCombineBuffer::flushAll()
{
    std::vector<WcLine> lines;
    lines.reserve(_lines.size());
    // fp-lint: allow(unordered-iteration) lines are sorted by address below
    for (auto &[addr, slot] : _lines) {
        (void)addr;
        lines.push_back(std::move(slot.line));
    }
    _lines.clear();
    _lru.clear();
    std::sort(lines.begin(), lines.end(),
              [](const WcLine &a, const WcLine &b) {
                  return a.entry.line_addr < b.entry.line_addr;
              });
    return lines;
}

icn::WireMessagePtr
WriteCombineBuffer::lineToMessage(const WcLine &line,
                                  const icn::PcieProtocol &protocol) const
{
    auto msg = icn::makeWireMessage();
    msg->kind = icn::MessageKind::write_combine_line;
    msg->src = _src;
    msg->dst = _dst;
    // The whole line travels as payload; unwritten bytes are waste.
    msg->payload_bytes = _line_bytes;
    msg->header_bytes = protocol.tlpOverhead();
    msg->data_bytes = line.entry.validBytes();
    msg->packed_store_count = line.folded;

    // The wire carries the whole line, but only the written bytes are
    // semantically delivered (the receiver applies byte enables); emit
    // one store per contiguous run so functional state stays correct.
    const QueueEntry &entry = line.entry;
    msg->stores.reserve(entry.runCount());
    entry.forEachRun([&](std::uint32_t start, std::uint32_t len) {
        icn::Store store(entry.line_addr + start, len, _src, _dst);
        if (entry.has_data) {
            store.data.assign(entry.data.begin() + start,
                              entry.data.begin() + start + len);
        }
        msg->stores.push_back(std::move(store));
    });
    return msg;
}

} // namespace fp::finepack
