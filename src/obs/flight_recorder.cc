#include "obs/flight_recorder.hh"

#include <algorithm>

#include "check/invariant.hh"
#include "common/logging.hh"
#include "finepack/remote_write_queue.hh"
#include "interconnect/message.hh"

namespace fp::obs {

const char *
toString(FlightKind kind)
{
    switch (kind) {
      case FlightKind::none: return "none";
      case FlightKind::event: return "event";
      case FlightKind::rwq_flush: return "rwq_flush";
      case FlightKind::fabric_inject: return "fabric_inject";
      case FlightKind::invariant: return "invariant";
      case FlightKind::note: return "note";
    }
    return "?";
}

namespace {

std::size_t
roundUpPow2(std::size_t n)
{
    std::size_t p = 2;
    while (p < n)
        p <<= 1;
    return p;
}

} // namespace

FlightRecorder::FlightRecorder(std::size_t capacity)
    : _capacity(roundUpPow2(std::max<std::size_t>(capacity, 2))),
      _mask(_capacity - 1),
      _slots(new Slot[_capacity])
{
    for (auto &count : _kind_counts)
        count.store(0, std::memory_order_relaxed);
}

FlightRecorder::~FlightRecorder()
{
    removeInvariantHooks();
}

void
FlightRecorder::record(FlightKind kind, Tick tick, const char *label,
                       std::uint64_t a, std::uint64_t b)
{
    // Wait-free: claim a ticket, fill the slot with relaxed stores.
    // Readers (watchdog thread, signal handler) validate seq and may
    // observe one torn in-flight slot -- accepted, see header.
    std::uint64_t seq =
        _next.fetch_add(1, std::memory_order_relaxed) + 1;
    Slot &slot = _slots[(seq - 1) & _mask];
    slot.kind.store(static_cast<std::uint8_t>(kind),
                    std::memory_order_relaxed);
    slot.tick.store(tick, std::memory_order_relaxed);
    slot.label.store(label, std::memory_order_relaxed);
    slot.a.store(a, std::memory_order_relaxed);
    slot.b.store(b, std::memory_order_relaxed);
    slot.seq.store(seq, std::memory_order_relaxed);

    _last_tick.store(tick, std::memory_order_relaxed);
    _kind_counts[static_cast<std::size_t>(kind)].fetch_add(
        1, std::memory_order_relaxed);
    if (kind == FlightKind::rwq_flush)
        _rwq_entries.fetch_add(a, std::memory_order_relaxed);
}

void
FlightRecorder::beginEvent(const common::Event &event)
{
    record(FlightKind::event, event.when(), event.description(),
           static_cast<std::uint64_t>(event.priority()),
           event.sequence());
    _last_event_label.store(event.description(),
                            std::memory_order_relaxed);
    _events.fetch_add(1, std::memory_order_relaxed);
    // Publish the queue's progress counters so the watchdog can tell a
    // wedged handler (depth > 0, counters frozen) from idleness. Plain
    // member reads on the sim thread, relaxed stores for the readers.
    if (_queue) {
        _queue_depth.store(_queue->depth(), std::memory_order_relaxed);
        _queue_peak.store(_queue->peakDepth(),
                          std::memory_order_relaxed);
        _queue_scheduled.store(_queue->eventsScheduled(),
                               std::memory_order_relaxed);
        _queue_processed.store(_queue->eventsProcessed(),
                               std::memory_order_relaxed);
    }
}

void
FlightRecorder::endEvent(const common::Event &event)
{
    (void)event;
}

void
FlightRecorder::windowFlushed(GpuId, std::uint32_t,
                              const finepack::FlushedPartition &flushed,
                              finepack::FlushReason reason, Tick tick)
{
    record(FlightKind::rwq_flush, tick, finepack::toString(reason),
           flushed.entries.size(), flushed.dst);
}

void
FlightRecorder::messageInjected(const icn::WireMessage &msg, Tick tick)
{
    record(FlightKind::fabric_inject, tick, "fabric.inject",
           msg.wireBytes(), msg.dst);
}

void
FlightRecorder::beginRun(const common::EventQueue *queue)
{
    fp_assert(queue != nullptr, "flight recorder needs a queue");
    _queue = queue;
    record(FlightKind::note, queue->now(), "recorder.begin_run");
}

void
FlightRecorder::endRun()
{
    if (!_queue)
        return;
    _queue_depth.store(_queue->depth(), std::memory_order_relaxed);
    _queue_peak.store(_queue->peakDepth(), std::memory_order_relaxed);
    _queue_scheduled.store(_queue->eventsScheduled(),
                           std::memory_order_relaxed);
    _queue_processed.store(_queue->eventsProcessed(),
                           std::memory_order_relaxed);
    record(FlightKind::note, _queue->now(), "recorder.end_run");
    _queue = nullptr;
}

std::uint64_t
FlightRecorder::recordsWritten() const
{
    return _next.load(std::memory_order_relaxed);
}

Tick
FlightRecorder::lastTick() const
{
    return _last_tick.load(std::memory_order_relaxed);
}

std::uint64_t
FlightRecorder::eventsSeen() const
{
    return _events.load(std::memory_order_relaxed);
}

const char *
FlightRecorder::lastEventLabel() const
{
    return _last_event_label.load(std::memory_order_relaxed);
}

std::uint64_t
FlightRecorder::kindCount(FlightKind kind) const
{
    return _kind_counts[static_cast<std::size_t>(kind)].load(
        std::memory_order_relaxed);
}

std::uint64_t
FlightRecorder::rwqEntriesFlushed() const
{
    return _rwq_entries.load(std::memory_order_relaxed);
}

std::uint64_t
FlightRecorder::queueDepth() const
{
    return _queue_depth.load(std::memory_order_relaxed);
}

std::uint64_t
FlightRecorder::queuePeakDepth() const
{
    return _queue_peak.load(std::memory_order_relaxed);
}

std::uint64_t
FlightRecorder::queueScheduled() const
{
    return _queue_scheduled.load(std::memory_order_relaxed);
}

std::uint64_t
FlightRecorder::queueProcessed() const
{
    return _queue_processed.load(std::memory_order_relaxed);
}

std::uint64_t
FlightRecorder::nextSeq() const
{
    return _next.load(std::memory_order_relaxed);
}

std::vector<FlightRecorder::Record>
FlightRecorder::snapshot() const
{
    std::vector<Record> out;
    std::uint64_t next = nextSeq();
    std::uint64_t first =
        next > _capacity ? next - _capacity + 1 : 1;
    out.reserve(next >= first ? next - first + 1 : 0);
    for (std::uint64_t seq = first; seq <= next; ++seq) {
        const Slot &slot = _slots[(seq - 1) & _mask];
        Record rec;
        rec.seq = slot.seq.load(std::memory_order_relaxed);
        if (rec.seq != seq)
            continue; // overwritten (or still in flight) -- drop it
        rec.tick = slot.tick.load(std::memory_order_relaxed);
        rec.label = slot.label.load(std::memory_order_relaxed);
        rec.a = slot.a.load(std::memory_order_relaxed);
        rec.b = slot.b.load(std::memory_order_relaxed);
        rec.kind = static_cast<FlightKind>(
            slot.kind.load(std::memory_order_relaxed));
        out.push_back(rec);
    }
    return out;
}

std::string
FlightRecorder::describeContext(const FlightRecorder &recorder)
{
    const char *label = recorder.lastEventLabel();
    if (!label)
        return {};
    return std::string(" while executing '") + label + "' at tick " +
           std::to_string(recorder.lastTick()) + " (event #" +
           std::to_string(recorder.eventsSeen()) + ")";
}

void
FlightRecorder::installInvariantHooks()
{
    check::InvariantRegistry::instance().setCheckHook(
        [](void *self, const char *name) {
            auto *recorder = static_cast<FlightRecorder *>(self);
            recorder->record(FlightKind::invariant,
                             recorder->lastTick(), name);
        },
        this);
    check::InvariantRegistry::instance().setContextHook(
        [](void *self) {
            return describeContext(
                *static_cast<const FlightRecorder *>(self));
        },
        this);
    _hooks_installed = true;
}

void
FlightRecorder::removeInvariantHooks()
{
    if (!_hooks_installed)
        return;
    check::InvariantRegistry::instance().setCheckHook(nullptr, nullptr);
    check::InvariantRegistry::instance().setContextHook(nullptr,
                                                       nullptr);
    _hooks_installed = false;
}

} // namespace fp::obs
