#include "obs/latency.hh"

#include <utility>

#include "check/invariant.hh"
#include "common/logging.hh"
#include "finepack/remote_write_queue.hh"
#include "interconnect/message.hh"

namespace fp::obs {

using finepack::flush_reason_count;

std::size_t
latencySizeClass(std::uint32_t size)
{
    if (size <= 4)
        return 0;
    if (size <= 8)
        return 1;
    if (size <= 16)
        return 2;
    if (size <= 32)
        return 3;
    if (size <= 64)
        return 4;
    return 5;
}

const char *
latencySizeClassName(std::size_t i)
{
    static const char *names[latency_size_class_count] = {
        "le4", "le8", "le16", "le32", "le64", "le128",
    };
    fp_assert(i < latency_size_class_count, "bad latency size class");
    return names[i];
}

LatencyCollector::LatencyCollector()
{
    // Power-of-two edges from 4 ns to 2^36 ps (~69 ms), plus a zero
    // bucket for same-tick stages. Percentile interpolation clamps to
    // the observed min/max, so coarse upper buckets stay accurate.
    _edges.push_back(0.0);
    for (int k = 12; k <= 36; ++k)
        _edges.push_back(static_cast<double>(Tick{1} << k));
    beginRun(0);
}

void
LatencyCollector::initHistogram(common::Histogram &hist)
{
    hist.init(_edges);
}

std::uint64_t
LatencyCollector::messages() const
{
    fp::MutexLock lock(_mu);
    return static_cast<std::uint64_t>(_messages.value());
}

std::uint64_t
LatencyCollector::stores() const
{
    fp::MutexLock lock(_mu);
    return static_cast<std::uint64_t>(_stores.value());
}

std::uint64_t
LatencyCollector::violations() const
{
    fp::MutexLock lock(_mu);
    return static_cast<std::uint64_t>(_violations.value());
}

void
LatencyCollector::beginRun(std::uint32_t num_gpus)
{
    fp::MutexLock lock(_mu);
    rebuildLocked(num_gpus);
}

void
LatencyCollector::rebuildLocked(std::uint32_t num_gpus)
{
    _dst.clear();
    _group.reset();
    _messages.reset();
    _stores.reset();
    _violations.reset();
    _num_gpus = num_gpus;
    _buffered.assign(static_cast<std::size_t>(num_gpus) * num_gpus, {});
    _flushed.assign(static_cast<std::size_t>(num_gpus) * num_gpus, {});
    _in_flight.clear();

    initHistogram(_residency);
    initHistogram(_serialization);
    initHistogram(_propagation);
    initHistogram(_ingress_wait);
    initHistogram(_total);
    _residency_by_reason.assign(flush_reason_count, common::Histogram{});
    for (auto &hist : _residency_by_reason)
        initHistogram(hist);
    _total_by_size.assign(latency_size_class_count, common::Histogram{});
    for (auto &hist : _total_by_size)
        initHistogram(hist);

    _group = std::make_unique<common::StatGroup>("latency");
    _group->registerScalar("messages", &_messages,
                           "wire messages with a full milestone trail");
    _group->registerScalar("stores", &_stores,
                           "remote stores with per-store issue stamps");
    _group->registerScalar("milestone_violations", &_violations,
                           "messages dropped: missing or non-monotonic "
                           "milestones");
    _group->registerHistogram("residency_ticks", &_residency,
                              "RWQ coalescing residency per store "
                              "(fabric inject - issue)");
    _group->registerHistogram("serialization_ticks", &_serialization,
                              "source queueing + first-link TX "
                              "(tx end - inject)");
    _group->registerHistogram("propagation_ticks", &_propagation,
                              "switch + downlink flight "
                              "(ingress arrival - tx end)");
    _group->registerHistogram("ingress_wait_ticks", &_ingress_wait,
                              "ingress HBM drain queueing "
                              "(commit - arrival)");
    _group->registerHistogram("total_ticks", &_total,
                              "store end-to-end latency "
                              "(commit - issue)");
    for (std::size_t r = 0; r < flush_reason_count; ++r) {
        _group->registerHistogram(
            std::string("residency_ticks.")
                + finepack::toString(static_cast<finepack::FlushReason>(r)),
            &_residency_by_reason[r],
            "coalescing residency for this flush trigger");
    }
    for (std::size_t s = 0; s < latency_size_class_count; ++s) {
        _group->registerHistogram(
            std::string("total_ticks.") + latencySizeClassName(s),
            &_total_by_size[s],
            "store end-to-end latency for this size class");
    }

    _dst.resize(num_gpus);
    for (std::uint32_t g = 0; g < num_gpus; ++g) {
        auto &dst = _dst[g];
        initHistogram(dst.residency);
        initHistogram(dst.serialization);
        initHistogram(dst.propagation);
        initHistogram(dst.ingress_wait);
        initHistogram(dst.total);
        dst.group = std::make_unique<common::StatGroup>(
            "latency.dst" + std::to_string(g));
        dst.group->registerHistogram("residency_ticks", &dst.residency,
                                     "coalescing residency per store");
        dst.group->registerHistogram("serialization_ticks",
                                     &dst.serialization,
                                     "source queueing + first-link TX");
        dst.group->registerHistogram("propagation_ticks", &dst.propagation,
                                     "switch + downlink flight");
        dst.group->registerHistogram("ingress_wait_ticks", &dst.ingress_wait,
                                     "ingress HBM drain queueing");
        dst.group->registerHistogram("total_ticks", &dst.total,
                                     "store end-to-end latency");
    }
}

std::size_t
LatencyCollector::pairIndex(GpuId src, GpuId dst) const
{
    fp_assert(src < _num_gpus && dst < _num_gpus,
              "latency milestone outside the run: ", src, " -> ", dst);
    return static_cast<std::size_t>(src) * _num_gpus + dst;
}

void
LatencyCollector::storeBuffered(GpuId src, GpuId dst, std::uint32_t window,
                                const icn::Store &store, bool, std::uint32_t,
                                Tick tick)
{
    fp::MutexLock lock(_mu);
    auto &windows = _buffered[pairIndex(src, dst)];
    if (windows.size() <= window)
        windows.resize(window + 1);
    windows[window].push_back({tick, store.size});
}

void
LatencyCollector::windowFlushed(GpuId src, std::uint32_t window,
                                const finepack::FlushedPartition &flushed,
                                finepack::FlushReason reason, Tick)
{
    fp::MutexLock lock(_mu);
    std::size_t pair = pairIndex(src, flushed.dst);
    Trail trail;
    trail.reason = reason;
    auto &windows = _buffered[pair];
    if (window < windows.size())
        trail.stores = std::exchange(windows[window], {});
    _flushed[pair].push_back(std::move(trail));
}

void
LatencyCollector::messageInjected(const icn::WireMessage &msg, Tick tick)
{
    fp::MutexLock lock(_mu);
    Trail trail;
    if (msg.kind == icn::MessageKind::finepack_packet) {
        auto &fifo = _flushed[pairIndex(msg.src, msg.dst)];
        if (!fifo.empty()) {
            trail = std::move(fifo.front());
            fifo.pop_front();
        }
    } else if (msg.kind == icn::MessageKind::raw_store ||
               msg.kind == icn::MessageKind::atomic_op) {
        for (const icn::Store &store : msg.stores)
            trail.stores.push_back({tick, store.size});
    }
    trail.created = tick;
    _in_flight[msg.seq] = std::move(trail);
}

void
LatencyCollector::linkTransmit(std::uint32_t, const icn::WireMessage &msg,
                               Tick, Tick start, Tick tx_ticks)
{
    fp::MutexLock lock(_mu);
    // The first link a message crosses (its source uplink) stamps the
    // serialization milestones.
    auto it = _in_flight.find(msg.seq);
    if (it == _in_flight.end() || it->second.tx_start != max_tick)
        return;
    it->second.tx_start = start;
    it->second.tx_end = start + tx_ticks;
}

void
LatencyCollector::messageCommitted(const icn::WireMessage &msg,
                                   Tick arrival, Tick, Tick commit)
{
    fp::MutexLock lock(_mu);
    auto it = _in_flight.find(msg.seq);
    FP_INVARIANT(it != _in_flight.end() && it->second.created <= arrival,
                 "latency-milestone-order",
                 "message ", msg.seq, " arrived at ", arrival,
                 " without a monotonic inject milestone");
    if (it == _in_flight.end()) {
        ++_violations;
        return;
    }
    Trail t = std::move(it->second);
    _in_flight.erase(it);

    bool monotonic = t.tx_start != max_tick && t.created <= t.tx_start
        && t.tx_start <= t.tx_end && t.tx_end <= arrival
        && arrival <= commit;
    if (!monotonic) {
        ++_violations;
        return;
    }

    GpuId dst = msg.dst;
    DstStats *per_dst = dst < _dst.size() ? &_dst[dst] : nullptr;

    auto serialization = static_cast<double>(t.tx_end - t.created);
    auto propagation = static_cast<double>(arrival - t.tx_end);
    auto ingress_wait = static_cast<double>(commit - arrival);
    _serialization.sample(serialization);
    _propagation.sample(propagation);
    _ingress_wait.sample(ingress_wait);
    if (per_dst) {
        per_dst->serialization.sample(serialization);
        per_dst->propagation.sample(propagation);
        per_dst->ingress_wait.sample(ingress_wait);
    }
    ++_messages;

    for (const Issue &issue : t.stores) {
        if (issue.tick > t.created) {
            ++_violations;
            continue;
        }
        auto residency = static_cast<double>(t.created - issue.tick);
        auto total = static_cast<double>(commit - issue.tick);
        _residency.sample(residency);
        _total.sample(total);
        if (t.reason)
            _residency_by_reason[static_cast<std::size_t>(*t.reason)]
                .sample(residency);
        _total_by_size[latencySizeClass(issue.size)].sample(total);
        if (per_dst) {
            per_dst->residency.sample(residency);
            per_dst->total.sample(total);
        }
        ++_stores;
    }
}

} // namespace fp::obs
