#include "stage_replay.hh"

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "alloc_counter.hh"
#include "common/bitutil.hh"
#include "common/event_queue.hh"
#include "common/logging.hh"
#include "finepack/packetizer.hh"
#include "finepack/remote_write_queue.hh"
#include "finepack/write_combine.hh"
#include "gpu/ingress_port.hh"
#include "interconnect/protocol.hh"
#include "interconnect/topology.hh"

namespace fp::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/**
 * Adds the time and allocations of its own lifetime to a Span; with
 * @p enabled false it compiles to nothing, which gives the replay
 * without spans that bench.tracing_overhead_frac compares against.
 */
template <bool enabled>
class SpanScope
{
  public:
    explicit SpanScope(Span &span)
        : _span(span), _allocs(allocationCount()), _start(Clock::now())
    {}

    ~SpanScope()
    {
        _span.ns += std::chrono::duration<double, std::nano>(
                        Clock::now() - _start)
                        .count();
        _span.allocs += allocationCount() - _allocs;
    }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    Span &_span;
    std::uint64_t _allocs;
    Clock::time_point _start;
};

template <>
class SpanScope<false>
{
  public:
    explicit SpanScope(Span &) {}
};

/**
 * Call @p fn on each line-contained piece of @p store, split at line
 * boundaries the way EgressPort::issueStore splits it.
 */
template <typename Fn>
void
forEachPiece(const icn::Store &store, std::uint32_t line, Fn &&fn)
{
    fp_assert(!store.is_atomic,
              "the stage replay models no remote atomics");
    if (common::alignDown(store.begin(), line) ==
        common::alignDown(store.end() - 1, line)) {
        fn(store);
        return;
    }
    Addr begin = store.begin();
    while (begin < store.end()) {
        Addr piece_end = std::min<Addr>(
            store.end(), common::alignDown(begin, line) + line);
        icn::Store piece = store;
        piece.addr = begin;
        piece.size = static_cast<std::uint32_t>(piece_end - begin);
        if (!store.data.empty()) {
            auto off = static_cast<std::size_t>(begin - store.begin());
            piece.data.assign(store.data.begin() + off,
                              store.data.begin() + off + piece.size);
        }
        fn(piece);
        begin = piece_end;
    }
}

/** One source GPU's egress-side layers. */
struct SourceLayers
{
    finepack::RemoteWriteQueue rwq;
    finepack::Packetizer packetizer;
    /** One write-combine buffer per destination (self unused). */
    std::vector<std::unique_ptr<finepack::WriteCombineBuffer>> wc;

    SourceLayers(GpuId self, std::uint32_t gpus,
                 const finepack::FinePackConfig &config)
        : rwq(self, gpus, config), packetizer(self, config)
    {
        wc.resize(gpus);
        for (GpuId g = 0; g < gpus; ++g) {
            if (g != self)
                wc[g] = std::make_unique<finepack::WriteCombineBuffer>(
                    self, g, config.queue_entries, config.entry_bytes);
        }
    }
};

template <bool spans>
StageLedger
replay(const trace::WorkloadTrace &trace, sim::Paradigm paradigm,
       const sim::SimConfig &config)
{
    using Scope = SpanScope<spans>;
    const bool finepack = paradigm == sim::Paradigm::finepack;
    const Clock::time_point wall_start = Clock::now();
    StageLedger ledger;
    const std::uint32_t gpus = trace.num_gpus;
    const std::uint32_t line = config.finepack.entry_bytes;
    const icn::PcieProtocol protocol(config.pcie_gen);

    common::EventQueue queue;
    icn::SwitchedFabric fabric("fabric", queue, gpus,
                               icn::FabricParams::forPcie(config.pcie_gen));
    std::vector<std::unique_ptr<gpu::IngressPort>> ingress;
    std::vector<std::unique_ptr<SourceLayers>> sources;
    for (GpuId g = 0; g < gpus; ++g) {
        ingress.push_back(std::make_unique<gpu::IngressPort>(
            "gpu" + std::to_string(g) + ".ingress", queue, g, config.gpu));
        gpu::IngressPort *port = ingress.back().get();
        fabric.setIngressHandler(
            g, [port, &ledger](const icn::WireMessagePtr &msg) {
                Scope span(ledger.ingress);
                port->receive(msg);
            });
        sources.push_back(
            std::make_unique<SourceLayers>(g, gpus, config.finepack));
    }

    // Scratch buffers reused across chunks, as the egress port reuses
    // its flush buffer.
    std::vector<finepack::FlushedPartition> flushed;
    std::vector<finepack::WcLine> lines;
    std::vector<GpuId> line_dsts;
    std::vector<icn::WireMessagePtr> messages;

    auto packetize = [&](SourceLayers &src) {
        Scope span(ledger.packetizer);
        for (const auto &partition : flushed)
            if (!partition.empty())
                messages.push_back(
                    src.packetizer.toMessage(partition, protocol));
    };
    auto combine = [&](SourceLayers &src) {
        Scope span(ledger.write_combine);
        for (std::size_t i = 0; i < lines.size(); ++i) {
            ledger.wc_folded += lines[i].folded;
            messages.push_back(
                src.wc[line_dsts[i]]->lineToMessage(lines[i], protocol));
        }
        ledger.wc_lines += lines.size();
    };
    // Injection is the fabric's work: it runs inside the queue span.
    auto inject = [&]() {
        for (const auto &msg : messages)
            fabric.inject(msg);
        messages.clear();
    };

    // One issue event's worth of stores from one source GPU.
    auto issueChunk = [&](GpuId g, const std::vector<icn::Store> &stores,
                          std::size_t begin, std::size_t end) {
        SourceLayers &src = *sources[g];
        if (finepack) {
            {
                Scope span(ledger.rwq);
                flushed.clear();
                for (std::size_t i = begin; i < end; ++i)
                    forEachPiece(stores[i], line,
                                 [&](const icn::Store &piece) {
                                     src.rwq.push(piece, flushed);
                                 });
            }
            packetize(src);
        } else {
            {
                Scope span(ledger.write_combine);
                lines.clear();
                line_dsts.clear();
                for (std::size_t i = begin; i < end; ++i)
                    forEachPiece(stores[i], line,
                                 [&](const icn::Store &piece) {
                                     auto evicted =
                                         src.wc[piece.dst]->push(piece);
                                     if (evicted) {
                                         lines.push_back(
                                             std::move(*evicted));
                                         line_dsts.push_back(piece.dst);
                                     }
                                 });
            }
            combine(src);
        }
        inject();
    };

    // Kernel-end release: every layer drains its buffers (the ones off
    // this paradigm's path are empty).
    auto release = [&](GpuId g) {
        SourceLayers &src = *sources[g];
        {
            Scope span(ledger.rwq);
            flushed = src.rwq.flushAll(finepack::FlushReason::release);
        }
        packetize(src);
        {
            Scope span(ledger.write_combine);
            lines.clear();
            line_dsts.clear();
            for (GpuId dst = 0; dst < gpus; ++dst) {
                if (dst == g)
                    continue;
                for (auto &wc_line : src.wc[dst]->flushAll()) {
                    lines.push_back(std::move(wc_line));
                    line_dsts.push_back(dst);
                }
            }
        }
        combine(src);
        inject();
    };

    // Issue each chunk at the tick the driver issues it: chunk c of a
    // kernel completes at the matching fraction of its compute window,
    // and the release comes at the kernel's end. The queue then holds
    // as many messages in flight as in the driver's run.
    const gpu::GpuConfig &cfg = config.gpu;
    Span queue_run;
    Tick t = 0;
    for (const auto &iter : trace.iterations) {
        Tick latest_compute_end = 0;
        for (GpuId g = 0; g < gpus; ++g) {
            const auto &work = iter.per_gpu[g];
            Tick kernel_start = t + cfg.kernel_launch_overhead;
            Tick compute = cfg.computeTime(work.flops, work.local_bytes,
                                           config.compute_efficiency);
            Tick compute_end = kernel_start + compute;
            latest_compute_end = std::max(latest_compute_end, compute_end);

            const auto *stores = &work.remote_stores;
            std::size_t count = stores->size();
            for (std::size_t begin = 0; begin < count;
                 begin += config.store_chunk) {
                std::size_t end = std::min<std::size_t>(
                    begin + config.store_chunk, count);
                Tick when =
                    kernel_start +
                    static_cast<Tick>(static_cast<double>(compute) *
                                      (static_cast<double>(end) /
                                       static_cast<double>(count)));
                queue.schedule(
                    [&issueChunk, g, stores, begin, end]() {
                        issueChunk(g, *stores, begin, end);
                    },
                    when, common::Event::prio_inject,
                    "perfbench.issue_stores");
            }
            queue.schedule([&release, g]() { release(g); }, compute_end,
                           common::Event::prio_sync, "perfbench.release");
        }
        {
            Scope span(queue_run);
            queue.run();
        }
        Tick busy = latest_compute_end;
        for (const auto &port : ingress)
            busy = std::max(busy, port->drainedAt());
        t = std::max(busy + cfg.barrier_overhead, queue.now());
    }
    ledger.total_time = t;

    // Every other span ran inside the queue's; the rest is the fabric's.
    ledger.fabric.ns = queue_run.ns - ledger.rwq.ns - ledger.packetizer.ns -
                       ledger.write_combine.ns - ledger.ingress.ns;
    ledger.fabric.allocs = queue_run.allocs - ledger.rwq.allocs -
                           ledger.packetizer.allocs -
                           ledger.write_combine.allocs -
                           ledger.ingress.allocs;
    ledger.events = queue.eventsProcessed();

    for (GpuId g = 0; g < gpus; ++g) {
        const SourceLayers &src = *sources[g];
        for (GpuId dst = 0; dst < gpus; ++dst) {
            if (dst == g)
                continue;
            const finepack::RwqPartition &part = src.rwq.partition(dst);
            ledger.rwq_bytes += part.bytesPushed();
            ledger.rwq_elided += part.bytesElided();
            for (auto reason : {finepack::FlushReason::window_violation,
                                finepack::FlushReason::payload_full,
                                finepack::FlushReason::entries_full,
                                finepack::FlushReason::release,
                                finepack::FlushReason::load_conflict,
                                finepack::FlushReason::atomic_conflict})
                ledger.rwq_flushes += part.flushes(reason);
        }
        ledger.packets += src.packetizer.packetsEmitted();
        ledger.packed_stores += src.packetizer.storesPacked();

        const icn::Link &uplink = fabric.uplink(g);
        ledger.messages += uplink.messageCount();
        ledger.payload_bytes += uplink.payloadBytes();
        ledger.header_bytes += uplink.headerBytes();
        ledger.data_bytes += uplink.dataBytes();
    }
    ledger.wall_ns = std::chrono::duration<double, std::nano>(
                         Clock::now() - wall_start)
                         .count();
    return ledger;
}

} // namespace

StageLedger
replayStages(const trace::WorkloadTrace &trace, sim::Paradigm paradigm,
             const sim::SimConfig &config, bool spans)
{
    if (paradigm != sim::Paradigm::finepack &&
        paradigm != sim::Paradigm::write_combine)
        fp_panic("no stage replay for paradigm ", sim::toString(paradigm));
    return spans ? replay<true>(trace, paradigm, config)
                 : replay<false>(trace, paradigm, config);
}

} // namespace fp::perfbench
