/**
 * @file
 * The per-layer replay behind the traced benchmark run.
 *
 * replayStages() feeds one trace through the simulator's layers by
 * their public functions, as SimulationDriver::run drives them, and
 * times each call into a layer from the benchmark's side:
 *
 *  - RWQ (finepack paradigm): RemoteWriteQueue::push on every
 *    (iteration, source GPU) store stream, then flushAll(release);
 *  - packetizer: Packetizer::toMessage on each flushed partition;
 *  - write-combine (write-combine paradigm): WriteCombineBuffer::push,
 *    lineToMessage and flushAll;
 *  - fabric + event queue: the messages, injected in issue order into a
 *    benchmark-owned EventQueue + SwitchedFabric;
 *  - ingress: IngressPort::receive, through an ingress handler the
 *    benchmark installs itself so the call is timed on its own.
 *
 * Stores issue in the driver's chunks (store_chunk) at the driver's
 * ticks, from events on the benchmark's queue, so queue depth and the
 * simulated end time match the driver's run. The fabric row is the
 * queue's run time minus every other layer's span inside it: links,
 * event dispatch and injection. Every layer's release step runs each
 * iteration; a layer off the paradigm's path holds no state, so its
 * span covers only that empty step. Nothing here changes the
 * simulator: it only calls it.
 *
 * With spans off, every span compiles to nothing: the same replay, whose
 * wall time against the spanned one's is the cost of the spans.
 */

#ifndef FP_PERFBENCH_STAGE_REPLAY_HH
#define FP_PERFBENCH_STAGE_REPLAY_HH

#include <cstdint>

#include "sim/driver.hh"
#include "trace/trace.hh"

namespace fp::perfbench {

/** Host time and heap allocations attributed to one layer. */
struct Span
{
    double ns = 0.0;
    std::uint64_t allocs = 0;
};

/** What one stage replay measured and counted. */
struct StageLedger
{
    Span rwq;
    Span packetizer;
    Span write_combine;
    /** Fabric links, injection and the event queue. */
    Span fabric;
    Span ingress;
    /** Wall time of the whole replay, benchmark glue and spans included. */
    double wall_ns = 0.0;

    // ---- Work counts ---------------------------------------------------
    std::uint64_t rwq_flushes = 0;   ///< partition flushes, all reasons
    std::uint64_t rwq_bytes = 0;     ///< store bytes pushed
    std::uint64_t rwq_elided = 0;    ///< bytes overwritten in place
    std::uint64_t packets = 0;       ///< FinePack packets emitted
    std::uint64_t packed_stores = 0; ///< stores folded into packets
    std::uint64_t wc_lines = 0;      ///< write-combine lines sent
    std::uint64_t wc_folded = 0;     ///< stores folded into lines
    std::uint64_t events = 0;        ///< fabric-stage DES events

    // ---- Simulated outcome (cross-checked against the driver's) -------
    Tick total_time = 0;
    std::uint64_t messages = 0;
    std::uint64_t payload_bytes = 0;
    std::uint64_t header_bytes = 0;
    std::uint64_t data_bytes = 0;
};

/**
 * Replay @p trace through the layers @p paradigm uses (finepack or
 * write-combine) under @p config's FinePack, PCIe and chunk settings.
 * With @p spans false the layer Spans stay zero and only wall_ns, the
 * work counts and the simulated outcome are filled in. Throws
 * (fp_panic / SimError) on a paradigm it cannot stage.
 */
StageLedger replayStages(const trace::WorkloadTrace &trace,
                         sim::Paradigm paradigm,
                         const sim::SimConfig &config, bool spans);

} // namespace fp::perfbench

#endif // FP_PERFBENCH_STAGE_REPLAY_HH
