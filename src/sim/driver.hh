/**
 * @file
 * The simulation driver: runs a workload trace under one communication
 * paradigm on the simulated multi-GPU system and reports timing plus
 * the byte-classified traffic breakdown.
 *
 * Iteration model (mirroring the paper's bulk-synchronous workloads):
 * every iteration launches one kernel per GPU; store-based paradigms
 * stream remote stores across the kernel's compute window and flush at
 * the kernel-end system-scoped release; the memcpy paradigm issues DMA
 * copies after its kernel completes. A device-wide barrier ends the
 * iteration once all traffic has drained.
 */

#ifndef FP_SIM_DRIVER_HH
#define FP_SIM_DRIVER_HH

#include <cstdint>
#include <string>

#include "finepack/config.hh"
#include "gpu/gpu_config.hh"
#include "interconnect/protocol.hh"
#include "sim/paradigm.hh"
#include "trace/trace.hh"

namespace fp::common {
class EventQueueObserver;
} // namespace fp::common

namespace fp::obs {
class FlightRecorder;
class FlowCollector;
class LatencyCollector;
class MetricsCapture;
class PeriodicSampler;
class Profiler;
class TraceSink;
} // namespace fp::obs

namespace fp::sim {

/** Static configuration of one simulated system. */
struct SimConfig
{
    gpu::GpuConfig gpu;
    icn::PcieGen pcie_gen = icn::PcieGen::gen4;
    finepack::FinePackConfig finepack;
    /** Remote stores issued per issue event (timing quantum). */
    std::uint32_t store_chunk = 256;
    /** Sustained fraction of peak the roofline model assumes. */
    double compute_efficiency = 0.75;
    /**
     * FinePack inactivity-timeout flush in ticks; 0 (the paper's
     * configuration) disables it. See Section IV-B's discussion.
     */
    Tick finepack_flush_timeout = 0;
    /** GPS subscription granularity (bytes per tracked page). */
    std::uint64_t gps_page_bytes = 4096;
    /**
     * Run the shadow-memory protocol oracle alongside the simulation
     * (finepack paradigm only; other paradigms warn and ignore it):
     * every FinePack transaction is verified byte-for-byte against a
     * reference model of the buffered stores. See docs/ "Correctness
     * tooling"; the fptrace --check flag sets this.
     */
    bool check = false;

    // ---- Observability hooks (caller keeps ownership; all optional) ----
    // The tracer, latency and flow collectors, flight recorder and
    // protocol oracles subscribe to the pipeline milestones
    // (interconnect/pipeline_observer.hh) of event-driven runs; with
    // none set, each milestone costs one null pointer test.
    /** Event tracer: Chrome trace events of the whole pipeline. */
    obs::TraceSink *tracer = nullptr;
    /**
     * Periodic sampler: the driver registers its counter gauges (RWQ
     * occupancy, link queue depth, in-flight messages) and pumps the
     * event queue through it so time series accumulate.
     */
    obs::PeriodicSampler *sampler = nullptr;
    /**
     * Metrics snapshot target: captured from the live StatGroup
     * registry just before the simulated system is torn down.
     */
    obs::MetricsCapture *metrics = nullptr;
    /** Per-stage store latency attribution (docs/latency.md). */
    obs::LatencyCollector *latency = nullptr;
    /**
     * Per-link timelines, per-flow ledgers and contention attribution
     * (docs/fabric_observability.md).
     */
    obs::FlowCollector *flows = nullptr;
    /**
     * Host-side self-profiler: attaches to the event queue for the
     * duration of each run and attributes *wall-clock* handler time to
     * event labels (see docs/profiling.md). Measures the simulator,
     * not the simulated system; never changes simulated results.
     */
    obs::Profiler *profiler = nullptr;
    /**
     * Flight recorder: rides the event-queue observer hooks and the
     * pipeline milestones, logging the last N executed events / RWQ
     * flushes / fabric injects into a lock-free ring for post-mortems
     * and the stall watchdog (see docs/run_health.md).
     */
    obs::FlightRecorder *recorder = nullptr;
    /**
     * Testing aid for the stall watchdog: when nonzero, the driver
     * schedules one event at the very start of the run that spins
     * host wall-clock for this many milliseconds while simulated time
     * stands still -- a reproducible "wedged handler". The spin polls
     * the cooperative interrupt flag so a SIGINT still unwinds
     * promptly. Zero (the default) schedules nothing.
     */
    std::uint32_t wedge_host_ms = 0;

    // ---- Determinism analysis hooks (see docs/determinism.md) ----------
    /**
     * Event-queue observer (e.g. check::RaceDetector): sees every
     * executed event and the logical accesses components declare via
     * common::AccessRecorder. Event-driven paradigms only.
     */
    common::EventQueueObserver *queue_observer = nullptr;
    /**
     * Permute same-(tick, priority) execution order with this seed
     * (schedule-perturbation harness). 0 = insertion order, the
     * default deterministic tie-break.
     */
    std::uint64_t tie_break_shuffle_seed = 0;

    SimConfig();
};

/** The outcome of one (trace, paradigm) simulation. */
struct RunResult
{
    Paradigm paradigm = Paradigm::single_gpu;
    /** End-to-end simulated time. */
    Tick total_time = 0;

    // ---- Wire traffic (sum over all GPU uplinks) ----------------------
    std::uint64_t wire_bytes = 0;    ///< everything on the wire
    std::uint64_t payload_bytes = 0; ///< TLP payloads
    std::uint64_t header_bytes = 0;  ///< link/TLP protocol bytes
    std::uint64_t data_bytes = 0;    ///< store data inside payloads
    std::uint64_t messages = 0;

    // ---- Figure 10 classification --------------------------------------
    /** Unique updated-and-read bytes (paradigm-independent oracle). */
    std::uint64_t useful_bytes = 0;
    /** Header + sub-header + padding bytes. */
    std::uint64_t protocol_bytes = 0;
    /** Transferred data never read or overwritten before reading. */
    std::uint64_t wasted_bytes = 0;

    // ---- FinePack statistics (Figure 11) -------------------------------
    double avg_stores_per_packet = 0.0;
    std::uint64_t finepack_packets = 0;
    /**
     * Wire bytes the same coalesced runs would cost as standalone TLPs
     * ("write combining alone", Section VI-A); only set for the
     * finepack paradigm.
     */
    std::uint64_t wc_alone_wire_bytes = 0;
    /** The per-line-span interpretation of the same comparison. */
    std::uint64_t wc_line_wire_bytes = 0;
    /** Aggregation without address compression (Section VI-A 24%). */
    std::uint64_t uncompressed_wire_bytes = 0;

    // ---- Protocol oracle results (SimConfig::check only) ---------------
    /** FinePack transactions verified byte-for-byte. */
    std::uint64_t oracle_transactions = 0;
    /** Stores replayed into the oracle's reference model. */
    std::uint64_t oracle_stores = 0;
    /** Bytes whose coverage the oracle verified. */
    std::uint64_t oracle_bytes = 0;
    /** Subset of oracle_bytes value-compared (data-carrying traces). */
    std::uint64_t oracle_value_bytes = 0;
    /**
     * Order-sensitive fingerprint of all verified transactions, folded
     * over sources in GPU-id order. Bit-identical across runs of the
     * same trace iff packetization is schedule-independent; the
     * racecheck perturbation harness diffs it across shuffle seeds.
     */
    std::uint64_t oracle_digest = 0;

    // ---- Host-side bookkeeping (not part of the simulated result) ------
    /**
     * Events the DES core executed for this run (0 for analytic
     * paradigms). Deterministic, but deliberately excluded from the
     * racecheck result digest: it describes the engine, not the
     * simulated outcome, and ROADMAP item 1's engine overhaul is
     * allowed to change it.
     */
    std::uint64_t events_processed = 0;
    /**
     * True when the run was cut short by the cooperative interrupt
     * flag (SIGINT): timing and traffic fields describe the run up to
     * the interruption, oracle end-of-run drain checks were skipped,
     * and any stats document derived from this result must carry
     * `"partial": true`.
     */
    bool interrupted = false;

    double totalSeconds() const
    { return static_cast<double>(total_time) /
          static_cast<double>(ticks_per_sec); }
};

/** Runs traces under paradigms; reusable across runs. */
class SimulationDriver
{
  public:
    explicit SimulationDriver(SimConfig config = SimConfig());

    /** Simulate @p trace under @p paradigm. */
    RunResult run(const trace::WorkloadTrace &trace, Paradigm paradigm);

    /** Convenience: speedup of @p paradigm over the 1-GPU baseline. */
    double speedupOverSingleGpu(const trace::WorkloadTrace &trace,
                                Paradigm paradigm);

    const SimConfig &config() const { return _config; }

  private:
    RunResult runAnalytic(const trace::WorkloadTrace &trace,
                          Paradigm paradigm) const;
    RunResult runEventDriven(const trace::WorkloadTrace &trace,
                             Paradigm paradigm);

    SimConfig _config;
};

/**
 * Process-wide total of DES events executed by every
 * SimulationDriver::run() since process start (all drivers, all
 * threads). The bench harness samples it around a bench to derive
 * `host.events_per_sec` without threading a profiler through every
 * figure sweep.
 */
std::uint64_t totalHostEventsProcessed();

} // namespace fp::sim

#endif // FP_SIM_DRIVER_HH
