/**
 * @file
 * fp_perfbench: the repository benchmark (see README.md here).
 *
 *   fp_perfbench --workload W --seed N --seconds S --trace 0|1
 *                [--scale X] [--scratch DIR] [--git-sha SHA]
 *                [--source-digest HEX] [--wrong-expected]
 *
 * Generates the workload's trace from the seed, round-trips it through
 * the trace file format, then:
 *  --trace 0  times SimulationDriver::run on the in-memory trace, one
 *             simulation after another on this thread (closed loop),
 *             for S seconds (at least one simulation), and prints the
 *             raw timings as {"correct", "attempted", "failed",
 *             "samples"}; run.py pools them over several processes into
 *             the end-to-end metrics;
 *  --trace 1  runs plain, latency-instrumented and oracle-checked
 *             driver simulations, replays the same trace layer by layer
 *             (stage_replay.hh) with and without spans, and prints the
 *             per-layer ledger as {"correct", "attempted", "failed",
 *             "metrics"}.
 * Every simulation, set-up round trip and stage replay is one
 * operation; it fails if it throws or if its result breaks the
 * correctness gate (README.md). The result is the last stdout line.
 */

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "alloc_counter.hh"
#include "common/build_info.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "expected.hh"
#include "obs/latency.hh"
#include "sim/driver.hh"
#include "stage_replay.hh"
#include "trace/trace.hh"
#include "workloads/workload.hh"

namespace fp::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/** A benchmark workload: one application trace under one paradigm. */
struct WorkloadSpec
{
    const char *name;
    const char *app;
    sim::Paradigm paradigm;
};

constexpr WorkloadSpec workload_specs[] = {
    {"pagerank-finepack", "pagerank", sim::Paradigm::finepack},
    {"sssp-finepack", "sssp", sim::Paradigm::finepack},
    {"sssp-write-combine", "sssp", sim::Paradigm::write_combine},
};

constexpr std::uint32_t bench_gpus = 4;

/** Rounds of plain / latency / oracle driver runs in --trace 1. */
constexpr int traced_rounds = 2;

const char usage_text[] =
    "usage: fp_perfbench --workload W --seed N --seconds S --trace 0|1\n"
    "                    [--scale X] [--scratch DIR] [--git-sha SHA]\n"
    "                    [--source-digest HEX] [--wrong-expected]\n"
    "workloads: pagerank-finepack sssp-finepack sssp-write-combine\n";

struct Options
{
    const WorkloadSpec *workload = nullptr;
    std::uint64_t seed = 42;
    double seconds = 10.0;
    bool trace = false;
    double scale = 1.0;
    std::string scratch = ".";
    /** run.py reads it on every run; the build's own is configure-time. */
    std::string git_sha = common::buildInfo().git_sha;
    std::string source_digest = "unknown";
    /** Self-test aid: perturb the reference result so every op fails. */
    bool wrong_expected = false;
};

[[noreturn]] void
usageError(const std::string &why)
{
    std::cerr << "fp_perfbench: " << why << "\n" << usage_text;
    std::exit(2);
}

template <typename T>
T
parseNumber(const std::string &flag, const std::string &text)
{
    T value{};
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end)
        usageError("bad value for " + flag + ": '" + text + "'");
    return value;
}

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--wrong-expected") {
            opts.wrong_expected = true;
            continue;
        }
        if (i + 1 >= argc)
            usageError("missing value for " + flag);
        std::string value = argv[++i];
        if (flag == "--workload") {
            for (const WorkloadSpec &spec : workload_specs)
                if (value == spec.name)
                    opts.workload = &spec;
            if (!opts.workload)
                usageError("unknown workload '" + value + "'");
        } else if (flag == "--seed") {
            opts.seed = parseNumber<std::uint64_t>(flag, value);
        } else if (flag == "--seconds") {
            opts.seconds = parseNumber<double>(flag, value);
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usageError("--trace takes 0 or 1");
            opts.trace = value == "1";
        } else if (flag == "--scale") {
            opts.scale = parseNumber<double>(flag, value);
        } else if (flag == "--scratch") {
            opts.scratch = value;
        } else if (flag == "--git-sha") {
            opts.git_sha = value;
        } else if (flag == "--source-digest") {
            opts.source_digest = value;
        } else {
            usageError("unknown flag " + flag);
        }
    }
    if (!opts.workload)
        usageError("--workload is required");
    if (!(opts.seconds > 0.0) || !(opts.scale > 0.0))
        usageError("--seconds and --scale must be positive");
    return opts;
}

/** Nanoseconds on the steady clock, which every process shares. */
std::int64_t
steadyNs()
{
    return static_cast<std::int64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

double
nsSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - start)
        .count();
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/** Peak resident set size of this process (VmHWM), in MB. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

/** Operations attempted and failed; failure reasons go to stderr. */
class Operations
{
  public:
    void
    record(bool ok, const std::string &what)
    {
        ++_attempted;
        if (ok)
            return;
        ++_failed;
        std::cerr << "fp_perfbench: FAILED " << what << "\n";
    }

    std::uint64_t attempted() const { return _attempted; }
    std::uint64_t failed() const { return _failed; }

  private:
    std::uint64_t _attempted = 0;
    std::uint64_t _failed = 0;
};

/**
 * An output stream buffer that compares each byte written to it with the
 * next byte of a file. same() holds if the bytes written are the file's,
 * all of them and nothing more.
 */
class FileComparer : public std::streambuf
{
  public:
    explicit FileComparer(const std::string &path)
        : _file(path, std::ios::binary)
    {}

    bool
    same()
    {
        return _same && _file.peek() == traits_type::eof();
    }

  protected:
    int_type
    overflow(int_type c) override
    {
        if (!traits_type::eq_int_type(c, traits_type::eof()))
            _same = _same && _file.get() == c;
        return traits_type::not_eof(c);
    }

    std::streamsize
    xsputn(const char *s, std::streamsize n) override
    {
        char chunk[4096];
        for (std::streamsize done = 0; _same && done < n;) {
            std::streamsize k = std::min<std::streamsize>(n - done,
                                                          sizeof chunk);
            _same = _file.read(chunk, k).gcount() == k &&
                    std::memcmp(chunk, s + done, k) == 0;
            done += k;
        }
        return n;
    }

  private:
    std::ifstream _file;
    bool _same = true;
};

/** Host cost of one trace generate + write + read-back. */
struct SetupCost
{
    double generate_ns = 0.0;
    std::uint64_t generate_allocs = 0;
    double write_ns = 0.0;
    double read_ns = 0.0;
    std::uint64_t file_bytes = 0;
    /** Steady-clock ns at the start of generate and the end of read. */
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;

    double totalSeconds() const
    { return (generate_ns + write_ns + read_ns) * 1e-9; }
};

/**
 * Generate the workload's trace from the seed, serialize it to a file
 * under the scratch directory and read it back: the trace the
 * simulations replay is the one a user would load with fptrace. The
 * trace read back must serialize to the file's bytes again.
 */
trace::WorkloadTrace
setUp(const Options &opts, SetupCost &cost, Operations &ops)
{
    workloads::WorkloadParams params;
    params.num_gpus = bench_gpus;
    params.scale = opts.scale;
    params.seed = opts.seed;
    const std::string path = opts.scratch + "/perfbench-" +
                             opts.workload->name + ".fpt";

    std::uint64_t allocs = allocationCount();
    cost.start_ns = steadyNs();
    Clock::time_point start = Clock::now();
    trace::WorkloadTrace generated =
        workloads::createWorkload(opts.workload->app)
            ->generateTrace(params);
    cost.generate_ns = nsSince(start);
    cost.generate_allocs = allocationCount() - allocs;

    start = Clock::now();
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        trace::writeTrace(generated, out);
        out.flush();
        if (!out)
            fp_fatal("cannot write trace file ", path);
        cost.file_bytes = static_cast<std::uint64_t>(out.tellp());
    }
    cost.write_ns = nsSince(start);
    generated = trace::WorkloadTrace();

    start = Clock::now();
    trace::WorkloadTrace loaded;
    {
        std::ifstream in(path, std::ios::binary);
        if (!in)
            fp_fatal("cannot read trace file ", path);
        loaded = trace::readTrace(in);
    }
    cost.read_ns = nsSince(start);
    cost.end_ns = steadyNs();

    {
        FileComparer file(path);
        std::ostream again(&file);
        trace::writeTrace(loaded, again);
        ops.record(again && file.same(),
                   "trace round trip: the trace read back does not "
                   "serialize to the file's bytes");
    }
    std::remove(path.c_str());
    return loaded;
}

ExpectedResult
summarize(const sim::RunResult &result, Tick single_gpu_time)
{
    ExpectedResult out;
    out.single_gpu_time = single_gpu_time;
    out.total_time = result.total_time;
    out.wire_bytes = result.wire_bytes;
    out.payload_bytes = result.payload_bytes;
    out.header_bytes = result.header_bytes;
    out.data_bytes = result.data_bytes;
    out.messages = result.messages;
    out.finepack_packets = result.finepack_packets;
    out.useful_bytes = result.useful_bytes;
    out.protocol_bytes = result.protocol_bytes;
    out.wasted_bytes = result.wasted_bytes;
    return out;
}

std::string
describe(const ExpectedResult &r)
{
    std::ostringstream os;
    os << "{" << r.single_gpu_time << ", " << r.total_time << ", "
       << r.wire_bytes << ", " << r.payload_bytes << ", "
       << r.header_bytes << ", " << r.data_bytes << ", " << r.messages
       << ", " << r.finepack_packets << ", " << r.useful_bytes << ", "
       << r.protocol_bytes << ", " << r.wasted_bytes << "}";
    return os.str();
}

/**
 * Seed-independent consistency of one result with its trace: byte
 * classes add up, and under FinePack every trace store is packed and
 * every message is a packet (the workloads issue no atomics).
 */
std::string
inconsistency(const sim::RunResult &result,
              const trace::WorkloadTrace &trace, sim::Paradigm paradigm)
{
    if (result.interrupted)
        return "run was interrupted";
    if (result.total_time == 0 || result.messages == 0)
        return "empty result";
    if (result.wire_bytes != result.payload_bytes + result.header_bytes)
        return "wire bytes != payload + header";
    if (result.data_bytes > trace.totalRemoteStoreBytes())
        return "more data bytes than the trace stores";
    if (paradigm == sim::Paradigm::finepack) {
        if (result.finepack_packets != result.messages)
            return "finepack messages != packets";
        double packed = result.avg_stores_per_packet *
                        static_cast<double>(result.finepack_packets);
        double stores = static_cast<double>(trace.totalRemoteStores());
        if (std::abs(packed - stores) > 0.5 + 1e-9 * stores)
            return "packets do not carry every trace store";
    }
    return {};
}

/** The correctness gate for one simulation. */
class Gate
{
  public:
    Gate(const Options &opts, const trace::WorkloadTrace &trace,
         Tick single_gpu_time)
        : _opts(opts), _trace(trace), _single(single_gpu_time)
    {
        if (const ExpectedResult *recorded = findRecorded(
                opts.workload->name, opts.seed, opts.scale)) {
            _reference = *recorded;
            _have_reference = true;
            if (opts.wrong_expected)
                ++_reference.total_time;
        }
    }

    /**
     * Check @p result; records one operation named @p what, failed
     * already if the caller found a reason @p why.
     */
    void
    check(const sim::RunResult &result, Operations &ops,
          const std::string &what, std::string why = {})
    {
        if (why.empty())
            why = inconsistency(result, _trace, _opts.workload->paradigm);
        ExpectedResult got = summarize(result, _single);
        if (!_have_reference) {
            // No record for this seed: the first result is the
            // reference every later simulation must reproduce.
            _reference = got;
            _have_reference = true;
            if (_opts.wrong_expected)
                ++_reference.total_time;
        }
        if (why.empty() && !(got == _reference))
            why = "result " + describe(got) + " != expected " +
                  describe(_reference);
        ops.record(why.empty(), what + ": " + why);
        _last = got;
    }

    const ExpectedResult &last() const { return _last; }

  private:
    const Options &_opts;
    const trace::WorkloadTrace &_trace;
    Tick _single;
    ExpectedResult _reference;
    bool _have_reference = false;
    ExpectedResult _last;
};

/** One timed simulation; exceptions count as a failed operation. */
struct TimedRun
{
    sim::RunResult result;
    double ns = 0.0;
    /** Steady-clock ns at the start and the end of the run. */
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t allocs = 0;
    bool ok = false;
};

TimedRun
simulate(const sim::SimConfig &config, const trace::WorkloadTrace &trace,
         sim::Paradigm paradigm, Operations &ops, const std::string &what)
{
    TimedRun run;
    try {
        sim::SimulationDriver driver(config);
        std::uint64_t allocs = allocationCount();
        Clock::time_point start = Clock::now();
        run.start_ns = steadyNs();
        run.result = driver.run(trace, paradigm);
        run.end_ns = steadyNs();
        run.ns = nsSince(start);
        run.allocs = allocationCount() - allocs;
        run.ok = true;
    } catch (const std::exception &e) {
        ops.record(false, what + " threw: " + e.what());
    }
    return run;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printProvenance(const Options &opts, const trace::WorkloadTrace &trace)
{
    const common::BuildInfo &info = common::buildInfo();
    std::ostringstream os;
    common::JsonWriter json(os);
    json.beginObject();
    json.key("provenance");
    json.beginObject();
    json.kv("git_sha", opts.git_sha);
    json.kv("source_digest", opts.source_digest);
    json.kv("compiler", info.compiler);
    json.kv("build_type", info.build_type);
    json.kv("sanitizer", info.sanitizer);
    json.kv("fp_check", info.fp_check);
    json.kv("nproc", std::thread::hardware_concurrency());
    json.kv("workload", opts.workload->name);
    json.kv("paradigm", sim::toString(opts.workload->paradigm));
    json.kv("seed", opts.seed);
    json.kv("scale", opts.scale);
    json.kv("gpus", trace.num_gpus);
    json.kv("stores", trace.totalRemoteStores());
    json.kv("mode", opts.trace ? "trace" : "timed");
    json.endObject();
    json.endObject();
    std::cout << os.str() << "\n";
}

/** A timed interval: its length and its steady-clock ns bounds. */
struct Window
{
    double seconds;
    std::int64_t start_ns;
    std::int64_t end_ns;
};

void
writeWindow(common::JsonWriter &json, const Window &w)
{
    json.beginObject();
    json.kv("s", w.seconds);
    json.kv("start_ns", w.start_ns);
    json.kv("end_ns", w.end_ns);
    json.endObject();
}

/**
 * The last line of a --trace 0 run: the operation counts, every replay,
 * the set-up, the peak RSS and the simulated result, which run.py pools
 * over several processes. Replays and the set-up carry their
 * steady-clock bounds, so run.py can scale each by the host's speed
 * while it ran.
 */
void
printSamples(const Operations &ops, const std::vector<Window> &replays,
             const Window &setup, const ExpectedResult &result)
{
    std::ostringstream os;
    common::JsonWriter json(os);
    json.beginObject();
    json.kv("correct", ops.failed() == 0);
    json.kv("attempted", ops.attempted());
    json.kv("failed", ops.failed());
    json.key("samples");
    json.beginObject();
    json.key("replays");
    json.beginArray();
    for (const Window &w : replays)
        writeWindow(json, w);
    json.endArray();
    json.key("setup");
    writeWindow(json, setup);
    json.kv("peak_rss_mb", peakRssMb());
    json.kv("result", describe(result));
    json.endObject();
    json.endObject();
    std::cout << os.str() << std::endl;
}

void
printResult(const Operations &ops, const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("%-44s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::fflush(stdout);

    std::ostringstream os;
    common::JsonWriter json(os);
    json.beginObject();
    json.kv("correct", ops.failed() == 0);
    json.kv("attempted", ops.attempted());
    json.kv("failed", ops.failed());
    json.key("metrics");
    json.beginObject();
    for (const Metric &m : metrics) {
        json.key(m.name);
        json.beginObject();
        json.kv("value", m.value);
        json.kv("unit", m.unit);
        json.endObject();
    }
    json.endObject();
    json.endObject();
    std::cout << os.str() << std::endl;
}

/**
 * --trace 0: one set-up, then simulations for --seconds; prints their
 * samples. False if no simulation completed.
 */
bool
runTimed(const Options &opts, Operations &ops)
{
    SetupCost cost;
    const trace::WorkloadTrace trace = setUp(opts, cost, ops);
    printProvenance(opts, trace);

    const sim::Paradigm paradigm = opts.workload->paradigm;
    const sim::SimConfig config;
    TimedRun single = simulate(config, trace, sim::Paradigm::single_gpu,
                               ops, "single-gpu reference");
    Gate gate(opts, trace, single.result.total_time);

    // The set-up and the single-GPU reference have warmed the heap, so
    // every simulation from here on is timed.
    std::vector<Window> replays;
    Clock::time_point start = Clock::now();
    int attempt = 0;
    do {
        std::string what = "replay " + std::to_string(attempt++);
        TimedRun run = simulate(config, trace, paradigm, ops, what);
        if (!run.ok)
            continue;
        gate.check(run.result, ops, what);
        replays.push_back({run.ns * 1e-9, run.start_ns, run.end_ns});
    } while (nsSince(start) * 1e-9 < opts.seconds);

    if (replays.empty())
        return false;
    printSamples(ops, replays,
                 {cost.totalSeconds(), cost.start_ns, cost.end_ns},
                 gate.last());
    return true;
}

/**
 * The traced replay: the same trace, layer by layer. Its packet or line
 * count, simulated time and fabric traffic must equal the driver's.
 */
StageLedger
stageReplay(const trace::WorkloadTrace &trace, sim::Paradigm paradigm,
            const sim::SimConfig &config, const sim::RunResult &driver,
            bool spans, Operations &ops)
{
    const std::string what =
        spans ? "stage replay" : "stage replay without spans";
    try {
        StageLedger stages = replayStages(trace, paradigm, config, spans);
        std::string why;
        if (paradigm == sim::Paradigm::finepack &&
            stages.packets != driver.finepack_packets)
            why = "packets " + std::to_string(stages.packets) +
                  " != driver " + std::to_string(driver.finepack_packets);
        else if (paradigm == sim::Paradigm::write_combine &&
                 stages.wc_lines != driver.messages)
            why = "write-combine lines " +
                  std::to_string(stages.wc_lines) + " != driver " +
                  std::to_string(driver.messages);
        else if (stages.total_time != driver.total_time)
            why = "simulated time " + std::to_string(stages.total_time) +
                  " != driver " + std::to_string(driver.total_time);
        else if (stages.messages != driver.messages ||
                 stages.payload_bytes != driver.payload_bytes ||
                 stages.header_bytes != driver.header_bytes ||
                 stages.data_bytes != driver.data_bytes)
            why = "stage fabric traffic differs from the driver's";
        ops.record(why.empty(), what + ": " + why);
        return stages;
    } catch (const std::exception &e) {
        ops.record(false, what + " threw: " + e.what());
        return {};
    }
}

/** --trace 1: the per-layer ledger. */
std::vector<Metric>
runTraced(const Options &opts, Operations &ops)
{
    SetupCost setup;
    trace::WorkloadTrace trace = setUp(opts, setup, ops);
    printProvenance(opts, trace);

    const sim::Paradigm paradigm = opts.workload->paradigm;
    const double stores = static_cast<double>(trace.totalRemoteStores());
    sim::SimConfig config;
    TimedRun single = simulate(config, trace, sim::Paradigm::single_gpu,
                               ops, "single-gpu reference");
    Gate gate(opts, trace, single.result.total_time);

    // Rounds of plain, latency-instrumented and oracle-checked driver
    // runs and of stage replays with and without spans, interleaved so
    // slow phases of the host hit them all alike. Both instruments only
    // observe: results must not change. Every FinePack transaction must
    // be verified (none exist under write-combine, where the oracle does
    // not attach). The stage replays alternate which goes first.
    obs::LatencyCollector latency;
    std::vector<double> plain_ns, latency_ns, oracle_ns;
    std::vector<double> spanned_ns, unspanned_ns;
    TimedRun plain;
    StageLedger stages;
    for (int round = 0; round < traced_rounds; ++round) {
        const std::string suffix = " run " + std::to_string(round);
        config.latency = nullptr;
        config.check = false;
        TimedRun run = simulate(config, trace, paradigm, ops,
                                "driver" + suffix);
        if (run.ok) {
            gate.check(run.result, ops, "driver" + suffix);
            plain_ns.push_back(run.ns);
            plain = run;
        }

        config.latency = &latency;
        run = simulate(config, trace, paradigm, ops, "latency" + suffix);
        if (run.ok) {
            gate.check(run.result, ops, "latency" + suffix);
            latency_ns.push_back(run.ns);
        }

        config.latency = nullptr;
        config.check = true;
        run = simulate(config, trace, paradigm, ops, "oracle" + suffix);
        if (run.ok) {
            const sim::RunResult &r = run.result;
            std::string why;
            if (r.oracle_transactions != r.finepack_packets)
                why = "verified " + std::to_string(r.oracle_transactions) +
                      " of " + std::to_string(r.finepack_packets) +
                      " transactions";
            gate.check(r, ops, "oracle" + suffix, why);
            oracle_ns.push_back(run.ns);
        }
        config.check = false;

        for (bool spans : {round % 2 == 0, round % 2 != 0}) {
            StageLedger ledger = stageReplay(trace, paradigm, config,
                                             plain.result, spans, ops);
            (spans ? spanned_ns : unspanned_ns).push_back(ledger.wall_ns);
            if (spans)
                stages = ledger;
        }
    }
    if (plain_ns.empty() || latency_ns.empty() || oracle_ns.empty())
        return {};

    const double driver_ns = median(plain_ns);
    const double stage_ns = stages.rwq.ns + stages.packetizer.ns +
                            stages.write_combine.ns + stages.fabric.ns +
                            stages.ingress.ns;
    const double packets =
        static_cast<double>(std::max<std::uint64_t>(stages.packets, 1));
    const double messages =
        static_cast<double>(std::max<std::uint64_t>(stages.messages, 1));
    auto per = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    auto count = [](std::uint64_t v) { return static_cast<double>(v); };

    return {
        {"workloads.generate.ns_per_store",
         per(setup.generate_ns, stores), "ns/store"},
        {"workloads.generate.allocs_per_store",
         per(count(setup.generate_allocs), stores), "allocs/store"},
        {"trace.write.ns_per_store", per(setup.write_ns, stores),
         "ns/store"},
        {"trace.read.ns_per_store", per(setup.read_ns, stores),
         "ns/store"},
        {"trace.bytes_per_store", per(count(setup.file_bytes), stores),
         "B/store"},
        {"finepack.rwq.ns_per_store", per(stages.rwq.ns, stores),
         "ns/store"},
        {"finepack.rwq.allocs_per_store",
         per(count(stages.rwq.allocs), stores), "allocs/store"},
        {"finepack.rwq.flushes_per_kstore",
         per(1000.0 * count(stages.rwq_flushes), stores),
         "flushes/kstore"},
        {"finepack.rwq.elided_byte_frac",
         per(count(stages.rwq_elided), count(stages.rwq_bytes)), "frac"},
        {"finepack.packetizer.ns_per_packet",
         per(stages.packetizer.ns, packets), "ns/packet"},
        {"finepack.packetizer.allocs_per_packet",
         per(count(stages.packetizer.allocs), packets), "allocs/packet"},
        {"finepack.packetizer.stores_per_packet",
         per(count(stages.packed_stores), count(stages.packets)),
         "stores/packet"},
        {"finepack.write_combine.ns_per_store",
         per(stages.write_combine.ns, stores), "ns/store"},
        {"finepack.write_combine.allocs_per_store",
         per(count(stages.write_combine.allocs), stores), "allocs/store"},
        {"finepack.write_combine.stores_per_line",
         per(count(stages.wc_folded), count(stages.wc_lines)),
         "stores/line"},
        {"interconnect.fabric.ns_per_message",
         per(stages.fabric.ns, messages), "ns/message"},
        {"interconnect.fabric.events_per_message",
         per(count(stages.events), messages), "events/message"},
        {"interconnect.fabric.allocs_per_message",
         per(count(stages.fabric.allocs), messages), "allocs/message"},
        {"gpu.ingress.ns_per_message", per(stages.ingress.ns, messages),
         "ns/message"},
        {"sim.driver.ns_per_store", per(driver_ns, stores), "ns/store"},
        {"sim.driver.allocs_per_store", per(count(plain.allocs), stores),
         "allocs/store"},
        {"sim.driver.events_per_store",
         per(count(plain.result.events_processed), stores),
         "events/store"},
        {"sim.driver.unattributed_ns_per_store",
         per(driver_ns - stage_ns, stores), "ns/store"},
        {"obs.latency.overhead_ns_per_store",
         per(median(latency_ns) - driver_ns, stores), "ns/store"},
        {"check.oracle.overhead_ns_per_store",
         per(median(oracle_ns) - driver_ns, stores), "ns/store"},
        {"bench.tracing_overhead_frac",
         per(median(spanned_ns) - median(unspanned_ns),
             median(unspanned_ns)),
         "frac"},
    };
}

} // namespace

} // namespace fp::perfbench

int
main(int argc, char **argv)
{
    using namespace fp;
    perfbench::Options opts = perfbench::parseArgs(argc, argv);

    // A sanitizer or FP_CHECK build runs a different program: its
    // timings say nothing about the simulator users run.
    const common::BuildInfo &info = common::buildInfo();
    if (std::string(info.sanitizer) != "none" || info.fp_check) {
        std::cerr << "fp_perfbench: refusing to report timings from a "
                  << "sanitizer=" << info.sanitizer
                  << " fp_check=" << (info.fp_check ? "on" : "off")
                  << " build\n";
        return 3;
    }

    // Panics throw SimError so one bad simulation is one failed
    // operation; warnings would only add noise to the output.
    common::setExceptionsEnabled(true);
    common::setQuiet(true);

    perfbench::Operations ops;
    bool completed = false;
    try {
        if (opts.trace) {
            std::vector<perfbench::Metric> metrics =
                perfbench::runTraced(opts, ops);
            completed = !metrics.empty();
            if (completed)
                perfbench::printResult(ops, metrics);
        } else {
            completed = perfbench::runTimed(opts, ops);
        }
    } catch (const std::exception &e) {
        std::cerr << "fp_perfbench: " << e.what() << "\n";
        return 1;
    }
    if (!completed) {
        std::cerr << "fp_perfbench: no simulation completed\n";
        return 1;
    }
    return 0;
}
