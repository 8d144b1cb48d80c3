#include "obs/flow.hh"

#include <algorithm>

#include "common/json.hh"
#include "common/logging.hh"
#include "interconnect/message.hh"
#include "obs/trace_event.hh"

namespace fp::obs {

namespace {

/**
 * Window budget per link: beyond this many bins the window width
 * doubles and bins merge pairwise, bounding timeline memory on long
 * runs while conserving totals.
 */
constexpr std::size_t max_windows = 1024;

const char *
toString(FlowCollector::LinkKind kind)
{
    return kind == FlowCollector::LinkKind::uplink ? "uplink"
                                                   : "downlink";
}

} // namespace

FlowCollector::FlowCollector(Tick window_ticks)
    : _initial_window_ticks(std::max<Tick>(window_ticks, 1)),
      _window_ticks(_initial_window_ticks)
{}

void
FlowCollector::beginRun(std::uint32_t num_gpus)
{
    fp::MutexLock lock(_mu);
    _num_gpus = num_gpus;
    _window_ticks = _initial_window_ticks;
    _end_tick = 0;
    _max_event_tick = 0;
    _links.clear();
    _flows.assign(static_cast<std::size_t>(num_gpus) * num_gpus,
                  FlowStats{});
    _matrix.assign(static_cast<std::size_t>(num_gpus) * num_gpus, 0);
}

void
FlowCollector::endRun(Tick end_tick)
{
    fp::MutexLock lock(_mu);
    _end_tick = std::max(end_tick, _max_event_tick);
}

std::uint32_t
FlowCollector::registerLink(std::string name, LinkKind kind, GpuId gpu)
{
    fp::MutexLock lock(_mu);
    LinkStats link;
    link.name = std::move(name);
    link.kind = kind;
    link.gpu = gpu;
    _links.push_back(std::move(link));
    return static_cast<std::uint32_t>(_links.size() - 1);
}

void
FlowCollector::messageInjected(const icn::WireMessage &msg, Tick)
{
    fp::MutexLock lock(_mu);
    fp_assert(msg.src < _num_gpus && msg.dst < _num_gpus,
              "flow inject outside the fabric: ", msg.src, " -> ", msg.dst);
    FlowStats &flow = _flows[flowIndex(msg.src, msg.dst)];
    ++flow.injected_msgs;
    flow.injected_wire_bytes += msg.wireBytes();
    flow.injected_payload_bytes += msg.payload_bytes;
    flow.injected_data_bytes += msg.data_bytes;
    flow.packed_stores += msg.packed_store_count;
}

void
FlowCollector::messageCommitted(const icn::WireMessage &msg, Tick, Tick,
                                Tick)
{
    fp::MutexLock lock(_mu);
    fp_assert(msg.src < _num_gpus && msg.dst < _num_gpus,
              "flow commit outside the fabric: ", msg.src, " -> ", msg.dst);
    FlowStats &flow = _flows[flowIndex(msg.src, msg.dst)];
    ++flow.committed_msgs;
    flow.committed_wire_bytes += msg.wireBytes();
    flow.committed_data_bytes += msg.data_bytes;
}

void
FlowCollector::reserveWindows(Tick last_tick)
{
    while (last_tick / _window_ticks >= max_windows) {
        _window_ticks *= 2;
        for (LinkStats &link : _links) {
            std::vector<Window> merged((link.windows.size() + 1) / 2);
            for (std::size_t w = 0; w < link.windows.size(); ++w) {
                Window &into = merged[w / 2];
                const Window &from = link.windows[w];
                into.busy_ticks += from.busy_ticks;
                into.wait_msg_ticks += from.wait_msg_ticks;
                into.msgs += from.msgs;
                into.wire_bytes += from.wire_bytes;
            }
            link.windows = std::move(merged);
        }
    }
}

void
FlowCollector::chargeWindows(LinkStats &link, Tick begin, Tick end,
                             bool busy)
{
    if (end <= begin)
        return;
    std::size_t first = begin / _window_ticks;
    std::size_t last = (end - 1) / _window_ticks;
    if (link.windows.size() <= last)
        link.windows.resize(last + 1);
    for (std::size_t w = first; w <= last; ++w) {
        Tick lo = static_cast<Tick>(w) * _window_ticks;
        Tick hi = lo + _window_ticks;
        Tick overlap = std::min(end, hi) - std::max(begin, lo);
        if (busy)
            link.windows[w].busy_ticks += overlap;
        else
            link.windows[w].wait_msg_ticks += overlap;
    }
}

void
FlowCollector::linkTransmit(std::uint32_t link_id,
                            const icn::WireMessage &msg, Tick enqueued,
                            Tick start, Tick tx_ticks)
{
    fp::MutexLock lock(_mu);
    fp_assert(link_id < _links.size(), "unregistered link id ", link_id);
    fp_assert(msg.src < _num_gpus && msg.dst < _num_gpus,
              "flow transmit outside the fabric: ", msg.src, " -> ",
              msg.dst);
    fp_assert(enqueued <= start, "transmit before enqueue on link ",
              link_id);

    Tick end = start + tx_ticks;
    _max_event_tick = std::max(_max_event_tick, end);
    reserveWindows(end > 0 ? end - 1 : 0);

    LinkStats &link = _links[link_id];
    ++link.msgs;
    link.wire_bytes += msg.wireBytes();
    link.payload_bytes += msg.payload_bytes;
    link.data_bytes += msg.data_bytes;
    link.busy_ticks += tx_ticks;

    chargeWindows(link, start, end, /*busy=*/true);
    std::size_t start_window = start / _window_ticks;
    link.windows[start_window].msgs += 1;
    link.windows[start_window].wire_bytes += msg.wireBytes();

    // Any wait is charged to the flow that transmitted last on this
    // link. Without one (a collector attached mid-run) the flow
    // self-charges, so the matrix still reconciles with wait_ticks.
    std::uint32_t delayed_flow = flowIndex(msg.src, msg.dst);
    std::uint32_t occupant = link.occupant.value_or(delayed_flow);
    link.occupant = delayed_flow;

    Tick wait = start - enqueued;
    if (wait == 0)
        return;
    link.wait_ticks += wait;
    chargeWindows(link, enqueued, start, /*busy=*/false);

    FlowStats &delayed = _flows[delayed_flow];
    if (link.kind == LinkKind::uplink)
        delayed.uplink_wait_ticks += wait;
    else
        delayed.downlink_wait_ticks += wait;
    delayed.delay_suffered_ticks += wait;

    _flows[occupant].delay_caused_ticks += wait;
    link.interference[{occupant, delayed_flow}] += wait;
    GpuId by_src = occupant / _num_gpus;
    _matrix[static_cast<std::size_t>(by_src) * _num_gpus + msg.src] +=
        wait;
}

const FlowCollector::FlowStats &
FlowCollector::flow(GpuId src, GpuId dst) const
{
    fp_assert(src < _num_gpus && dst < _num_gpus,
              "flow outside the fabric: ", src, " -> ", dst);
    return _flows[flowIndex(src, dst)];
}

Tick
FlowCollector::interferenceTicks(GpuId by, GpuId on) const
{
    fp_assert(by < _num_gpus && on < _num_gpus,
              "matrix cell outside the fabric: ", by, " x ", on);
    return _matrix[static_cast<std::size_t>(by) * _num_gpus + on];
}

Tick
FlowCollector::totalBusyTicks() const
{
    Tick total = 0;
    for (const LinkStats &link : _links)
        total += link.busy_ticks;
    return total;
}

Tick
FlowCollector::totalWaitTicks() const
{
    Tick total = 0;
    for (const LinkStats &link : _links)
        total += link.wait_ticks;
    return total;
}

std::uint64_t
FlowCollector::activeFlows() const
{
    std::uint64_t active = 0;
    for (const FlowStats &flow : _flows)
        active += flow.active() ? 1 : 0;
    return active;
}

double
FlowCollector::linkUtilization(const LinkStats &link) const
{
    if (_end_tick == 0)
        return 0.0;
    return static_cast<double>(link.busy_ticks) /
           static_cast<double>(_end_tick);
}

double
FlowCollector::packingEfficiency() const
{
    std::uint64_t wire = 0;
    std::uint64_t data = 0;
    for (const FlowStats &flow : _flows) {
        wire += flow.injected_wire_bytes;
        data += flow.injected_data_bytes;
    }
    return wire ? static_cast<double>(data) / static_cast<double>(wire)
                : 0.0;
}

Tick
FlowCollector::windowLength(std::size_t w) const
{
    Tick lo = static_cast<Tick>(w) * _window_ticks;
    if (_end_tick <= lo)
        return _window_ticks;
    return std::min(_end_tick - lo, _window_ticks);
}

std::vector<std::uint32_t>
FlowCollector::hottestLinks(std::size_t k) const
{
    std::vector<std::uint32_t> order(_links.size());
    for (std::uint32_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                  if (_links[a].busy_ticks != _links[b].busy_ticks)
                      return _links[a].busy_ticks > _links[b].busy_ticks;
                  return _links[a].name < _links[b].name;
              });
    if (order.size() > k)
        order.resize(k);
    return order;
}

std::string
FlowCollector::flowName(GpuId src, GpuId dst)
{
    return "g" + std::to_string(src) + "->g" + std::to_string(dst);
}

void
FlowCollector::dumpJson(common::JsonWriter &json) const
{
    json.beginObject();
    json.kv("gpus", _num_gpus);
    json.kv("window_ticks", _window_ticks);
    json.kv("end_tick", _end_tick);

    std::uint64_t injected_msgs = 0;
    std::uint64_t injected_wire = 0;
    std::uint64_t injected_data = 0;
    std::uint64_t committed_msgs = 0;
    std::uint64_t committed_wire = 0;
    for (const FlowStats &flow : _flows) {
        injected_msgs += flow.injected_msgs;
        injected_wire += flow.injected_wire_bytes;
        injected_data += flow.injected_data_bytes;
        committed_msgs += flow.committed_msgs;
        committed_wire += flow.committed_wire_bytes;
    }
    std::uint64_t transits = 0;
    std::uint64_t transit_wire = 0;
    for (const LinkStats &link : _links) {
        transits += link.msgs;
        transit_wire += link.wire_bytes;
    }

    json.key("totals");
    json.beginObject();
    json.kv("active_flows", activeFlows());
    json.kv("busy_ticks", totalBusyTicks());
    json.kv("committed_msgs", committed_msgs);
    json.kv("committed_wire_bytes", committed_wire);
    json.kv("injected_data_bytes", injected_data);
    json.kv("injected_msgs", injected_msgs);
    json.kv("injected_wire_bytes", injected_wire);
    json.kv("link_transits", transits);
    json.kv("link_wire_bytes", transit_wire);
    json.kv("packing_efficiency", packingEfficiency());
    json.kv("wait_ticks", totalWaitTicks());
    json.endObject();

    // Links keyed by name in sorted order (names are unique per
    // fabric; the map re-sorts whatever order registration used).
    std::map<std::string, const LinkStats *> by_name;
    for (const LinkStats &link : _links)
        by_name.emplace(link.name, &link);
    json.key("links");
    json.beginObject();
    for (const auto &[name, link] : by_name) {
        json.key(name);
        json.beginObject();
        json.kv("busy_ticks", link->busy_ticks);
        json.kv("data_bytes", link->data_bytes);
        json.kv("gpu", link->gpu);
        json.key("interference");
        json.beginObject();
        for (const auto &[flows, ticks] : link->interference) {
            json.kv(flowName(flows.first / _num_gpus,
                             flows.first % _num_gpus) +
                        "|" +
                        flowName(flows.second / _num_gpus,
                                 flows.second % _num_gpus),
                    ticks);
        }
        json.endObject();
        json.kv("kind", toString(link->kind));
        json.kv("msgs", link->msgs);
        json.kv("payload_bytes", link->payload_bytes);
        json.kv("utilization", linkUtilization(*link));
        json.kv("wait_ticks", link->wait_ticks);
        json.key("windows");
        json.beginObject();
        json.key("msgs");
        json.beginArray();
        for (const Window &w : link->windows)
            json.value(w.msgs);
        json.endArray();
        json.key("queue_depth");
        json.beginArray();
        for (std::size_t w = 0; w < link->windows.size(); ++w) {
            Tick len = windowLength(w);
            json.value(len ? static_cast<double>(
                                 link->windows[w].wait_msg_ticks) /
                                 static_cast<double>(len)
                           : 0.0);
        }
        json.endArray();
        json.key("utilization");
        json.beginArray();
        for (std::size_t w = 0; w < link->windows.size(); ++w) {
            Tick len = windowLength(w);
            json.value(len ? static_cast<double>(
                                 link->windows[w].busy_ticks) /
                                 static_cast<double>(len)
                           : 0.0);
        }
        json.endArray();
        json.key("wire_bytes");
        json.beginArray();
        for (const Window &w : link->windows)
            json.value(w.wire_bytes);
        json.endArray();
        json.endObject();
        json.kv("wire_bytes", link->wire_bytes);
        json.endObject();
    }
    json.endObject();

    // Active flows keyed "g<src>->g<dst>" in sorted order.
    std::map<std::string, const FlowStats *> flows_by_name;
    for (GpuId src = 0; src < _num_gpus; ++src) {
        for (GpuId dst = 0; dst < _num_gpus; ++dst) {
            const FlowStats &flow = _flows[flowIndex(src, dst)];
            if (flow.active())
                flows_by_name.emplace(flowName(src, dst), &flow);
        }
    }
    json.key("flows");
    json.beginObject();
    for (const auto &[name, flow] : flows_by_name) {
        json.key(name);
        json.beginObject();
        json.kv("committed_data_bytes", flow->committed_data_bytes);
        json.kv("committed_msgs", flow->committed_msgs);
        json.kv("committed_wire_bytes", flow->committed_wire_bytes);
        json.kv("delay_caused_ticks", flow->delay_caused_ticks);
        json.kv("delay_suffered_ticks", flow->delay_suffered_ticks);
        json.kv("downlink_wait_ticks", flow->downlink_wait_ticks);
        json.kv("injected_data_bytes", flow->injected_data_bytes);
        json.kv("injected_msgs", flow->injected_msgs);
        json.kv("injected_payload_bytes", flow->injected_payload_bytes);
        json.kv("injected_wire_bytes", flow->injected_wire_bytes);
        json.kv("packed_stores", flow->packed_stores);
        json.kv("packing_efficiency",
                flow->injected_wire_bytes
                    ? static_cast<double>(flow->injected_data_bytes) /
                          static_cast<double>(flow->injected_wire_bytes)
                    : 0.0);
        json.kv("uplink_wait_ticks", flow->uplink_wait_ticks);
        json.endObject();
    }
    json.endObject();

    // Fabric-wide interference matrix: row = delayer source GPU,
    // column = delayed source GPU. Array order is index order, so the
    // emission is deterministic without any key sorting.
    json.key("matrix");
    json.beginObject();
    json.key("delay_ticks");
    json.beginArray();
    for (GpuId by = 0; by < _num_gpus; ++by) {
        json.beginArray();
        for (GpuId on = 0; on < _num_gpus; ++on)
            json.value(interferenceTicks(by, on));
        json.endArray();
    }
    json.endArray();
    json.kv("order", "delayer_src_gpu x delayed_src_gpu");
    json.endObject();

    json.endObject();
}

void
FlowCollector::emitTrace(TraceSink &sink) const
{
    for (const LinkStats &link : _links) {
        if (link.windows.empty())
            continue;
        for (std::size_t w = 0; w < link.windows.size(); ++w) {
            Tick ts = static_cast<Tick>(w) * _window_ticks;
            Tick len = windowLength(w);
            double util =
                len ? static_cast<double>(link.windows[w].busy_ticks) /
                          static_cast<double>(len)
                    : 0.0;
            double depth =
                len ? static_cast<double>(
                          link.windows[w].wait_msg_ticks) /
                          static_cast<double>(len)
                    : 0.0;
            sink.counter(trace_pid_sim, link.name + ".util", ts, util);
            sink.counter(trace_pid_sim, link.name + ".queued", ts,
                         depth);
        }
        // Close out the tracks so the last window doesn't extend
        // forever in the viewer.
        sink.counter(trace_pid_sim, link.name + ".util", _end_tick,
                     0.0);
        sink.counter(trace_pid_sim, link.name + ".queued", _end_tick,
                     0.0);
    }
}

} // namespace fp::obs
