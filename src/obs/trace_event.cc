#include "obs/trace_event.hh"

#include "common/json.hh"
#include "common/logging.hh"
#include "finepack/remote_write_queue.hh"
#include "interconnect/message.hh"

namespace fp::obs {

const char *
toString(TraceDetail detail)
{
    switch (detail) {
      case TraceDetail::off: return "off";
      case TraceDetail::flush: return "flush";
      case TraceDetail::full: return "full";
    }
    return "?";
}

void
TraceSink::complete(std::uint32_t pid, std::uint32_t tid, const char *name,
                    const char *cat, Tick ts, Tick dur, Arg a0, Arg a1,
                    Arg a2)
{
    Event e;
    e.ph = 'X';
    e.pid = pid;
    e.tid = tid;
    e.ts = ts;
    e.dur = dur;
    e.name = name;
    e.cat = cat;
    e.args = {a0, a1, a2};
    push(std::move(e));
}

void
TraceSink::instant(std::uint32_t pid, std::uint32_t tid, const char *name,
                   const char *cat, Tick ts, Arg a0, Arg a1, Arg a2)
{
    Event e;
    e.ph = 'i';
    e.pid = pid;
    e.tid = tid;
    e.ts = ts;
    e.name = name;
    e.cat = cat;
    e.args = {a0, a1, a2};
    push(std::move(e));
}

void
TraceSink::flowStart(std::uint32_t pid, std::uint32_t tid, const char *name,
                     const char *cat, Tick ts, std::uint64_t id)
{
    Event e;
    e.ph = 's';
    e.pid = pid;
    e.tid = tid;
    e.ts = ts;
    e.name = name;
    e.cat = cat;
    e.id = id;
    push(std::move(e));
}

void
TraceSink::flowStep(std::uint32_t pid, std::uint32_t tid, const char *name,
                    const char *cat, Tick ts, std::uint64_t id)
{
    Event e;
    e.ph = 't';
    e.pid = pid;
    e.tid = tid;
    e.ts = ts;
    e.name = name;
    e.cat = cat;
    e.id = id;
    push(std::move(e));
}

void
TraceSink::flowEnd(std::uint32_t pid, std::uint32_t tid, const char *name,
                   const char *cat, Tick ts, std::uint64_t id)
{
    Event e;
    e.ph = 'f';
    e.pid = pid;
    e.tid = tid;
    e.ts = ts;
    e.name = name;
    e.cat = cat;
    e.id = id;
    push(std::move(e));
}

void
TraceSink::counter(std::uint32_t pid, const std::string &track, Tick ts,
                   double value)
{
    Event e;
    e.ph = 'C';
    e.pid = pid;
    e.ts = ts;
    e.dyn_name = track;
    e.args[0] = {"value", value};
    push(std::move(e));
}

void
TraceSink::processName(std::uint32_t pid, const std::string &name)
{
    Event e;
    e.ph = 'M';
    e.pid = pid;
    e.name = "process_name";
    e.dyn_name = name;
    push(std::move(e));
}

void
TraceSink::threadName(std::uint32_t pid, std::uint32_t tid,
                      const std::string &name)
{
    Event e;
    e.ph = 'M';
    e.pid = pid;
    e.tid = tid;
    e.name = "thread_name";
    e.dyn_name = name;
    push(std::move(e));
}

void
TraceSink::write(std::ostream &os) const
{
    // Trace-event timestamps are microseconds; ticks are picoseconds.
    auto us = [](Tick t) { return static_cast<double>(t) / 1e6; };

    common::JsonWriter json(os);
    json.beginObject();
    json.kv("displayTimeUnit", "ns");
    json.key("traceEvents");
    json.beginArray();
    for (const Event &e : _events) {
        json.beginObject();
        json.kv("ph", std::string(1, e.ph));
        json.kv("pid", e.pid);
        json.kv("tid", e.tid);
        if (e.ph == 'M') {
            json.kv("name", e.name);
            json.key("args");
            json.beginObject();
            json.kv("name", e.dyn_name);
            json.endObject();
            json.endObject();
            continue;
        }
        json.kv("ts", us(e.ts));
        if (e.ph == 'X')
            json.kv("dur", us(e.dur));
        if (e.ph == 'i')
            json.kv("s", "t");
        if (e.ph == 's' || e.ph == 't' || e.ph == 'f') {
            json.kv("id", e.id);
            // Bind the flow end to the enclosing slice, Perfetto-style.
            if (e.ph == 'f')
                json.kv("bp", "e");
        }
        json.kv("name", e.dyn_name.empty() ? std::string(e.name)
                                           : e.dyn_name);
        if (e.cat)
            json.kv("cat", e.cat);
        bool has_args = false;
        for (const Arg &arg : e.args)
            has_args = has_args || arg.key != nullptr;
        if (has_args) {
            json.key("args");
            json.beginObject();
            for (const Arg &arg : e.args)
                if (arg.key)
                    json.kv(arg.key, arg.value);
            json.endObject();
        }
        json.endObject();
    }
    json.endArray();
    json.endObject();
    os << '\n';
    fp_assert(json.complete(), "trace JSON left unbalanced");
}

void
TraceSink::storeBuffered(GpuId src, GpuId dst, std::uint32_t,
                         const icn::Store &store, bool queue_hit,
                         std::uint32_t overwritten_bytes, Tick tick)
{
    if (!full())
        return;
    if (queue_hit) {
        instant(tracePidGpu(src), lane_rwq, "overwrite_in_place", "rwq",
                tick, {"dst", static_cast<double>(dst)},
                {"bytes", static_cast<double>(store.size)},
                {"overwritten", static_cast<double>(overwritten_bytes)});
    }
    instant(tracePidGpu(src), lane_rwq, "enqueue", "rwq", tick,
            {"dst", static_cast<double>(dst)},
            {"bytes", static_cast<double>(store.size)});
}

void
TraceSink::windowFlushed(GpuId src, std::uint32_t,
                         const finepack::FlushedPartition &flushed,
                         finepack::FlushReason reason, Tick tick)
{
    if (_detail == TraceDetail::off)
        return;
    instant(tracePidGpu(src), lane_rwq, finepack::toString(reason),
            "rwq_flush", tick, {"dst", static_cast<double>(flushed.dst)},
            {"entries", static_cast<double>(flushed.entries.size())},
            {"stores", static_cast<double>(flushed.packed_store_count)});
}

void
TraceSink::messageInjected(const icn::WireMessage &msg, Tick tick)
{
    if (_detail == TraceDetail::off ||
        msg.kind != icn::MessageKind::finepack_packet)
        return;
    double payload = static_cast<double>(msg.payload_bytes);
    double efficiency =
        payload > 0.0 ? static_cast<double>(msg.data_bytes) / payload
                      : 0.0;
    // One de-packetized store per sub-packet.
    instant(tracePidGpu(msg.src), lane_packetizer, "packet", "packetizer",
            tick, {"sub_packets", static_cast<double>(msg.stores.size())},
            {"stores", static_cast<double>(msg.packed_store_count)},
            {"payload_efficiency", efficiency});
}

void
TraceSink::linkTransmit(std::uint32_t link, const icn::WireMessage &msg,
                        Tick, Tick start, Tick tx_ticks)
{
    if (!full())
        return;
    // fabricLinkId(): even ids are uplinks, the message's first hop.
    std::uint32_t pid = tracePidGpu(link / 2);
    bool uplink = link % 2 == 0;
    std::uint32_t tid = uplink ? lane_uplink : lane_downlink;
    complete(pid, tid, "tx", "link", start, tx_ticks,
             {"wire_bytes", static_cast<double>(msg.wireBytes())},
             {"data_bytes", static_cast<double>(msg.data_bytes)},
             {"stores", static_cast<double>(msg.packed_store_count)});
    if (uplink)
        flowStart(pid, tid, "msg", "flow", start, msg.seq);
    else
        flowStep(pid, tid, "msg", "flow", start, msg.seq);
}

void
TraceSink::messageCommitted(const icn::WireMessage &msg, Tick,
                            Tick drain_start, Tick commit)
{
    if (!full())
        return;
    std::uint32_t pid = tracePidGpu(msg.dst);
    complete(pid, lane_ingress, "drain", "ingress", drain_start,
             commit - drain_start,
             {"data_bytes", static_cast<double>(msg.data_bytes)},
             {"stores", static_cast<double>(msg.stores.size())},
             {"src", static_cast<double>(msg.src)});
    flowEnd(pid, lane_ingress, "msg", "flow", drain_start, msg.seq);
}

} // namespace fp::obs
