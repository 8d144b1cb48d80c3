#include "interconnect/topology.hh"

#include <algorithm>
#include <utility>

namespace fp::icn {

FabricParams
FabricParams::forPcie(PcieGen gen)
{
    FabricParams params;
    params.bytes_per_tick = PcieProtocol(gen).bytesPerTick();
    return params;
}

SwitchedFabric::SwitchedFabric(const std::string &name,
                               common::EventQueue &queue,
                               std::uint32_t num_gpus, FabricParams params)
    : SimObject(name, queue), _num_gpus(num_gpus), _params(params),
      _ingress(num_gpus), _arrivals(num_gpus)
{
    fp_assert(num_gpus >= 1, "fabric needs at least one GPU");
    for (std::uint32_t g = 0; g < num_gpus; ++g) {
        _uplinks.push_back(std::make_unique<Link>(
            name + ".up" + std::to_string(g), queue, params.bytes_per_tick,
            params.link_latency + params.switch_latency,
            [this](const WireMessagePtr &msg) { forward(msg); }));
        _downlinks.push_back(std::make_unique<Link>(
            name + ".down" + std::to_string(g), queue,
            params.bytes_per_tick, params.link_latency,
            [this, g](const WireMessagePtr &msg) {
                if (_ingress[g])
                    _ingress[g](msg);
            }));
        if (params.switch_buffer_bytes != 0)
            _uplinks.back()->setCreditLimit(params.switch_buffer_bytes);
        if (params.endpoint_buffer_bytes != 0)
            _downlinks.back()->setCreditLimit(
                params.endpoint_buffer_bytes);
    }
}

void
SwitchedFabric::releaseEndpointCredits(GpuId gpu, std::uint64_t bytes)
{
    fp_assert(gpu < _num_gpus, "bad GPU id ", gpu);
    _downlinks[gpu]->releaseCredits(bytes);
}

void
SwitchedFabric::setIngressHandler(GpuId gpu, IngressFn handler)
{
    fp_assert(gpu < _num_gpus, "bad GPU id ", gpu);
    _ingress[gpu] = std::move(handler);
}

void
SwitchedFabric::inject(const WireMessagePtr &msg)
{
    fp_assert(msg->src < _num_gpus, "bad source GPU ", msg->src);
    fp_assert(msg->dst < _num_gpus, "bad destination GPU ", msg->dst);
    fp_assert(msg->src != msg->dst, "message to self on GPU ", msg->src);
    msg->seq = ++_next_seq;
    msg->injected = curTick();
    if (_observer)
        _observer->messageInjected(*msg, curTick());
    _uplinks[msg->src]->send(msg);
}

void
SwitchedFabric::forward(const WireMessagePtr &msg)
{
    // Messages reaching the switch for one downlink in the same tick
    // leave oldest first, ties by source port, whatever order their
    // arrival events ran in: each waits until the last of its tick is
    // in. (seq would not do: same-tick injections from different GPUs
    // take their seqs in event order.)
    std::vector<WireMessagePtr> &held = _arrivals[msg->dst];
    held.push_back(msg);
    for (const auto &uplink : _uplinks) {
        const WireMessage *next = uplink->arrivingAt(curTick());
        if (next && next->dst == msg->dst)
            return;
    }
    std::sort(held.begin(), held.end(),
              [](const WireMessagePtr &a, const WireMessagePtr &b) {
                  return std::pair(a->injected, a->src) <
                         std::pair(b->injected, b->src);
              });
    // Store-and-forward at the switch: the message re-serializes on the
    // destination's downlink. With flow control enabled, the switch
    // ingress buffer entry frees (uplink credits return) once the
    // downlink starts reading the message out.
    for (const WireMessagePtr &out : held) {
        if (_params.switch_buffer_bytes != 0) {
            GpuId src = out->src;
            std::uint64_t bytes = out->wireBytes();
            _downlinks[out->dst]->send(out, [this, src, bytes]() {
                _uplinks[src]->releaseCredits(bytes);
            });
        } else {
            _downlinks[out->dst]->send(out);
        }
    }
    held.clear();
}

Link &
SwitchedFabric::uplink(GpuId gpu)
{
    fp_assert(gpu < _num_gpus, "bad GPU id ", gpu);
    return *_uplinks[gpu];
}

Link &
SwitchedFabric::downlink(GpuId gpu)
{
    fp_assert(gpu < _num_gpus, "bad GPU id ", gpu);
    return *_downlinks[gpu];
}

const Link &
SwitchedFabric::uplink(GpuId gpu) const
{
    fp_assert(gpu < _num_gpus, "bad GPU id ", gpu);
    return *_uplinks[gpu];
}

const Link &
SwitchedFabric::downlink(GpuId gpu) const
{
    fp_assert(gpu < _num_gpus, "bad GPU id ", gpu);
    return *_downlinks[gpu];
}

Tick
SwitchedFabric::busyUntil() const
{
    Tick latest = 0;
    for (const auto &link : _uplinks)
        latest = std::max(latest, link->busyUntil());
    for (const auto &link : _downlinks)
        latest = std::max(latest, link->busyUntil());
    return latest;
}

std::uint64_t
SwitchedFabric::totalInjectedWireBytes() const
{
    std::uint64_t total = 0;
    for (const auto &link : _uplinks)
        total += link->totalWireBytes();
    return total;
}

void
SwitchedFabric::setObserver(PipelineObserver *observer)
{
    _observer = observer;
    for (GpuId g = 0; g < _num_gpus; ++g) {
        _uplinks[g]->setObserver(observer, fabricLinkId(g, false));
        _downlinks[g]->setObserver(observer, fabricLinkId(g, true));
    }
}

void
SwitchedFabric::resetStats()
{
    for (auto &link : _uplinks)
        link->resetStats();
    for (auto &link : _downlinks)
        link->resetStats();
}

} // namespace fp::icn
