#include "gpu/ingress_port.hh"

#include <cmath>

#include "common/logging.hh"

namespace fp::gpu {

IngressPort::IngressPort(const std::string &name,
                         common::EventQueue &queue, GpuId self,
                         const GpuConfig &config)
    : SimObject(name, queue), _self(self), _config(config)
{
    stats().registerScalar("messages", &_messages, "messages received");
    stats().registerScalar("stores", &_stores, "stores delivered to L2");
    stats().registerScalar("bytes", &_bytes, "data bytes delivered");
}

void
IngressPort::receive(const icn::WireMessagePtr &msg)
{
    fp_assert(msg->dst == _self, "message delivered to wrong GPU");
    common::AccessRecorder(eventQueue()).write(this, name().c_str());

    ++_messages;
    _stores += static_cast<double>(msg->stores.size());
    _bytes += static_cast<double>(msg->data_bytes);

    if (_memory) {
        for (const icn::Store &store : msg->stores) {
            if (!store.data.empty())
                _memory->apply(store);
        }
    }

    // Model the drain of disaggregated stores into the local memory
    // system at HBM write bandwidth.
    double drain_bytes = msg->data_bytes > 0
                             ? static_cast<double>(msg->data_bytes)
                             : static_cast<double>(msg->payload_bytes);
    auto drain_ticks = static_cast<Tick>(
        std::ceil(drain_bytes / _config.hbmBytesPerTick()));
    drain_ticks = std::max<Tick>(drain_ticks, 1);

    Tick start = std::max(curTick(), _busy_until);
    _busy_until = start + drain_ticks;

    if (_observer)
        _observer->messageCommitted(*msg, curTick(), start, _busy_until);

    // Always schedule the drain-completion event so that running the
    // event queue dry implies all ingress buffers have emptied.
    eventQueue().schedule(
        [this, msg]() {
            if (_delivered_cb)
                _delivered_cb(msg);
        },
        _busy_until, common::Event::prio_default, "ingress.drain");
}

} // namespace fp::gpu
